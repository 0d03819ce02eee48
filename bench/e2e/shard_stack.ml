(* The benchmark's copy of the daemon's per-shard stack
   (Pdm_server.Data_plane): the same config, seeds and public
   constructors, plus the two things Data_plane cannot take — a storage
   factory and spans around each call into a layer. The ledger and
   digest cross-check in Pdm_bench compares this copy with the daemon
   after every traced run, so it cannot drift from Data_plane
   unnoticed. *)

module Backend = Pdm_sim.Backend
module Pdm = Pdm_sim.Pdm
module Stats = Pdm_sim.Stats
module Opd = Pdm_dictionary.One_probe_dynamic
module Engine = Pdm_engine.Engine
module Placement = Pdm_cluster.Placement
module Topology = Pdm_cluster.Topology
module Data_plane = Pdm_server.Data_plane
module Wire = Pdm_server.Wire
module Prng = Pdm_util.Prng

(* The daemon under test: 4 shards of 1024 keys, 2 disk replicas and a
   hot spare per shard, 64-request engine batches, seed 42. *)
let config =
  { Data_plane.default_config with
    Data_plane.shards = 4; shard_capacity = 1024; replicas = 2; spares = 1;
    seed = 42; max_batch = 64 }

(* pdm-serve flags that build [config]. One worker domain: run.sh puts
   the daemon and the load generator on one CPU, where a second worker
   could only contend with the first. *)
let daemon_args =
  let c = config and i = string_of_int in
  [ "--shards"; i c.shards; "--domains"; "1";
    "--capacity"; i (c.shards * c.shard_capacity);
    "--replicas"; i c.replicas; "--spares"; i c.spares; "--seed"; i c.seed;
    "--batch"; i c.max_batch ]

type shard = { id : int; dict : Opd.t; engine : Engine.t }

type t = {
  topo : Topology.t;
  shards : shard array;
  spans : Span_log.t option;
}

(* pdm-lint: allow R1 — forwards a transfer Pdm's round scheduler
   issued and charged; the wrapper only adds a span *)
let read_through spans (be : int Backend.t) ~attempt b =
  Span_log.within spans Backend_read (fun () -> be.Backend.read ~attempt b)

(* pdm-lint: allow R1 — forwards a transfer Pdm's round scheduler
   issued and charged; the wrapper only adds a span *)
let write_through spans (be : int Backend.t) b cells =
  Span_log.within spans Backend_write (fun () -> be.Backend.write b cells)

(* Wrap every disk [inner] builds (the default memory disk without one)
   in backend.read/backend.write spans. *)
(* pdm-lint: allow R1 — builds the default memory disk Pdm.create would
   build, to put the timing wrapper around it *)
let timed_factory spans inner : int Backend.factory =
 fun ~blocks ~slots ->
  let make =
    match Option.bind inner (fun (f : int Backend.factory) -> f ~blocks ~slots)
    with
    | Some make -> make
    | None -> fun disk -> Backend.memory ~disk ~blocks
  in
  Some
    (fun disk ->
      let be = make disk in
      { be with
        Backend.read = read_through (Some spans) be;
        write = write_through (Some spans) be })

(* Data_plane.make_shard, with the factory and, when tracing, spans
   around the dictionary closures the engine calls. *)
let make_shard ?factory spans id =
  let c = config in
  let dcfg =
    { Opd.universe = c.universe; capacity = c.shard_capacity;
      degree = c.degree; sigma_bits = 8 * c.value_bytes; levels = c.levels;
      v_factor = 3; seed = Prng.hash2 ~seed:c.seed 0x5eed id }
  in
  let factory =
    match spans with
    | Some s -> Some (timed_factory s factory)
    | None -> factory
  in
  let dict =
    Opd.create ?factory ~replicas:c.replicas ~spares:c.spares
      ~block_words:c.block_words dcfg
  in
  let within name f = Span_log.within spans name f in
  let engine =
    Engine.create
      ~config:
        { Engine.max_batch = max 1 c.max_batch;
          deadline_rounds = max_int / 2; cache_blocks = 0 }
      { Engine.name = Printf.sprintf "serve-shard-%d" id;
        machine = Opd.machine dict;
        lookup =
          (fun key ->
            Engine.Fetch
              ( within Probe_addresses (fun () -> Opd.probe_addresses dict key),
                fun blocks ->
                  Engine.Done
                    (within Find_in (fun () -> Opd.find_in dict key blocks)) ));
        insert = Some (fun k v -> within Insert (fun () -> Opd.insert dict k v));
        delete = Some (fun k -> within Delete (fun () -> Opd.delete dict k)) }
  in
  { id; dict; engine }

(* Memory disks, or with [on_file] file disks, each shard's in a fresh
   scratch directory under $TMPDIR that Pdm_io.Store removes at exit. *)
let create ~on_file spans =
  let factory =
    if on_file then Some (Pdm_io.Store.factory (Pdm_io.Store.spec File)) else None
  in
  { topo = Topology.standard ~shards:config.shards;
    shards = Array.init config.shards (fun id -> make_shard ?factory spans id);
    spans }

let spans t = t.spans

let request_of_op = function
  | Wire.Get k -> Engine.Lookup k
  | Wire.Insert (k, v) -> Engine.Insert (k, v)
  | Wire.Delete k -> Engine.Delete k

let result_of_outcome (o : Engine.outcome) =
  match o.request with
  | Engine.Lookup _ -> (
    match o.value with Some v -> Wire.Found v | None -> Wire.Absent)
  | Engine.Insert _ -> Wire.Inserted
  | Engine.Delete _ -> Wire.Deleted (o.value <> None)

(* Data_plane.execute, with engine.submit/engine.drain spans. *)
let execute t ~shard ops =
  let sh = t.shards.(shard) in
  let within name f = Span_log.within t.spans name f in
  let ids = Array.make (List.length ops) (-1) in
  let failure = ref None in
  (try
     List.iteri
       (fun i op ->
         ids.(i) <-
           within Submit (fun () -> Engine.submit sh.engine (request_of_op op)))
       ops;
     within Drain (fun () -> Engine.drain sh.engine)
   with Engine.Request_failed _ as e -> failure := Some e);
  let outcomes = Hashtbl.create 64 in
  List.iter
    (fun (o : Engine.outcome) -> Hashtbl.replace outcomes o.id o)
    (Engine.take_outcomes sh.engine);
  let missing () =
    match !failure with
    | Some e -> e
    | None -> Engine.Request_failed { id = -1; key = -1; error = Not_found }
  in
  List.mapi
    (fun i _op ->
      match Hashtbl.find_opt outcomes ids.(i) with
      | Some o -> Ok (result_of_outcome o)
      | None -> Error (missing ()))
    ops

let shard_of_key t key = Placement.primary t.topo ~seed:config.seed key

(* Server.group_by_shard: ops grouped by target shard, shards in
   first-seen order, op order kept within each shard. *)
let group_by_shard t ops =
  let tbl = Hashtbl.create 8 in
  let order = ref [] in
  List.iteri
    (fun i op ->
      let key =
        match op with Wire.Get k | Wire.Insert (k, _) | Wire.Delete k -> k
      in
      let shard = shard_of_key t key in
      match Hashtbl.find_opt tbl shard with
      | Some l -> l := (i, op) :: !l
      | None ->
        Hashtbl.add tbl shard (ref [ (i, op) ]);
        order := shard :: !order)
    ops;
  List.rev_map (fun shard -> (shard, List.rev !(Hashtbl.find tbl shard))) !order

(* One frame through the daemon's path minus its sockets, listener and
   mailboxes: encode and decode the request (when [wire]), route, run
   one job per shard, assemble the reply and encode and decode it.
   Returns the per-op results ([Error] for an op storage failed) and
   the frame's request + reply bytes (0 without [wire]). *)
let serve_frame t ~wire ~rid ops =
  let within name f = Span_log.within t.spans name f in
  let ops, req_bytes =
    if not wire then (ops, 0)
    else begin
      let req = match ops with [ op ] -> Wire.Op op | _ -> Wire.Batch ops in
      let frame =
        within Encode_request (fun () -> Wire.encode_request { Wire.rid; req })
      in
      let decoded =
        within Decode_request (fun () ->
            Wire.decode_request (Bytes.sub frame 4 (Bytes.length frame - 4)))
      in
      match decoded with
      | Ok { Wire.req = Wire.Op op; _ } -> ([ op ], Bytes.length frame)
      | Ok { Wire.req = Wire.Batch ops; _ } -> (ops, Bytes.length frame)
      | Ok _ | Error _ -> failwith "Shard_stack: request did not round-trip"
    end
  in
  let groups = within Route (fun () -> group_by_shard t ops) in
  let slots = Array.make (List.length ops) (Error Not_found) in
  List.iter
    (fun (shard, indexed) ->
      within Job (fun () ->
          List.iter2
            (fun (i, _) r -> slots.(i) <- r)
            indexed
            (execute t ~shard (List.map snd indexed))))
    groups;
  let results = Array.to_list slots in
  if not wire then (results, 0)
  else begin
    let rep =
      match
        List.filter_map (function Ok r -> Some r | Error _ -> None) results
      with
      | rs when List.length rs < List.length results ->
        Wire.Unavailable "storage failure"
      | [ r ] when List.length ops = 1 -> Wire.Result r
      | rs -> Wire.Results rs
    in
    let frame =
      within Encode_reply (fun () -> Wire.encode_reply { Wire.rid; rep })
    in
    let decoded =
      within Decode_reply (fun () ->
          Wire.decode_reply (Bytes.sub frame 4 (Bytes.length frame - 4)))
    in
    (match decoded with
     | Ok { Wire.rep = rep'; _ } when rep' = rep -> ()
     | Ok _ | Error _ -> failwith "Shard_stack: reply did not round-trip");
    (results, req_bytes + Bytes.length frame)
  end

(* Data_plane.shard_stats. *)
let shard_stats t =
  Array.to_list
    (Array.map
       (fun sh ->
         let s = Engine.stats sh.engine in
         { Wire.shard = sh.id; rounds = Pdm.rounds_total (Opd.machine sh.dict);
           served = s.Engine.requests_served; fetched = s.Engine.blocks_fetched })
       t.shards)

(* Engine counters and Pdm block counters summed over shards. *)
type counters = {
  engine_stats : Engine.stats;
  block_reads : int;
  block_writes : int;
}

let counters t =
  let zero =
    { Engine.rounds = 0; fetch_rounds = 0; insert_rounds = 0;
      blocks_fetched = 0; requests_served = 0; batches = 0; coalesced = 0;
      cache_hits = 0; total_latency = 0; max_latency = 0 }
  in
  Array.fold_left
    (fun acc sh ->
      let e = Engine.stats sh.engine and a = acc.engine_stats in
      let p = Stats.snapshot (Pdm.stats (Opd.machine sh.dict)) in
      { engine_stats =
          { a with
            Engine.rounds = a.rounds + e.rounds;
            fetch_rounds = a.fetch_rounds + e.fetch_rounds;
            insert_rounds = a.insert_rounds + e.insert_rounds;
            blocks_fetched = a.blocks_fetched + e.blocks_fetched;
            requests_served = a.requests_served + e.requests_served;
            batches = a.batches + e.batches;
            coalesced = a.coalesced + e.coalesced };
        block_reads = acc.block_reads + p.Stats.block_reads;
        block_writes = acc.block_writes + p.Stats.block_writes })
    { engine_stats = zero; block_reads = 0; block_writes = 0 }
    t.shards
