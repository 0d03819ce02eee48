(* The counted read path below the engine: the scheduler, replica
   failover and zero-copy answers, held to the earlier list- and
   Queue-based implementation they replaced, plus allocation budgets
   for the requests the daemon serves and for one file-backed block
   transfer. *)

open Pdm_sim
module Checksum = Pdm_dictionary.Codec.Checksum

let tc = Alcotest.test_case

(* --- the reference: the list- and Queue-based read path ------------- *)

(* The machine's private state the reference keeps itself, beside a
   machine built identically to the one under test: it schedules on
   that machine's backends and charges its stats, but counts rounds,
   caches disk health and records trace events on its own. *)
type 'a reference = {
  m : 'a Pdm.t;
  down : bool array;
  mutable rounds_done : int;
  trace : Trace.t;
}

type fail_reason = R_lost | R_corrupt | R_flaky

let raise_failure r (p : Pdm.addr) reason attempts =
  let round = r.rounds_done in
  match reason with
  | R_lost ->
    raise (Backend.Disk_failed { disk = p.disk; block = p.block; round })
  | R_corrupt ->
    raise (Backend.Corrupt_block { disk = p.disk; block = p.block; round })
  | R_flaky ->
    raise
      (Backend.Retries_exhausted
         { disk = p.disk; block = p.block; attempts; round })

let schedule r ~op ~(paddrs : Pdm.addr array) ~perform ~on_fail =
  let m = r.m in
  let channels = Pdm.physical_disks m in
  let queues =
    match Pdm.model m with
    | Pdm.Independent_disks ->
      let qs = Array.init channels (fun _ -> Queue.create ()) in
      Array.iteri (fun k (p : Pdm.addr) -> Queue.add k qs.(p.disk)) paddrs;
      qs
    | Pdm.Parallel_heads ->
      let q = Queue.create () in
      Array.iteri (fun k _ -> Queue.add k q) paddrs;
      [| q |]
  in
  let queue_of c =
    match Pdm.model m with
    | Pdm.Independent_disks -> queues.(c)
    | Pdm.Parallel_heads -> queues.(0)
  in
  let attempts = Array.make (Array.length paddrs) 0 in
  let current = Array.make channels None in
  let busy () = Array.exists Option.is_some current in
  let queued () = Array.exists (fun q -> not (Queue.is_empty q)) queues in
  let rounds_used = ref 0 in
  while busy () || queued () do
    let round_id = r.rounds_done + 1 in
    let per_disk = Array.make channels 0 in
    let retries = ref 0 in
    let degraded = ref false in
    for c = 0 to channels - 1 do
      (match current.(c) with
       | Some _ -> ()
       | None ->
         let q = queue_of c in
         if not (Queue.is_empty q) then begin
           let k = Queue.pop q in
           let cost = (Pdm.backend m paddrs.(k).disk).Backend.cost in
           current.(c) <- Some (k, cost)
         end);
      match current.(c) with
      | None -> ()
      | Some (k, remaining) ->
        let disk = paddrs.(k).disk in
        let bk = Pdm.backend m disk in
        if bk.Backend.cost > 1 then degraded := true;
        let remaining = remaining - 1 in
        if remaining > 0 then current.(c) <- Some (k, remaining)
        else begin
          current.(c) <- None;
          match perform k ~attempt:attempts.(k) with
          | `Done -> per_disk.(disk) <- per_disk.(disk) + 1
          | `Fail reason ->
            degraded := true;
            on_fail k reason ~attempts:attempts.(k)
          | `Retry reason ->
            incr retries;
            degraded := true;
            let next = attempts.(k) + 1 in
            if next > bk.Backend.max_retries then
              on_fail k reason ~attempts:next
            else begin
              attempts.(k) <- next;
              Queue.add k (queue_of c)
            end
        end
    done;
    r.rounds_done <- r.rounds_done + 1;
    incr rounds_used;
    Trace.record r.trace
      { Trace.round = round_id; op; per_disk; retries = !retries;
        degraded = !degraded; shard = Trace.shard r.trace; attempt = 0 };
    Stats.add_disk_reads (Pdm.stats m) per_disk
  done;
  !rounds_used

let read_attempt r (p : Pdm.addr) ~attempt deliver =
  match (Pdm.backend r.m p.disk).Backend.read ~attempt p.block with
  | Backend.Data d ->
    let verified =
      match (Pdm.integrity r.m, d) with
      | None, _ -> Ok d
      | Some _, None -> Ok None
      | Some itg, Some stored ->
        (match itg.Pdm.check stored with
         | Some payload -> Ok (Some payload)
         | None -> Error ())
    in
    (match verified with
     | Ok payload ->
       deliver payload;
       `Done
     | Error () -> `Retry R_corrupt)
  | Backend.Transient -> `Retry R_flaky
  | Backend.Lost ->
    r.down.(p.disk) <- true;
    `Fail R_lost

let block_copy r = function
  | None -> Array.make (Pdm.block_size r.m) None
  | Some slots -> Array.copy slots

let phys r a j = Pdm.replica_addr r.m a ~replica:j

let read_candidates r requests =
  let requests = Array.of_list requests in
  let cands = Array.map snd requests in
  let results = Array.make (Array.length requests) [||] in
  let pending = ref (List.init (Array.length requests) Fun.id) in
  while !pending <> [] do
    let idx = Array.of_list !pending in
    pending := [];
    let chosen =
      Array.map
        (fun i ->
          let a = fst requests.(i) in
          match cands.(i) with
          | [] -> assert false
          | first :: _ ->
            (match
               List.find_opt
                 (fun j -> not r.down.((phys r a j).Pdm.disk))
                 cands.(i)
             with
             | Some j -> j
             | None -> first))
        idx
    in
    let paddrs =
      Array.mapi (fun k i -> phys r (fst requests.(i)) chosen.(k)) idx
    in
    let delivered = ref 0 in
    let perform k ~attempt =
      read_attempt r paddrs.(k) ~attempt (fun payload ->
          results.(idx.(k)) <- block_copy r payload;
          incr delivered)
    in
    let on_fail k reason ~attempts =
      let i = idx.(k) in
      match List.filter (fun j -> j <> chosen.(k)) cands.(i) with
      | [] -> raise_failure r paddrs.(k) reason attempts
      | rest ->
        cands.(i) <- rest;
        pending := i :: !pending
    in
    let rounds = schedule r ~op:Trace.Read ~paddrs ~perform ~on_fail in
    Stats.add_read_round (Pdm.stats r.m) ~blocks:!delivered ~rounds
  done;
  Array.to_list (Array.mapi (fun i (a, _) -> (a, results.(i))) requests)

let dedup key xs =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun x ->
      let k = key x in
      if Hashtbl.mem seen k then false
      else begin
        Hashtbl.add seen k ();
        true
      end)
    xs

let all_replicas r = List.init (Pdm.replicas r.m) Fun.id

let ref_read r addrs =
  read_candidates r (List.map (fun a -> (a, all_replicas r)) (dedup Fun.id addrs))

let ref_read_preferring r prefs =
  read_candidates r
    (List.map
       (fun (a, j) -> (a, j :: List.filter (fun x -> x <> j) (all_replicas r)))
       (dedup fst prefs))

(* --- the differential property -------------------------------------- *)

type case = {
  disks : int;
  replicas : int;
  spares : int;
  heads : bool;
  checksum : bool;
  seed : int;
  max_retries : int;
  transient : (int * float) list;
  corrupt : (int * float) list;
  stragglers : (int * int) list;
  failed : int list;
  written : (int * int) list;
  killed : int list;
  scrub : bool;
  requests : (bool * (int * int * int) list) list;
      (* preferring?, (disk, block, preferred replica) *)
}

let blocks_per_disk = 4

let case_gen =
  let open QCheck.Gen in
  let* disks = int_range 2 16 in
  let* replicas = int_range 1 (min 3 disks) in
  let* spares = int_range 0 1 in
  let phys_disk = int_range 0 (disks + spares - 1) in
  let some_disks = list_size (int_range 0 2) phys_disk in
  let* heads = frequency [ (4, return false); (1, return true) ] in
  let* checksum = bool in
  let* seed = int_range 0 1000 in
  let* max_retries = int_range 0 3 in
  let* transient =
    list_size (int_range 0 2) (pair phys_disk (float_range 0.0 0.6))
  in
  let* corrupt =
    list_size (int_range 0 2)
      (pair phys_disk (oneofl [ 0.3; 0.7; 1.0 ]))
  in
  let* stragglers = list_size (int_range 0 2) (pair phys_disk (int_range 2 3)) in
  let* failed = frequency [ (4, return []); (1, some_disks) ] in
  let block = pair (int_range 0 (disks - 1)) (int_range 0 (blocks_per_disk - 1)) in
  let* written = list_size (int_range 0 (2 * disks)) block in
  let* killed = some_disks in
  let* scrub = bool in
  let request =
    pair bool
      (list_size (int_range 0 12)
         (map2 (fun (d, b) j -> (d, b, j)) block (int_range 0 (replicas - 1))))
  in
  let* requests = list_size (int_range 1 4) request in
  return
    { disks; replicas; spares; heads; checksum; seed; max_retries; transient;
      corrupt; stragglers; failed; written; killed; scrub; requests }

let print_case c =
  let pairs f l = String.concat ";" (List.map f l) in
  let df (d, p) = Printf.sprintf "%d:%.2f" d p in
  let ints l = pairs string_of_int l in
  Printf.sprintf
    "disks %d replicas %d spares %d %s%s seed %d retries %d\n\
     transient [%s] corrupt [%s] stragglers [%s] failed [%s]\n\
     written [%s] killed [%s]%s\n\
     requests: %s"
    c.disks c.replicas c.spares
    (if c.heads then "heads" else "independent")
    (if c.checksum then " checksum" else "")
    c.seed c.max_retries (pairs df c.transient) (pairs df c.corrupt)
    (pairs (fun (d, k) -> Printf.sprintf "%d:%d" d k) c.stragglers)
    (ints c.failed)
    (pairs (fun (d, b) -> Printf.sprintf "%d.%d" d b) c.written)
    (ints c.killed)
    (if c.scrub then " scrub" else "")
    (String.concat " | "
       (List.map
          (fun (pref, l) ->
            (if pref then "prefer " else "read ")
            ^ pairs (fun (d, b, j) -> Printf.sprintf "%d.%d/%d" d b j) l)
          c.requests))

let case_arb = QCheck.make case_gen ~print:print_case

(* One of the two identical machines: written, damaged, killed and
   scrubbed the same way. A setup write that loses every replica is
   skipped on both. *)
let build c =
  let faults =
    Fault.spec ~seed:c.seed ~max_retries:c.max_retries ~transient:c.transient
      ~corrupt:c.corrupt ~stragglers:c.stragglers ~fail:c.failed ()
  in
  let integrity = if c.checksum then Some Checksum.integrity else None in
  let m : int Pdm.t =
    Pdm.create
      ~model:(if c.heads then Pdm.Parallel_heads else Pdm.Independent_disks)
      ~faults ~replicas:c.replicas ~spares:c.spares ?integrity ~disks:c.disks
      ~block_size:4 ~blocks_per_disk ()
  in
  List.iter
    (fun (d, b) ->
      let v = Some ((100 * d) + b) in
      try Pdm.write_one m { Pdm.disk = d; block = b } [| v; None; v; Some d |]
      with e when Backend.describe e <> None -> ())
    c.written;
  List.iter (Pdm.kill_disk m) c.killed;
  if c.scrub then ignore (Pdm.scrub m);
  m

let describe_exn e =
  match Backend.describe e with Some s -> s | None -> Printexc.to_string e

(* Everything a request leaves observable on either side. *)
type observed = {
  answer : ((Pdm.addr * int option array) list, string) result;
  rounds : int;
  stats : Stats.snapshot;
  events : Trace.event list;
  down : bool list;
}

let observe ~rounds_before ~rounds_after ~stats ~trace ~down answer =
  let events = Trace.events trace in
  Trace.clear trace;
  { answer; rounds = rounds_after - rounds_before; stats; events; down }

let prop_read_path_matches_reference =
  QCheck.Test.make ~name:"read and read_preferring = reference read path"
    ~count:400 case_arb (fun c ->
      let m = build c and refm = build c in
      let phys_disks = Pdm.physical_disks m in
      let tr = Trace.create () in
      Pdm.set_trace m (Some tr);
      let r =
        { m = refm;
          down = Array.init phys_disks (Pdm.disk_down refm);
          rounds_done = Pdm.rounds_total refm;
          trace = Trace.create () }
      in
      if Pdm.rounds_total m <> r.rounds_done then
        QCheck.Test.fail_report "machines built differently";
      List.for_all
        (fun (prefer, l) ->
          let addrs = List.map (fun (d, b, _) -> { Pdm.disk = d; block = b }) l in
          let prefs = List.map2 (fun a (_, _, j) -> (a, j)) addrs l in
          (* read_preferring rejects a repeated address before any I/O;
             the distinct first preferences are then read as the
             reference reads them *)
          let distinct = dedup fst prefs in
          if prefer && List.length distinct < List.length prefs then begin
            let before = Pdm.rounds_total m in
            match
              Pdm.read_preferring m
                (Array.of_list (List.map fst prefs))
                (Array.of_list (List.map snd prefs))
            with
            | _ -> QCheck.Test.fail_report "a repeated address was read"
            | exception Invalid_argument _ ->
              if Pdm.rounds_total m <> before then
                QCheck.Test.fail_report "a rejected request did I/O"
          end;
          let prefs = distinct in
          let attempt f = try Ok (f ()) with e -> Error (describe_exn e) in
          (* read keeps the repeats: answer i must be the reference's
             block for address i *)
          let asked = if prefer then List.map fst prefs else addrs in
          let before = Pdm.rounds_total m in
          let got =
            attempt (fun () ->
                let asked = Array.of_list asked in
                let blocks =
                  if prefer then
                    Pdm.read_preferring m asked
                      (Array.of_list (List.map snd prefs))
                  else Pdm.read m asked
                in
                List.mapi (fun i a -> (a, blocks.(i))) (Array.to_list asked))
          in
          let got =
            observe ~rounds_before:before ~rounds_after:(Pdm.rounds_total m)
              ~stats:(Stats.snapshot (Pdm.stats m)) ~trace:tr
              ~down:(List.init phys_disks (Pdm.disk_down m))
              got
          in
          let before = r.rounds_done in
          let want =
            attempt (fun () ->
                let blocks =
                  if prefer then ref_read_preferring r prefs else ref_read r addrs
                in
                List.map (fun a -> (a, List.assoc a blocks)) asked)
          in
          let want =
            observe ~rounds_before:before ~rounds_after:r.rounds_done
              ~stats:(Stats.snapshot (Pdm.stats refm)) ~trace:r.trace
              ~down:(Array.to_list r.down) want
          in
          let differ what = QCheck.Test.fail_reportf "%s differ" what in
          (match (got.answer, want.answer) with
           | Ok a, Ok b -> if a <> b then differ "answers"
           | Error a, Error b ->
             if a <> b then QCheck.Test.fail_reportf "raised %s, want %s" a b
           | Ok _, Error b -> QCheck.Test.fail_reportf "no exception, want %s" b
           | Error a, Ok _ -> QCheck.Test.fail_reportf "unexpected %s" a);
          if got.rounds <> want.rounds then differ "rounds";
          if got.stats <> want.stats then differ "stats";
          if got.events <> want.events then differ "trace events";
          if got.down <> want.down then differ "disk_down";
          true)
        c.requests)

(* A backend that reads from the machine it serves: disk 0's first
   read runs a whole request of its own, which must not disturb the
   scheduler state of the request it interrupts. *)
let test_reentrant_request () =
  let hook = ref ignore in
  let factory ~blocks ~slots:_ =
    Some
      (fun d ->
        let b = Backend.memory ~disk:d ~blocks in
        if d <> 0 then b
        else
          { b with
            Backend.read =
              (fun ~attempt blk ->
                let f = !hook in
                hook := ignore;
                f ();
                b.Backend.read ~attempt blk) })
  in
  let m : int Pdm.t =
    Pdm.create ~factory ~disks:4 ~block_size:2 ~blocks_per_disk:4 ()
  in
  let addr d b = { Pdm.disk = d; block = b } in
  for d = 0 to 3 do
    for b = 0 to 1 do
      Pdm.write_one m (addr d b) [| Some ((10 * d) + b); None |]
    done
  done;
  let inner = ref [||] in
  hook := (fun () -> inner := Pdm.read_one m (addr 1 1));
  let before = Pdm.rounds_total m in
  let outer = Pdm.read m [| addr 0 0; addr 1 0; addr 2 0 |] in
  Alcotest.(check (array (option int)))
    "outer answers" [| Some 0; Some 10; Some 20 |]
    (Array.map (fun b -> b.(0)) outer);
  Alcotest.(check (option int)) "inner answer" (Some 11) !inner.(0);
  Alcotest.(check int) "one round each" 2 (Pdm.rounds_total m - before)

(* A write stores one copy of each block, shared by its replicas and
   independent of the caller's array. *)
let test_write_stores_one_copy () =
  let m : int Pdm.t =
    Pdm.create ~replicas:2 ~disks:4 ~block_size:2 ~blocks_per_disk:4 ()
  in
  let a = { Pdm.disk = 1; block = 2 } in
  let block = [| Some 7; None |] in
  Pdm.write_one m a block;
  block.(0) <- Some 8;
  let served_by j =
    match Pdm.read_preferring m [| a |] [| j |] with
    | [| image |] -> image
    | _ -> Alcotest.fail "one block expected"
  in
  let r0 = served_by 0 and r1 = served_by 1 in
  Alcotest.(check (option int)) "replica 0 kept the written value" (Some 7) r0.(0);
  Alcotest.(check (option int)) "replica 1 kept the written value" (Some 7) r1.(0);
  Alcotest.(check bool) "replicas share one image" true (r0 == r1)

(* --- allocation budgets --------------------------------------------- *)

module Shard = Pdm_cluster.Shard
module Opd = Pdm_dictionary.One_probe_dynamic
module Engine = Pdm_engine.Engine

(* Minor-heap words [f] allocates, with the sanitizer off (it copies
   every view it checks). *)
let minor_words f =
  Sanitize.with_sanitize false (fun () ->
      let before = Gc.minor_words () in
      ignore (Sys.opaque_identity (f ()));
      int_of_float (Gc.minor_words () -. before))

(* A daemon shard (the server's default geometry: 15 disks of 32-word
   blocks, 2 replicas, 1 spare) holding 200 keys. *)
let daemon_shard () =
  let sh =
    Shard.create ~replicas:2 ~spares:1 ~universe:(1 lsl 20) ~capacity:1024
      ~block_words:32 ~value_bytes:8 ~degree:5 ~levels:2 ~seed:42 ~batch:64 0
  in
  let keys = List.init 200 (fun i -> (i * 4999) + 1) in
  List.iter (fun k -> Opd.insert sh.Shard.dict k (Bytes.make 8 'x')) keys;
  (sh, keys)

(* Budgets are measured words plus 10%. probe_addresses was measured
   when probe plans became positional (plans and answers in arrays,
   engine batches on slots); with address lists it took 435 words. The
   reads, the write, find_in and Engine.run were measured once fields
   decoded straight from their cells and the read path's transfers,
   callbacks and memory disks stopped allocating per block: before,
   read_preferring of 15 blocks took 92 words, Pdm.read of them 602,
   read_one 79, the write 124, find_in 126 and Engine.run 6,890 (with
   address lists, 381, 811, 104, 353, 292 and 29,540). *)
let within_budget what ~measured words =
  let budget = measured * 11 / 10 in
  if words > budget then
    Alcotest.failf "%s allocates %d minor words, budget %d" what words budget

let test_read_preferring_budget () =
  let sh, keys = daemon_shard () in
  let m = Opd.machine sh.Shard.dict in
  let addrs = Opd.probe_addresses sh.Shard.dict (List.nth keys 17) in
  Alcotest.(check int) "one lookup's blocks" 15 (Array.length addrs);
  let prefs = Array.make 15 0 in
  ignore (Pdm.read_preferring m addrs prefs);
  within_budget "read_preferring of 15 blocks" ~measured:16
    (minor_words (fun () -> Pdm.read_preferring m addrs prefs))

(* The same 15 blocks through the copying read: one fresh copy per
   block (33 words each) on top of read_preferring's answer array.
   Deduplicated through a hash table and answered as an association
   list, it took 811 words. *)
let test_read_budget () =
  let sh, keys = daemon_shard () in
  let m = Opd.machine sh.Shard.dict in
  let addrs = Opd.probe_addresses sh.Shard.dict (List.nth keys 17) in
  ignore (Pdm.read m addrs);
  within_budget "Pdm.read of 15 blocks" ~measured:527
    (minor_words (fun () -> Pdm.read m addrs))

let test_read_one_budget () =
  let m : int Pdm.t = Pdm.create ~disks:15 ~block_size:32 ~blocks_per_disk:16 () in
  let a = { Pdm.disk = 1; block = 3 } in
  Pdm.write_one m a (Array.make 32 (Some 5));
  ignore (Pdm.read_one m a);
  within_budget "read_one" ~measured:39 (minor_words (fun () -> Pdm.read_one m a))

let test_engine_run_budget () =
  let sh, keys = daemon_shard () in
  let lookups =
    List.filteri (fun i _ -> i < 16) keys |> List.map (fun k -> Engine.Lookup k)
  in
  ignore (Engine.run sh.Shard.engine lookups);
  within_budget "Engine.run of 16 lookups" ~measured:4_129
    (minor_words (fun () -> Engine.run sh.Shard.engine lookups))

(* Routing one key on the daemon's 4-shard topology: one pass over
   the shards. Through the ranking and the replica passes it took 162
   words. *)
let test_primary_budget () =
  let topo = Pdm_cluster.Topology.standard ~shards:4 in
  let primary () = Pdm_cluster.Placement.primary topo ~seed:42 12_345 in
  ignore (primary ());
  within_budget "Placement.primary" ~measured:6 (minor_words primary)

(* A write of 4 blocks on 2 replicas: the blocks and their addresses in
   arrays, one sealed image each, the targets laid out in the machine's
   workspace. With a hash table to reject duplicates and the targets
   built through lists it took 353 words. *)
let test_write_budget () =
  let m : int Pdm.t =
    Pdm.create ~replicas:2 ~disks:8 ~block_size:4 ~blocks_per_disk:8 ()
  in
  let blocks =
    List.init 4 (fun i -> ({ Pdm.disk = 2 * i; block = i }, Array.make 4 (Some i)))
  in
  Pdm.write m blocks;
  within_budget "write of 4 blocks, 2 replicas" ~measured:85
    (minor_words (fun () -> Pdm.write m blocks))

(* Planning and decoding one daemon lookup, outside the engine. *)
let test_probe_plan_budget () =
  let sh, keys = daemon_shard () in
  let d = sh.Shard.dict in
  let key = List.nth keys 17 in
  let addrs = Opd.probe_addresses d key in
  let blocks = Pdm.read_preferring (Opd.machine d) addrs (Array.make 15 0) in
  Alcotest.(check bool) "the key is found" true (Opd.find_in d key blocks <> None);
  within_budget "probe_addresses" ~measured:61
    (minor_words (fun () -> Opd.probe_addresses d key));
  within_budget "find_in" ~measured:45
    (minor_words (fun () -> Opd.find_in d key blocks))

(* Rewriting a present key in place: the one read round of its plan,
   the satellite re-encoded into its fields and one combined write
   round. *)
let test_insert_present_budget () =
  let sh, keys = daemon_shard () in
  let d = sh.Shard.dict in
  let key = List.nth keys 17 and value = Bytes.make 8 'y' in
  Opd.insert d key value;
  within_budget "Opd.insert of a present key" ~measured:637
    (minor_words (fun () -> Opd.insert d key value))

(* A membership lookup (Leveled's shape: 32-word blocks, two-byte
   values) scanning an 8-block plan. With a recursive closure per
   block scanned it took 38 words for a present key and 64 for an
   absent one. *)
let test_basic_find_budget () =
  let module Basic = Pdm_dictionary.Basic_dict in
  let cfg =
    Basic.plan ~universe:(1 lsl 20) ~capacity:1024 ~block_words:32 ~degree:8
      ~value_bytes:2 ~seed:5 ()
  in
  let m : int Pdm.t =
    Pdm.create ~disks:8 ~block_size:32
      ~blocks_per_disk:(Basic.blocks_per_disk cfg) ()
  in
  let b = Basic.create ~machine:m ~disk_offset:0 ~block_offset:0 cfg in
  for i = 0 to 299 do
    Basic.insert b ((i * 3001) + 7) (Bytes.make 2 'v')
  done;
  let present = (17 * 3001) + 7 and absent = 12_345 in
  let plan key = Pdm.read_views m (Basic.addresses b key) in
  let bp = plan present and ba = plan absent in
  Alcotest.(check int) "an 8-block plan" 8 (Basic.plan_blocks b);
  Alcotest.(check bool) "present is found" true
    (Basic.find_in b present bp ~off:0 <> None);
  Alcotest.(check bool) "absent is not" true
    (Basic.find_in b absent ba ~off:0 = None);
  within_budget "Basic_dict.find_in, present" ~measured:18
    (minor_words (fun () -> Basic.find_in b present bp ~off:0));
  within_budget "Basic_dict.find_in, absent" ~measured:0
    (minor_words (fun () -> Basic.find_in b absent ba ~off:0))

(* One file-backed transfer of a full 32-slot block (the daemon's block
   size). A read allocates the payload the Backend contract requires —
   the array, its 32 [Some] cells and the [Some] around it, 99 words —
   and its [Data] box; a write allocates nothing. Encoded byte at a
   time, through a closure per pread/pwrite, they took 279 and 17
   words. *)
let with_file_disk f =
  Pdm_io.Store.with_dir (fun dir ->
      let be = Pdm_io.File_backend.create ~dir ~disk:0 ~blocks:4 ~slots:32 () in
      let cells = Array.init 32 (fun i -> Some ((i * 7919) - 100_000)) in
      be.Backend.write 1 cells;
      Alcotest.(check bool) "the block reads back" true
        (be.Backend.read ~attempt:0 1 = Backend.Data (Some cells));
      f be cells)

let test_file_read_budget () =
  with_file_disk (fun be _ ->
      within_budget "File_backend read of a full block" ~measured:101
        (minor_words (fun () -> be.Backend.read ~attempt:0 1)))

let test_file_write_budget () =
  with_file_disk (fun be cells ->
      within_budget "File_backend write of a full block" ~measured:0
        (minor_words (fun () -> be.Backend.write 2 cells)))

let suite =
  [ ("pdm.read_path",
     [ QCheck_alcotest.to_alcotest prop_read_path_matches_reference;
       tc "a re-entrant request gets its own workspace" `Quick
         test_reentrant_request;
       tc "a write stores one copy for all replicas" `Quick
         test_write_stores_one_copy ]);
    ("pdm.alloc_budget",
     [ tc "read_preferring, one daemon lookup" `Quick
         test_read_preferring_budget;
       tc "read_one, unreplicated" `Quick test_read_one_budget;
       tc "Engine.run, 16 daemon lookups" `Quick test_engine_run_budget;
       tc "probe_addresses and find_in, one lookup" `Quick
         test_probe_plan_budget;
       tc "Placement.primary, 4 shards" `Quick test_primary_budget;
       tc "write, 4 blocks on 2 replicas" `Quick test_write_budget;
       tc "File_backend read, one full block" `Quick test_file_read_budget;
       tc "File_backend write, one full block" `Quick test_file_write_budget;
       tc "Pdm.read of 15 blocks" `Quick test_read_budget;
       tc "Opd.insert, present key" `Quick test_insert_present_budget;
       tc "Basic_dict.find_in, membership plan" `Quick test_basic_find_budget ])
  ]
