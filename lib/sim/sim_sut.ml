module Pdm = Pdm_sim.Pdm
module Journal = Pdm_sim.Journal
module Fault = Pdm_sim.Fault
module Engine = Pdm_engine.Engine
module Plans = Pdm_engine.Plans
module Basic = Pdm_dictionary.Basic_dict
module Ops = Pdm_dictionary.One_probe_static
module Opd = Pdm_dictionary.One_probe_dynamic
module Cascade = Pdm_dictionary.Dynamic_cascade
module Checksum = Pdm_dictionary.Codec.Checksum
module Cluster = Pdm_cluster.Cluster
module Store = Pdm_io.Store
module Topology = Pdm_cluster.Topology
module Transport = Pdm_cluster.Transport

type t = {
  name : string;
  machine : int Pdm.t;
  find : int -> Bytes.t option;
  find_batch : (int list -> Bytes.t option list) option;
  insert : (int -> Bytes.t -> unit) option;
  delete : (int -> bool) option;
  set_crash : (Journal.crash_point option -> unit) option;
  recover : (unit -> [ `Clean | `Discarded | `Replayed of int ]) option;
  kill_shard : (int -> unit) option;
      (** Cluster adapters: fail-stop shard [i mod shard count]. The
          runner routes schedule [Kill] events here when present
          (shard-level fail-stop), to the machine otherwise. *)
  inject_net : (Transport.pin -> unit) option;
      (** Cluster adapters with a transport: pin a message fault at the
          next op. The runner routes [Net_*] schedule events here;
          schedules carrying them are invalid for other adapters. *)
}

(* The machine-storage factory a config implies: "mem" resolves to
   None inside the factory, so every construction site can thread it
   unconditionally. Non-mem kinds get a fresh scratch directory per
   machine (removed at process exit). *)
let storage_factory (cfg : Sim_config.t) =
  match Store.kind_of_string cfg.backend with
  | Ok kind -> Store.factory (Store.spec kind)
  | Error m -> invalid_arg ("Sim_sut: " ^ m)

let basic_degree = 6
let static_degree = 9

let fault_spec (cfg : Sim_config.t) =
  if cfg.transient <= 0.0 && cfg.straggle <= 1 then None
  else
    let transient =
      if cfg.transient > 0.0 then
        List.init basic_degree (fun d -> (d, cfg.transient))
      else []
    in
    let stragglers = if cfg.straggle > 1 then [ (1, cfg.straggle) ] else [] in
    Some (Fault.spec ~seed:cfg.seed ~max_retries:12 ~transient ~stragglers ())

(* Route every lookup through a batched engine in front of the probe
   plan. Updates stay on the direct per-key path (the engine's cache is
   write-invalidated by the machine's listener, so the two stay
   coherent); the runner interleaves them in program order. *)
let engine_wrap ~cache_blocks (dict : Engine.dict) base =
  let config = { Engine.max_batch = 16; deadline_rounds = 2; cache_blocks } in
  let eng = Engine.create ~config dict in
  let run keys =
    List.map
      (function Ok (o : Engine.outcome) -> o.Engine.value | Error e -> raise e)
      (Engine.run eng (List.map (fun k -> Engine.Lookup k) keys))
  in
  let find k =
    match run [ k ] with
    | [ v ] -> v
    | _ -> invalid_arg "Sim_sut: engine answer arity"
  in
  { base with find; find_batch = Some run }

let build_basic (cfg : Sim_config.t) =
  let bcfg =
    Basic.plan ~universe:cfg.universe ~capacity:cfg.capacity
      ~block_words:cfg.block_words ~degree:basic_degree
      ~value_bytes:cfg.value_bytes ~seed:cfg.seed ()
  in
  let machine =
    Pdm.create ?faults:(fault_spec cfg) ~factory:(storage_factory cfg)
      ?integrity:(if cfg.integrity then Some Checksum.integrity else None)
      ~replicas:cfg.replicas ~spares:cfg.spares ~disks:basic_degree
      ~block_size:cfg.block_words ~blocks_per_disk:(Basic.blocks_per_disk bcfg)
      ()
  in
  let d = Basic.create ~machine ~disk_offset:0 ~block_offset:0 bcfg in
  { name = ""; machine; find = Basic.find d; find_batch = None;
    insert = Some (Basic.insert d); delete = Some (Basic.delete d);
    set_crash = None; recover = None; kill_shard = None; inject_net = None }

let build_static (cfg : Sim_config.t) ~data =
  let scfg =
    { Ops.universe = cfg.universe; capacity = Array.length data;
      degree = static_degree; sigma_bits = 8 * cfg.value_bytes; v_factor = 3;
      case = Ops.Case_b; seed = cfg.seed }
  in
  let t =
    Ops.build ~replicas:cfg.replicas ~spares:cfg.spares
      ~factory:(storage_factory cfg) ~block_words:cfg.block_words scfg data
  in
  let base =
    { name = ""; machine = Ops.machine t; find = Ops.find t; find_batch = None;
      insert = None; delete = None; set_crash = None; recover = None;
      kill_shard = None; inject_net = None }
  in
  if not cfg.engine then base
  else
    engine_wrap ~cache_blocks:cfg.cache_blocks (Plans.one_probe_static t) base

let build_dynamic (cfg : Sim_config.t) =
  let dcfg =
    { Opd.universe = cfg.universe; capacity = cfg.capacity; degree = 6;
      sigma_bits = 8 * cfg.value_bytes; levels = 3; v_factor = 3;
      seed = cfg.seed }
  in
  let t =
    Opd.create ~journaled:cfg.journaled ~replicas:cfg.replicas
      ~spares:cfg.spares ~factory:(storage_factory cfg)
      ~block_words:cfg.block_words dcfg
  in
  let base =
    { name = ""; machine = Opd.machine t; find = Opd.find t; find_batch = None;
      insert = Some (Opd.insert t); delete = Some (Opd.delete t);
      set_crash = (if cfg.journaled then Some (Opd.set_crash t) else None);
      recover = (if cfg.journaled then Some (fun () -> Opd.recover t) else None);
      kill_shard = None; inject_net = None }
  in
  if not cfg.engine then base
  else
    engine_wrap ~cache_blocks:cfg.cache_blocks (Plans.one_probe_dynamic t) base

let build_cascade (cfg : Sim_config.t) =
  let ccfg =
    { Cascade.universe = cfg.universe; capacity = cfg.capacity; degree = 15;
      sigma_bits = 8 * cfg.value_bytes; epsilon = 1.0; v_factor = 3;
      seed = cfg.seed }
  in
  let t =
    Cascade.create ~journaled:cfg.journaled ~replicas:cfg.replicas
      ~spares:cfg.spares ~factory:(storage_factory cfg)
      ~block_words:cfg.block_words ccfg
  in
  let base =
    { name = ""; machine = Cascade.machine t; find = Cascade.find t;
      find_batch = None; insert = Some (Cascade.insert t);
      delete = Some (Cascade.delete t);
      set_crash = (if cfg.journaled then Some (Cascade.set_crash t) else None);
      recover =
        (if cfg.journaled then Some (fun () -> Cascade.recover t) else None);
      kill_shard = None; inject_net = None }
  in
  if not cfg.engine then base
  else
    engine_wrap ~cache_blocks:cfg.cache_blocks (Plans.cascade t) base

(* The sharded cluster: one journaled one-probe-dynamic dictionary +
   engine per shard behind deterministic rendezvous routing. The
   config's [replicas] is the cluster-level copies-per-key; shard
   machines are unreplicated. [migrate_at >= 0] arms a topology
   change: just before the stream's op #migrate_at the adapter runs a
   real add-shard migration (journaled, through the migration plan),
   so every differential schedule — including armed crash points on
   nearby client updates — brackets a live migration. *)
let build_cluster (cfg : Sim_config.t) =
  let topo = Topology.standard ~shards:cfg.shards in
  let net =
    if not cfg.net then None
    else
      (* a generous retry budget: with drop <= 0.2 the chance a read
         exhausts 6 attempts on its last candidate is negligible, so
         clean explorations stay divergence-free on any seed *)
      Some
        (Transport.spec ~seed:cfg.seed ~drop:cfg.net_drop
           ~duplicate:cfg.net_dup ~reorder_window:cfg.net_reorder
           ~max_attempts:6
           ~hedge_after:(if cfg.net_hedge then 1 else -1)
           ~drop_tokens:cfg.buggy ())
  in
  let ccfg =
    { Cluster.default_config with
      replicas = cfg.replicas;
      (* room for every key's r copies even if the balance is off 3x *)
      shard_capacity = max 24 (3 * cfg.replicas * cfg.capacity / cfg.shards);
      universe = cfg.universe; block_words = cfg.block_words;
      value_bytes = cfg.value_bytes; journaled = cfg.journaled;
      seed = cfg.seed; net }
  in
  let c = Cluster.create ~config:ccfg topo in
  let ops_seen = ref 0 in
  let migrated = ref false in
  let tick n =
    if (not !migrated) && cfg.migrate_at >= 0 && !ops_seen >= cfg.migrate_at
    then begin
      migrated := true;
      (* the shard that would come next in the standard layout *)
      ignore
        (Cluster.add_shard c
           { Topology.id = cfg.shards; weight = 1; host = cfg.shards;
             rack = cfg.shards / 2 })
    end;
    ops_seen := !ops_seen + n
  in
  { name = ""; machine = Cluster.shard_machine c 0;
    find = (fun k -> tick 1; Cluster.find c k);
    find_batch = Some (fun ks -> tick (List.length ks); Cluster.find_batch c ks);
    insert = Some (fun k v -> tick 1; Cluster.insert c k v);
    delete = Some (fun k -> tick 1; Cluster.delete c k);
    set_crash = (if cfg.journaled then Some (Cluster.set_crash c) else None);
    recover =
      (if cfg.journaled then Some (fun () -> Cluster.recover c) else None);
    kill_shard =
      Some
        (fun i ->
          let ids = Cluster.shard_ids c in
          match List.nth_opt ids (i mod List.length ids) with
          | Some id -> Cluster.kill_shard c id
          | None -> ());
    inject_net =
      (if cfg.net then Some (Cluster.inject_net c) else None) }

(* The deliberately buggy adapter: every third journaled update that is
   asked to survive a crash just past its commit point instead crashes
   just before it — i.e. the adapter drops the commit record. Invisible
   on crash-free runs; only systematic crash-schedule exploration sees
   the update vanish on recovery. *)
let seeded_bug sut =
  match sut.set_crash with
  | None -> invalid_arg "Sim_sut.seeded_bug: dictionary is not journaled"
  | Some set_crash ->
    let updates = ref 0 in
    let insert =
      Option.map (fun ins k v -> incr updates; ins k v) sut.insert
    in
    let delete = Option.map (fun del k -> incr updates; del k) sut.delete in
    let set_crash p =
      match p with
      | Some Journal.After_commit when (!updates + 1) mod 3 = 0 ->
        set_crash (Some Journal.After_log)
      | p -> set_crash p
    in
    { sut with insert; delete; set_crash = Some set_crash }

let build (cfg : Sim_config.t) ~data =
  (match Sim_config.validate cfg with
   | Ok () -> ()
   | Error m -> invalid_arg ("Sim_sut.build: " ^ m));
  let base =
    match cfg.sut with
    | Sim_config.Basic -> build_basic cfg
    | Sim_config.One_probe_static -> build_static cfg ~data
    | Sim_config.One_probe_dynamic -> build_dynamic cfg
    | Sim_config.Dynamic_cascade -> build_cascade cfg
    | Sim_config.Cluster -> build_cluster cfg
  in
  (* on a cluster with a transport, [buggy] is the token-dropping
     control wired directly into the transport spec — the journal
     commit-dropping wrapper is the non-net seeded bug *)
  let base =
    if cfg.buggy && not (cfg.sut = Sim_config.Cluster && cfg.net) then
      seeded_bug base
    else base
  in
  let base =
    if Sim_config.is_static cfg then base
    else
      (* dynamic structures start empty: load the static pre-population
         through the ordinary insert path *)
      (match base.insert with
       | None -> base
       | Some ins ->
         Array.iter (fun (k, v) -> ins k v) data;
         base)
  in
  { base with name = Sim_config.describe cfg }
