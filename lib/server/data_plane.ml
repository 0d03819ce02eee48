module Pdm = Pdm_sim.Pdm
module Opd = Pdm_dictionary.One_probe_dynamic
module Engine = Pdm_engine.Engine
module Placement = Pdm_cluster.Placement
module Shard = Pdm_cluster.Shard
module Topology = Pdm_cluster.Topology

type config = {
  shards : int;
  universe : int;
  shard_capacity : int;
  block_words : int;
  value_bytes : int;
  degree : int;
  levels : int;
  replicas : int;
  spares : int;
  seed : int;
  max_batch : int;
}

let default_config =
  { shards = 2; universe = 1 lsl 20; shard_capacity = 256; block_words = 32;
    value_bytes = 8; degree = 5; levels = 2; replicas = 2; spares = 1;
    seed = 42; max_batch = 64 }

type t = { cfg : config; topo : Topology.t; shard_tbl : Shard.t array }

let make_shard cfg id =
  Shard.create ~replicas:cfg.replicas ~spares:cfg.spares
    ~universe:cfg.universe ~capacity:cfg.shard_capacity
    ~block_words:cfg.block_words ~value_bytes:cfg.value_bytes
    ~degree:cfg.degree ~levels:cfg.levels ~seed:cfg.seed ~batch:cfg.max_batch
    id

let create cfg =
  if cfg.shards < 1 then invalid_arg "Data_plane: shards must be >= 1";
  if cfg.replicas < 1 then invalid_arg "Data_plane: replicas must be >= 1";
  if cfg.shard_capacity < 8 then
    invalid_arg "Data_plane: shard_capacity must be >= 8";
  { cfg; topo = Topology.standard ~shards:cfg.shards;
    shard_tbl = Array.init cfg.shards (make_shard cfg) }

let config t = t.cfg
let shards t = t.cfg.shards

let shard_of_key t key = Placement.primary t.topo ~seed:t.cfg.seed key

let get_shard t id =
  if id < 0 || id >= Array.length t.shard_tbl then
    invalid_arg (Printf.sprintf "Data_plane: unknown shard %d" id);
  t.shard_tbl.(id)

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

let execute t ~shard ops =
  List.map (Result.map result_of_outcome)
    (Engine.run (get_shard t shard).engine (List.map request_of_op ops))

let kill_disk t ~shard ~disk =
  let sh = get_shard t shard in
  Pdm.kill_disk (Opd.machine sh.dict) disk

let scrub t ~shard =
  let sh = get_shard t shard in
  Pdm.scrub (Opd.machine sh.dict)

let shard_stats t =
  Array.to_list
    (Array.map
       (fun (sh : Shard.t) ->
         (let s = Engine.stats sh.engine in
          { Wire.shard = sh.id;
            rounds = Pdm.rounds_total (Opd.machine sh.dict);
            served = s.Engine.requests_served;
            fetched = s.Engine.blocks_fetched }))
       t.shard_tbl)

let blocks_fetched t =
  Array.fold_left
    (fun acc (sh : Shard.t) ->
      acc + (Engine.stats sh.engine).Engine.blocks_fetched)
    0 t.shard_tbl
