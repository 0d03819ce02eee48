module Pdm = Pdm_sim.Pdm
module Engine = Pdm_engine.Engine
module Plans = Pdm_engine.Plans
module Basic = Pdm_dictionary.Basic_dict
module Fragmented = Pdm_dictionary.Fragmented
module Cascade = Pdm_dictionary.Dynamic_cascade
module Opd = Pdm_dictionary.One_probe_dynamic
module Ops = Pdm_dictionary.One_probe_static
module Rebuild = Pdm_dictionary.Global_rebuild
module Hash_table = Pdm_baselines.Hash_table
module Cuckoo = Pdm_baselines.Cuckoo
module Two_level = Pdm_baselines.Two_level
module Btree = Pdm_baselines.Btree

type t = {
  name : string;
  deterministic : bool;
  find : int -> Bytes.t option;
  insert : int -> Bytes.t -> unit;
  delete : (int -> bool) option;
  size : unit -> int;
  stats : Pdm_sim.Stats.t;
  value_bytes : int;
}

type scale = {
  universe : int;
  capacity : int;
  block_words : int;
  seed : int;
}

let default_scale =
  { universe = 1 lsl 22; capacity = 1000; block_words = 64; seed = 42 }

let value_bytes = 8

let basic ?(scale = default_scale) ?factory () =
  let cfg =
    Basic.plan ~universe:scale.universe ~capacity:scale.capacity
      ~block_words:scale.block_words ~degree:8 ~value_bytes ~seed:scale.seed ()
  in
  let machine =
    Pdm.create ?factory ~disks:8 ~block_size:scale.block_words
      ~blocks_per_disk:(Basic.blocks_per_disk cfg) ()
  in
  let d = Basic.create ~machine ~disk_offset:0 ~block_offset:0 cfg in
  { name = "basic (4.1)"; deterministic = true; find = Basic.find d;
    insert = Basic.insert d; delete = Some (Basic.delete d);
    size = (fun () -> Basic.size d); stats = Pdm.stats machine; value_bytes }

let small_block ?(scale = default_scale) () =
  let module Small = Pdm_dictionary.Small_block_dict in
  let cfg =
    Small.plan ~universe:scale.universe ~capacity:scale.capacity
      ~block_words:scale.block_words ~degree:8 ~value_bytes ~seed:scale.seed ()
  in
  let machine =
    Pdm.create ~disks:8 ~block_size:scale.block_words
      ~blocks_per_disk:(Small.blocks_per_disk cfg) ()
  in
  let d = Small.create ~machine ~disk_offset:0 ~block_offset:0 cfg in
  { name = "small-block (4.1)"; deterministic = true; find = Small.find d;
    insert = Small.insert d; delete = Some (Small.delete d);
    size = (fun () -> Small.size d); stats = Pdm.stats machine; value_bytes }

let cascade_b ?(scale = default_scale) () =
  let module Cb = Pdm_dictionary.Dynamic_cascade_b in
  let t =
    Cb.create ~block_words:scale.block_words
      { Cb.universe = scale.universe; capacity = scale.capacity; degree = 15;
        sigma_bits = 8 * value_bytes; epsilon = 1.0; v_factor = 3;
        seed = scale.seed }
  in
  { name = "cascade case (b)"; deterministic = true; find = Cb.find t;
    insert = Cb.insert t; delete = Some (Cb.delete t);
    size = (fun () -> Cb.size t); stats = Pdm.stats (Cb.machine t);
    value_bytes }

let parallel_instances ?(scale = default_scale) () =
  let module Par = Pdm_dictionary.Parallel_instances in
  let t =
    Par.create
      { Par.instances = 4; universe = scale.universe;
        capacity = scale.capacity; degree = 6; value_bytes;
        block_words = scale.block_words; seed = scale.seed }
  in
  { name = "parallel instances"; deterministic = true; find = Par.find t;
    insert = Par.insert t; delete = Some (Par.delete t);
    size = (fun () -> Par.size t); stats = Pdm.stats (Par.machine t);
    value_bytes }

let fragmented ?(scale = default_scale) ?factory () =
  let sigma_bits = 8 * value_bytes in
  let cfg =
    Fragmented.plan ~universe:scale.universe ~capacity:scale.capacity
      ~block_words:scale.block_words ~degree:8 ~sigma_bits ~seed:scale.seed ()
  in
  let machine =
    Pdm.create ?factory ~disks:8 ~block_size:scale.block_words
      ~blocks_per_disk:(Fragmented.blocks_per_disk cfg) ()
  in
  let d = Fragmented.create ~machine ~disk_offset:0 ~block_offset:0 cfg in
  { name = "fragmented (4.1 k=d/2)"; deterministic = true;
    find = Fragmented.find d; insert = Fragmented.insert d;
    delete = Some (Fragmented.delete d);
    size = (fun () -> Fragmented.size d); stats = Pdm.stats machine;
    value_bytes }

let cascade ?(scale = default_scale) ?factory () =
  let t =
    Cascade.create ?factory ~block_words:scale.block_words
      { Cascade.universe = scale.universe; capacity = scale.capacity;
        degree = 15; sigma_bits = 8 * value_bytes; epsilon = 1.0;
        v_factor = 3; seed = scale.seed }
  in
  { name = "cascade (4.3)"; deterministic = true; find = Cascade.find t;
    insert = Cascade.insert t; delete = Some (Cascade.delete t);
    size = (fun () -> Cascade.size t); stats = Pdm.stats (Cascade.machine t);
    value_bytes }

let one_probe_dynamic ?(scale = default_scale) ?factory () =
  let t =
    Opd.create ?factory ~block_words:scale.block_words
      { Opd.universe = scale.universe; capacity = scale.capacity; degree = 9;
        sigma_bits = 8 * value_bytes; levels = 8; v_factor = 3;
        seed = scale.seed }
  in
  { name = "one-probe dynamic (6)"; deterministic = true; find = Opd.find t;
    insert = Opd.insert t; delete = Some (Opd.delete t);
    size = (fun () -> Opd.size t); stats = Pdm.stats (Opd.machine t);
    value_bytes }

let global_rebuild ?(scale = default_scale) () =
  let t =
    Rebuild.create
      { Rebuild.universe = scale.universe; degree = 8; value_bytes;
        block_words = scale.block_words; initial_capacity = 64;
        max_capacity = 4 * scale.capacity; transfer_per_op = 4;
        seed = scale.seed }
  in
  { name = "global rebuild"; deterministic = true; find = Rebuild.find t;
    insert = Rebuild.insert t; delete = Some (Rebuild.delete t);
    size = (fun () -> Rebuild.size t); stats = Pdm.stats (Rebuild.machine t);
    value_bytes }

let hash_table ?(scale = default_scale) ?(utilization = 0.5)
    ?(value_bytes = value_bytes) ?factory () =
  let cfg =
    Hash_table.plan ~utilization ~universe:scale.universe
      ~capacity:scale.capacity ~block_words:scale.block_words ~disks:8
      ~value_bytes ~seed:scale.seed ()
  in
  let machine =
    Pdm.create ?factory ~disks:8 ~block_size:scale.block_words
      ~blocks_per_disk:cfg.Hash_table.superblocks ()
  in
  let h = Hash_table.create ~machine cfg in
  { name = "hash table"; deterministic = false; find = Hash_table.find h;
    insert = Hash_table.insert h; delete = Some (Hash_table.delete h);
    size = (fun () -> Hash_table.size h); stats = Pdm.stats machine;
    value_bytes }

let cuckoo ?(scale = default_scale) ?(utilization = 0.4)
    ?(value_bytes = value_bytes) ?factory () =
  let cfg =
    Cuckoo.plan ~utilization ~universe:scale.universe
      ~capacity:scale.capacity ~block_words:scale.block_words ~disks:8
      ~value_bytes ~seed:scale.seed ()
  in
  let machine =
    Pdm.create ?factory ~disks:8 ~block_size:scale.block_words
      ~blocks_per_disk:cfg.Cuckoo.buckets ()
  in
  let c = Cuckoo.create ~machine cfg in
  { name = "cuckoo"; deterministic = false; find = Cuckoo.find c;
    insert = Cuckoo.insert c; delete = Some (Cuckoo.delete c);
    size = (fun () -> Cuckoo.size c); stats = Pdm.stats machine; value_bytes }

let two_level ?(scale = default_scale) () =
  let cfg =
    Two_level.plan ~universe:scale.universe ~capacity:scale.capacity
      ~block_words:scale.block_words ~disks:8 ~value_bytes ~seed:scale.seed ()
  in
  let machine =
    Pdm.create ~disks:8 ~block_size:scale.block_words
      ~blocks_per_disk:
        (Two_level.superblocks_needed cfg ~block_words:scale.block_words
           ~disks:8)
      ()
  in
  let d = Two_level.create ~machine cfg in
  { name = "two-level trick"; deterministic = false; find = Two_level.find d;
    insert = Two_level.insert d; delete = Some (Two_level.delete d);
    size = (fun () -> Two_level.size d); stats = Pdm.stats machine;
    value_bytes }

let btree ?(scale = default_scale) ?factory () =
  let superblocks = max 64 (8 * scale.capacity / scale.block_words) in
  let machine =
    Pdm.create ?factory ~disks:8 ~block_size:scale.block_words
      ~blocks_per_disk:superblocks ()
  in
  let t =
    Btree.create ~machine
      { Btree.universe = scale.universe; value_bytes; cache_levels = 0;
        superblocks }
  in
  { name = "b-tree"; deterministic = true; find = Btree.find t;
    insert = Btree.insert t; delete = Some (Btree.delete t);
    size = (fun () -> Btree.size t); stats = Pdm.stats machine; value_bytes }

(* --- engine adapters: probe-plan dictionaries for the batched query
   engine. [Plans] gives the plan/decode split; [direct_find] is the
   unchanged per-key path, kept alongside so experiments can verify the
   engine returns identical answers. --- *)

type engine_adapter = {
  engine_dict : Engine.dict;
  direct_find : int -> Bytes.t option;
}

let engine_one_probe_static ?(scale = default_scale) ?(replicas = 1)
    ?(spares = 0) ?(degree = 16) ?factory ~data () =
  let cfg =
    { Ops.universe = scale.universe; capacity = Array.length data; degree;
      sigma_bits = 8 * value_bytes; v_factor = 3; case = Ops.Case_b;
      seed = scale.seed }
  in
  let t =
    Ops.build ?factory ~replicas ~spares ~block_words:scale.block_words cfg
      data
  in
  { engine_dict = Plans.one_probe_static t; direct_find = Ops.find t }

let engine_one_probe_dynamic ?(scale = default_scale) ?(replicas = 1)
    ?(spares = 0) ?factory () =
  let t =
    Opd.create ?factory ~replicas ~spares ~block_words:scale.block_words
      { Opd.universe = scale.universe; capacity = scale.capacity; degree = 9;
        sigma_bits = 8 * value_bytes; levels = 8; v_factor = 3;
        seed = scale.seed }
  in
  { engine_dict = Plans.one_probe_dynamic t; direct_find = Opd.find t }

let engine_cascade ?(scale = default_scale) ?(replicas = 1) ?(spares = 0)
    ?factory () =
  let t =
    Cascade.create ?factory ~replicas ~spares ~block_words:scale.block_words
      { Cascade.universe = scale.universe; capacity = scale.capacity;
        degree = 15; sigma_bits = 8 * value_bytes; epsilon = 1.0;
        v_factor = 3; seed = scale.seed }
  in
  { engine_dict = Plans.cascade t; direct_find = Cascade.find t }

let all ?(scale = default_scale) () =
  [ basic ~scale (); small_block ~scale (); fragmented ~scale ();
    cascade ~scale (); cascade_b ~scale (); one_probe_dynamic ~scale ();
    parallel_instances ~scale (); global_rebuild ~scale ();
    hash_table ~scale (); cuckoo ~scale (); two_level ~scale ();
    btree ~scale () ]
