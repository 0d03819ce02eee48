module Pdm = Pdm_sim.Pdm
module Stats = Pdm_sim.Stats
module Cache = Pdm_sim.Cache
module Basic = Pdm_dictionary.Basic_dict
module Btree = Pdm_baselines.Btree
module Zipf = Pdm_util.Zipf
module Sampling = Pdm_util.Sampling
module Prng = Pdm_util.Prng

type point = {
  cache_blocks : int;
  btree_io_per_lookup : float;
  dict_io_per_lookup : float;
  btree_hit_rate : float;
  dict_hit_rate : float;
}

type result = {
  points : point list;
  n : int;
  lookups : int;
  btree_height : int;
  total_blocks_btree : int;
  total_blocks_dict : int;
}

let disks = 8
let block_words = 32
let value_bytes = 8

let run ?(universe = 1 lsl 24) ?(n = 20_000) ?(lookups = 10_000) ?(zipf = 0.9)
    ?(seed = 77) ?(cache_sizes = [ 8; 64; 512; 4096 ]) () =
  let rng = Prng.create seed in
  let keys = Sampling.distinct rng ~universe ~count:n in
  let payload = Common.value_bytes_of value_bytes in
  (* Build both structures. *)
  let superblocks = max 64 (4 * n / block_words) in
  let bt_machine =
    Pdm.create ~disks ~block_size:block_words ~blocks_per_disk:superblocks ()
  in
  let bt =
    Btree.create ~machine:bt_machine
      { Btree.universe; value_bytes; cache_levels = 0; superblocks }
  in
  Array.iter (fun k -> Btree.insert bt k (payload k)) keys;
  let cfg =
    Basic.plan ~universe ~capacity:n ~block_words ~degree:disks ~value_bytes
      ~seed ()
  in
  let d_machine =
    Pdm.create ~disks ~block_size:block_words
      ~blocks_per_disk:(Basic.blocks_per_disk cfg) ()
  in
  let dict = Basic.create ~machine:d_machine ~disk_offset:0 ~block_offset:0 cfg in
  Basic.bulk_load dict (Array.map (fun k -> (k, payload k)) keys);
  (* A Zipf-skewed lookup trace (hot keys repeat: cache-friendly). *)
  let z = Zipf.create ~n ~s:zipf in
  let trace = Array.init lookups (fun _ -> keys.(Zipf.sample z rng)) in
  (* Replay address traces through LRU caches of varying size. *)
  let replay machine addrs_of cache_blocks =
    let cache = Cache.create machine ~capacity_blocks:cache_blocks in
    let before = Stats.snapshot (Pdm.stats machine) in
    Array.iter (fun k -> ignore (Cache.read cache (addrs_of k))) trace;
    let after = Stats.snapshot (Pdm.stats machine) in
    let ios =
      Stats.parallel_ios (Stats.diff ~after ~before)
    in
    let accesses = Cache.hits cache + Cache.misses cache in
    ( float_of_int ios /. float_of_int lookups,
      float_of_int (Cache.hits cache) /. float_of_int (max 1 accesses) )
  in
  let btree_addrs k =
    Array.of_list
      (List.concat_map
         (fun sbi -> List.init disks (fun i -> { Pdm.disk = i; block = sbi }))
         (Btree.path bt k))
  in
  let dict_addrs k = Basic.addresses dict k in
  let points =
    List.map
      (fun cache_blocks ->
        let btree_io_per_lookup, btree_hit_rate =
          replay bt_machine btree_addrs cache_blocks
        in
        let dict_io_per_lookup, dict_hit_rate =
          replay d_machine dict_addrs cache_blocks
        in
        { cache_blocks; btree_io_per_lookup; dict_io_per_lookup;
          btree_hit_rate; dict_hit_rate })
      cache_sizes
  in
  { points; n; lookups;
    btree_height = Btree.height bt;
    total_blocks_btree = Btree.nodes bt * disks;
    total_blocks_dict = disks * Basic.blocks_per_disk cfg }

let to_table r =
  Table.make
    ~title:
      (Printf.sprintf
         "Buffer caching — effective I/Os per lookup (n = %d, height %d \
          B-tree = %d blocks, dictionary = %d blocks)"
         r.n r.btree_height r.total_blocks_btree r.total_blocks_dict)
    ~header:
      [ "cache (blocks)"; "btree I/O"; "btree hit%"; "dict I/O"; "dict hit%" ]
    ~notes:
      [ "Zipf(0.9) lookups; the B-tree needs the cache to approach 1 I/O — \
         the dictionary starts there with none";
        "the dictionary's uniform spread means small caches cannot help it; \
         it also means it never needed them" ]
    (List.map
       (fun p ->
         [ Table.icell p.cache_blocks; Table.fcell p.btree_io_per_lookup;
           Printf.sprintf "%.0f%%" (100.0 *. p.btree_hit_rate);
           Table.fcell p.dict_io_per_lookup;
           Printf.sprintf "%.0f%%" (100.0 *. p.dict_hit_rate) ])
       r.points)
