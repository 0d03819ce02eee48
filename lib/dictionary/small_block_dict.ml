module Pdm = Pdm_sim.Pdm
module Bipartite = Pdm_expander.Bipartite
module Seeded = Pdm_expander.Seeded
module Prng = Pdm_util.Prng
module Imath = Pdm_util.Imath

type config = {
  universe : int;
  capacity : int;
  degree : int;
  buckets_per_stripe : int;
  sub_blocks : int;
  value_bytes : int;
  seed : int;
}

type t = {
  cfg : config;
  machine : int Pdm.t;
  disk_offset : int;
  block_offset : int;
  graph : Bipartite.t;
  store : Bucket_store.t;   (* each candidate sub-block a one-block bucket *)
}

exception Overflow = Bucket_store.Overflow

(* Candidate sub-blocks per neighbor bucket. *)
let probes = 2

(* A sub-block's expected load is its slot count over this factor. *)
let avg_slack = 3.0

let blocks_per_disk cfg = cfg.buckets_per_stripe * cfg.sub_blocks

let plan ~universe ~capacity ~block_words ~degree ~value_bytes ~seed () =
  let slots = block_words / Codec.Record.width ~value_bytes in
  if slots < 1 then
    invalid_arg "Small_block_dict.plan: a record must fit a block";
  (* Total sub-blocks s so that avg_slack * n / (d * s) <= slots; use
     a few sub-blocks per bucket so the within-bucket choices exist. *)
  let total_needed =
    int_of_float (ceil (avg_slack *. float_of_int capacity /. float_of_int slots))
  in
  let sub_blocks = 2 * probes in
  let buckets_per_stripe =
    max 1 (Imath.cdiv total_needed (degree * sub_blocks))
  in
  { universe; capacity; degree; buckets_per_stripe; sub_blocks; value_bytes;
    seed }

let create ~machine ~disk_offset ~block_offset cfg =
  if cfg.degree < 2 then invalid_arg "Small_block_dict.create: degree";
  if disk_offset < 0 || disk_offset + cfg.degree > Pdm.disks machine then
    invalid_arg "Small_block_dict.create: disk range out of machine";
  if block_offset < 0
     || block_offset + blocks_per_disk cfg > Pdm.blocks_per_disk machine
  then invalid_arg "Small_block_dict.create: block range out of machine";
  let store =
    Bucket_store.create ~name:"Small_block_dict"
      ~block_words:(Pdm.block_size machine) ~value_bytes:cfg.value_bytes
      ~bucket_blocks:1 ~buckets:(cfg.degree * probes) ~capacity:cfg.capacity
      ~tombstone:None
  in
  let v = cfg.degree * cfg.buckets_per_stripe in
  let graph = Seeded.striped ~seed:cfg.seed ~u:cfg.universe ~v ~d:cfg.degree in
  { cfg; machine; disk_offset; block_offset; graph; store }

let config t = t.cfg
let size t = t.store.size
let slots_per_sub_block t = t.store.slots_per_block

(* Candidate sub-blocks of key x within neighbor bucket i, in
   ascending order (distinct whenever sub_blocks >= 3, as planned). *)
let sub_choices t key i =
  let m = t.cfg.sub_blocks in
  let first = Prng.hash3 ~seed:(t.cfg.seed + 7) key i 0 mod m in
  List.init probes (fun p -> (first + p * ((m / probes) + 1)) mod m)
  |> List.sort compare

let addr_of t ~stripe ~local ~sub =
  { Pdm.disk = t.disk_offset + stripe;
    block = t.block_offset + (local * t.cfg.sub_blocks) + sub }

let addresses t key =
  Array.of_list
    (List.concat_map
       (fun i ->
         let stripe, local = Bipartite.neighbor_in_stripe t.graph key i in
         List.map (fun sub -> addr_of t ~stripe ~local ~sub) (sub_choices t key i))
       (List.init t.cfg.degree Fun.id))

(* Answer [j] of [Pdm.read] on [addresses t key] is candidate [j]'s
   block. *)
let fetch t addrs = Pdm.read t.machine addrs

let find t key =
  Bucket_store.find_in t.store key (fetch t (addresses t key)) ~off:0

let mem t key = find t key <> None

let write t addrs (j, block) = Pdm.write t.machine [ (addrs.(j), block) ]

let insert t key value =
  let record = Bucket_store.record t.store key value in
  let addrs = addresses t key in
  write t addrs
    (Bucket_store.prepare_insert t.store record (fetch t addrs) ~off:0)

let delete t key =
  let addrs = addresses t key in
  match Bucket_store.prepare_delete t.store key (fetch t addrs) ~off:0 with
  | Some edit ->
    write t addrs edit;
    true
  | None -> false

let max_sub_block_load t =
  let worst = ref 0 in
  for stripe = 0 to t.cfg.degree - 1 do
    for local = 0 to t.cfg.buckets_per_stripe - 1 do
      for sub = 0 to t.cfg.sub_blocks - 1 do
        let block = Pdm.peek t.machine (addr_of t ~stripe ~local ~sub) in
        worst := max !worst (Codec.Slots.count block ~width:t.store.width)
      done
    done
  done;
  !worst
