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
  probes : int;
  value_bytes : int;
  seed : int;
}

type t = {
  cfg : config;
  machine : int Pdm.t;
  disk_offset : int;
  block_offset : int;
  graph : Bipartite.t;
  width : int;
  slots : int;            (* record slots per sub-block *)
  mutable size : int;
}

exception Overflow of int

let width_of cfg = 1 + Codec.words_for_bits (8 * cfg.value_bytes)

let blocks_per_disk cfg = cfg.buckets_per_stripe * cfg.sub_blocks

let plan ?(avg_slack = 3.0) ?(probes = 2) ~universe ~capacity ~block_words
    ~degree ~value_bytes ~seed () =
  if probes < 1 then invalid_arg "Small_block_dict.plan: probes >= 1";
  let cfg0 =
    { universe; capacity; degree; buckets_per_stripe = 1; sub_blocks = 1;
      probes; value_bytes; seed }
  in
  let slots = block_words / width_of cfg0 in
  if slots < 1 then
    invalid_arg "Small_block_dict.plan: a record must fit a block";
  (* Total sub-blocks s so that avg_slack * n / (d * s) <= slots; use
     a few sub-blocks per bucket so the within-bucket choices exist. *)
  let total_needed =
    int_of_float (ceil (avg_slack *. float_of_int capacity /. float_of_int slots))
  in
  let sub_blocks = max (2 * probes) 4 in
  let buckets_per_stripe =
    max 1 (Imath.cdiv total_needed (degree * sub_blocks))
  in
  { cfg0 with buckets_per_stripe; sub_blocks }

let create ~machine ~disk_offset ~block_offset cfg =
  if cfg.degree < 2 then invalid_arg "Small_block_dict.create: degree";
  if disk_offset < 0 || disk_offset + cfg.degree > Pdm.disks machine then
    invalid_arg "Small_block_dict.create: disk range out of machine";
  if block_offset < 0
     || block_offset + blocks_per_disk cfg > Pdm.blocks_per_disk machine
  then invalid_arg "Small_block_dict.create: block range out of machine";
  let width = width_of cfg in
  let slots = Pdm.block_size machine / width in
  if slots < 1 then invalid_arg "Small_block_dict.create: record exceeds block";
  let v = cfg.degree * cfg.buckets_per_stripe in
  let graph = Seeded.striped ~seed:cfg.seed ~u:cfg.universe ~v ~d:cfg.degree in
  { cfg; machine; disk_offset; block_offset; graph; width; slots; size = 0 }

let config t = t.cfg
let size t = t.size
let slots_per_sub_block t = t.slots

(* Candidate sub-blocks of key x within neighbor bucket i (distinct
   probes when sub_blocks allows). *)
let sub_choices t key i =
  let m = t.cfg.sub_blocks in
  let first = Prng.hash3 ~seed:(t.cfg.seed + 7) key i 0 mod m in
  List.init t.cfg.probes (fun p -> (first + p * ((m / t.cfg.probes) + 1)) mod m)
  |> List.sort_uniq compare

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

let value_of t record =
  Codec.bytes_of_words_len
    (Array.sub record 1 (t.width - 1))
    ~len:t.cfg.value_bytes

let record_of t key value =
  if Bytes.length value > t.cfg.value_bytes then
    invalid_arg "Small_block_dict: value too large";
  let padded = Bytes.make t.cfg.value_bytes '\000' in
  Bytes.blit value 0 padded 0 (Bytes.length value);
  Array.append [| key |] (Codec.words_of_bytes padded)

(* Answer [i] of [Pdm.read] on [addresses t key] is candidate [i]'s
   block. *)
let find t key =
  let blocks = Pdm.read t.machine (addresses t key) in
  match Codec.Slots.find_key_in blocks ~width:t.width ~key with
  | Some (i, s) ->
    Option.map (value_of t) (Codec.Slots.read blocks.(i) ~width:t.width s)
  | None -> None

let mem t key = find t key <> None

(* Store [record] (or clear the slot) in slot [s] of candidate [i]. *)
let store t addrs blocks i s record =
  Codec.Slots.write blocks.(i) ~width:t.width s record;
  Pdm.write t.machine [ (addrs.(i), blocks.(i)) ]

let insert t key value =
  let record = record_of t key value in
  let addrs = addresses t key in
  let blocks = Pdm.read t.machine addrs in
  match Codec.Slots.find_key_in blocks ~width:t.width ~key with
  | Some (i, s) -> store t addrs blocks i s (Some record)
  | None ->
    if t.size >= t.cfg.capacity then
      invalid_arg "Small_block_dict.insert: at capacity";
    (* Greedy over every candidate sub-block. *)
    let i = Codec.Slots.least_loaded blocks ~width:t.width in
    (match Codec.Slots.first_free blocks.(i) ~width:t.width with
     | None -> raise (Overflow key)
     | Some s ->
       store t addrs blocks i s (Some record);
       t.size <- t.size + 1)

let delete t key =
  let addrs = addresses t key in
  let blocks = Pdm.read t.machine addrs in
  match Codec.Slots.find_key_in blocks ~width:t.width ~key with
  | Some (i, s) ->
    store t addrs blocks i s None;
    t.size <- t.size - 1;
    true
  | None -> false

let max_sub_block_load t =
  let worst = ref 0 in
  for stripe = 0 to t.cfg.degree - 1 do
    for local = 0 to t.cfg.buckets_per_stripe - 1 do
      for sub = 0 to t.cfg.sub_blocks - 1 do
        let block = Pdm.peek t.machine (addr_of t ~stripe ~local ~sub) in
        worst := max !worst (Codec.Slots.count block ~width:t.width)
      done
    done
  done;
  !worst
