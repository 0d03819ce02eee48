module Pdm = Pdm_sim.Pdm
module Bipartite = Pdm_expander.Bipartite
module Imath = Pdm_util.Imath

type t = {
  machine : int Pdm.t;
  graph : Bipartite.t;
  capacity : int;
  value_bytes : int;
  width : int;
  slots : int;
  mutable size : int;
}

exception Overflow of int

let create ~machine ~graph ~capacity ~value_bytes =
  if Pdm.model machine <> Pdm.Parallel_heads then
    invalid_arg "Head_model_dict.create: needs a Parallel_heads machine";
  let width = 1 + Codec.words_for_bits (8 * value_bytes) in
  let slots = Pdm.block_size machine / width in
  if slots < 1 then invalid_arg "Head_model_dict.create: record exceeds block";
  let v = Bipartite.v graph in
  if Imath.cdiv v (Pdm.disks machine) > Pdm.blocks_per_disk machine then
    invalid_arg "Head_model_dict.create: machine too small for v buckets";
  { machine; graph; capacity; value_bytes; width; slots; size = 0 }

let config_capacity t = t.capacity
let size t = t.size

let rounds_per_lookup t =
  Imath.cdiv (Bipartite.d t.graph) (Pdm.disks t.machine)

(* Bucket j lives at disk j mod D, block j / D — no striping needed. *)
let addr_of t j =
  let disks = Pdm.disks t.machine in
  { Pdm.disk = j mod disks; block = j / disks }

let addresses t key = Array.map (addr_of t) (Bipartite.neighbors t.graph key)

let value_of t record =
  Codec.bytes_of_words_len
    (Array.sub record 1 (t.width - 1))
    ~len:t.value_bytes

let record_of t key value =
  if Bytes.length value > t.value_bytes then
    invalid_arg "Head_model_dict: value too large";
  let padded = Bytes.make t.value_bytes '\000' in
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
    if t.size >= t.capacity then
      invalid_arg "Head_model_dict.insert: at capacity";
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

let max_load t =
  let v = Bipartite.v t.graph in
  let worst = ref 0 in
  for j = 0 to v - 1 do
    let block = Pdm.peek t.machine (addr_of t j) in
    worst := max !worst (Codec.Slots.count block ~width:t.width)
  done;
  !worst
