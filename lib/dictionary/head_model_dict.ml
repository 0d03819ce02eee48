module Pdm = Pdm_sim.Pdm
module Bipartite = Pdm_expander.Bipartite
module Imath = Pdm_util.Imath

type t = {
  machine : int Pdm.t;
  graph : Bipartite.t;
  store : Bucket_store.t;   (* each neighbor a one-block bucket *)
}

exception Overflow = Bucket_store.Overflow

let create ~machine ~graph ~capacity ~value_bytes =
  if Pdm.model machine <> Pdm.Parallel_heads then
    invalid_arg "Head_model_dict.create: needs a Parallel_heads machine";
  let store =
    Bucket_store.create ~name:"Head_model_dict"
      ~block_words:(Pdm.block_size machine) ~value_bytes ~bucket_blocks:1
      ~buckets:(Bipartite.d graph) ~capacity ~tombstone:None
  in
  let v = Bipartite.v graph in
  if Imath.cdiv v (Pdm.disks machine) > Pdm.blocks_per_disk machine then
    invalid_arg "Head_model_dict.create: machine too small for v buckets";
  { machine; graph; store }

let config_capacity t = t.store.capacity
let size t = t.store.size

let rounds_per_lookup t =
  Imath.cdiv (Bipartite.d t.graph) (Pdm.disks t.machine)

(* Bucket j lives at disk j mod D, block j / D — no striping needed. *)
let addr_of t j =
  let disks = Pdm.disks t.machine in
  { Pdm.disk = j mod disks; block = j / disks }

let addresses t key = Array.map (addr_of t) (Bipartite.neighbors t.graph key)

(* Answer [j] of [Pdm.read] on [addresses t key] is neighbor [j]'s
   block; an unstriped graph may name one bucket twice, which
   [Pdm.read] (unlike [Pdm.read_views]) accepts. *)
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

let max_load t =
  let v = Bipartite.v t.graph in
  let worst = ref 0 in
  for j = 0 to v - 1 do
    let block = Pdm.peek t.machine (addr_of t j) in
    worst := max !worst (Codec.Slots.count block ~width:t.store.width)
  done;
  !worst
