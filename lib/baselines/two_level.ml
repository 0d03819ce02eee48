module Pdm = Pdm_sim.Pdm
module Striping = Pdm_sim.Striping
module Prng = Pdm_util.Prng
module Imath = Pdm_util.Imath
module Codec = Pdm_dictionary.Codec

type config = {
  universe : int;
  capacity : int;
  value_bytes : int;
  primary_slots : int;
  seed : int;
}

type t = {
  cfg : config;
  view : int Striping.t;
  secondary : Hash_table.t;
  width : int;
  slots_per_sb : int;
  marker : int;          (* sentinel key: a collision happened here *)
  mutable collided : int;
  mutable size : int;
}

let width_of cfg = Codec.Record.width ~value_bytes:cfg.value_bytes

(* Primary slots per expected key. *)
let slot_factor = 8

let plan ~universe ~capacity ~block_words ~disks ~value_bytes ~seed () =
  ignore block_words;
  ignore disks;
  { universe; capacity; value_bytes; primary_slots = slot_factor * capacity;
    seed }

let primary_superblocks cfg ~block_words ~disks =
  Imath.cdiv cfg.primary_slots (disks * block_words / width_of cfg)

let secondary_plan cfg ~block_words ~disks =
  (* The secondary must be able to absorb every key in the worst case
     (all colliding); [7]'s dictionary has the same property. *)
  Hash_table.plan ~universe:cfg.universe ~capacity:cfg.capacity ~block_words
    ~disks ~value_bytes:cfg.value_bytes ~seed:(cfg.seed + 7919) ()

let superblocks_needed cfg ~block_words ~disks =
  primary_superblocks cfg ~block_words ~disks
  + (secondary_plan cfg ~block_words ~disks).Hash_table.superblocks

let create ~machine cfg =
  let view = Striping.create machine in
  let block_words = Pdm.block_size machine and disks = Pdm.disks machine in
  let p = primary_superblocks cfg ~block_words ~disks in
  let sec_cfg = { (secondary_plan cfg ~block_words ~disks) with base = p } in
  if p + sec_cfg.Hash_table.superblocks > Striping.superblocks view then
    invalid_arg "Two_level.create: machine too small";
  let width = width_of cfg in
  let slots_per_sb = Striping.superblock_size view / width in
  if slots_per_sb < 1 then
    invalid_arg "Two_level.create: record exceeds superblock";
  { cfg; view; secondary = Hash_table.create ~machine sec_cfg; width;
    slots_per_sb; marker = cfg.universe; collided = 0; size = 0 }

let config t = t.cfg
let size t = t.size
let collided_slots t = t.collided

let slot_of t key =
  let p = Prng.hash_to_range ~seed:t.cfg.seed key 1 t.cfg.primary_slots in
  (p / t.slots_per_sb, p mod t.slots_per_sb)

let value_of t record = Codec.Record.value ~value_bytes:t.cfg.value_bytes record

let record_of t key value =
  Codec.Record.make ~who:"Two_level" ~value_bytes:t.cfg.value_bytes key value

let find t key =
  let sb, s = slot_of t key in
  let block = Striping.read t.view sb in
  match Codec.Slots.read block ~width:t.width s with
  | None -> None
  | Some record when record.(0) = key -> Some (value_of t record)
  | Some record when record.(0) = t.marker -> Hash_table.find t.secondary key
  | Some _ -> None (* someone else lives here and no collision occurred *)

let mem t key = find t key <> None

let insert t key value =
  if key < 0 || key >= t.cfg.universe then invalid_arg "Two_level: key range";
  let sb, s = slot_of t key in
  let block = Striping.read t.view sb in
  match Codec.Slots.read block ~width:t.width s with
  | None ->
    Codec.Slots.write block ~width:t.width s (Some (record_of t key value));
    Striping.write t.view sb block;
    t.size <- t.size + 1
  | Some record when record.(0) = key ->
    Codec.Slots.write block ~width:t.width s (Some (record_of t key value));
    Striping.write t.view sb block
  | Some record when record.(0) = t.marker ->
    let had = Hash_table.mem t.secondary key in
    Hash_table.insert t.secondary key value;
    if not had then t.size <- t.size + 1
  | Some record ->
    (* First collision at this slot: evict the resident, mark it, and
       send both keys to the secondary dictionary. *)
    let resident_key = record.(0) and resident_value = value_of t record in
    let marker_record = Array.make t.width 0 in
    marker_record.(0) <- t.marker;
    Codec.Slots.write block ~width:t.width s (Some marker_record);
    Striping.write t.view sb block;
    t.collided <- t.collided + 1;
    Hash_table.insert t.secondary resident_key resident_value;
    Hash_table.insert t.secondary key value;
    t.size <- t.size + 1

let delete t key =
  let sb, s = slot_of t key in
  let block = Striping.read t.view sb in
  match Codec.Slots.read block ~width:t.width s with
  | None -> false
  | Some record when record.(0) = key ->
    Codec.Slots.write block ~width:t.width s None;
    Striping.write t.view sb block;
    t.size <- t.size - 1;
    true
  | Some record when record.(0) = t.marker ->
    let hit = Hash_table.delete t.secondary key in
    if hit then t.size <- t.size - 1;
    hit
  | Some _ -> false
