module Pdm = Pdm_sim.Pdm
module Bipartite = Pdm_expander.Bipartite
module Imath = Pdm_util.Imath

(* A field of more than one block's worth of bits is spread over
   [groups] disks (the paper: "If the size of the satellite data is too
   large, more disks are needed to transfer the data in one probe...
   the number of disks should be a multiple of d"). Stripe i then owns
   disks [disk_offset + i·groups, disk_offset + (i+1)·groups): every
   field still loads in one parallel round. *)
type t = {
  machine : int Pdm.t;
  disk_offset : int;
  block_offset : int;
  graph : Bipartite.t;
  field_bits : int;
  field_words : int;
  groups : int;            (* blocks (= disks) per field *)
  seg_words : int;         (* words of a field stored per group block *)
  tail_mask : int;         (* the field's bits in its last word *)
  fields_per_row : int;    (* fields sharing one block row *)
  blocks_per_disk : int;
}

let plan_groups ~block_words ~field_bits =
  Imath.cdiv (Codec.words_for_bits field_bits) block_words

let create ~machine ~disk_offset ~block_offset ~graph ~field_bits =
  if not (Bipartite.is_striped graph) then
    invalid_arg "Field_store.create: graph must be striped";
  if field_bits < 1 then invalid_arg "Field_store.create: field_bits";
  let field_words = Codec.words_for_bits field_bits in
  let block_words = Pdm.block_size machine in
  let groups = Imath.cdiv field_words block_words in
  let seg_words = Imath.cdiv field_words groups in
  let fields_per_row = block_words / seg_words in
  assert (fields_per_row >= 1);
  let d = Bipartite.d graph in
  if disk_offset < 0 || disk_offset + (d * groups) > Pdm.disks machine then
    invalid_arg "Field_store.create: disk range out of machine";
  let stripe_width = Bipartite.stripe_width graph in
  let blocks_per_disk = Imath.cdiv stripe_width fields_per_row in
  if block_offset < 0
     || block_offset + blocks_per_disk > Pdm.blocks_per_disk machine
  then invalid_arg "Field_store.create: block range out of machine";
  let tail = field_bits - (Codec.bits_per_word * (field_words - 1)) in
  let tail_mask = ((1 lsl tail) - 1) lsl (Codec.bits_per_word - tail) in
  { machine; disk_offset; block_offset; graph; field_bits; field_words;
    groups; seg_words; tail_mask; fields_per_row; blocks_per_disk }

let graph t = t.graph
let field_bits t = t.field_bits
let field_words t = t.field_words
let fields_per_block t = t.fields_per_row
let groups t = t.groups
let disk_span t = Bipartite.d t.graph * t.groups
let blocks_per_disk t = t.blocks_per_disk
let total_bits t = Bipartite.v t.graph * t.field_bits

(* Global field index -> (per-group addresses, word base within each
   block). *)
let locate t y =
  let stripe, j = Bipartite.stripe_of t.graph y in
  let row = t.block_offset + (j / t.fields_per_row) in
  let base = j mod t.fields_per_row * t.seg_words in
  let addrs =
    Array.init t.groups (fun q ->
        { Pdm.disk = t.disk_offset + (stripe * t.groups) + q; block = row })
  in
  (addrs, base)

let plan_blocks t = Bipartite.d t.graph * t.groups

(* Neighbor i of a key lies in stripe i, at [neighbor - i·width], so
   its group blocks sit on disks [disk_offset + i·groups, …+groups),
   all in the field's row. *)
(* pdm-lint: domain local — fills the caller's own plan array *)
let fill_addresses t key dst ~off =
  let w = Bipartite.stripe_width t.graph in
  for i = 0 to Bipartite.d t.graph - 1 do
    let row =
      t.block_offset
      + ((Bipartite.neighbor t.graph key i - (i * w)) / t.fields_per_row)
    in
    for q = 0 to t.groups - 1 do
      let at = (i * t.groups) + q in
      dst.(off + at) <- { Pdm.disk = t.disk_offset + at; block = row }
    done
  done

let addresses t key =
  let dst = Array.make (plan_blocks t) { Pdm.disk = 0; block = 0 } in
  fill_addresses t key dst ~off:0;
  dst

(* The word base of neighbor [i]'s field within its blocks: the
   neighbor lies in stripe [i], at [neighbor - i × stripe width]. *)
let neighbor_base t key i =
  (Bipartite.neighbor t.graph key i - (i * Bipartite.stripe_width t.graph))
  mod t.fields_per_row * t.seg_words

let view t blocks ~off key =
  { Field_codec.cells = blocks; off; groups = t.groups;
    seg_words = t.seg_words; base = neighbor_base t key }

(* The group blocks of fields [ys] in one positional read: group block
   [q] of the [k]-th field answers position [k × groups + q]. *)
let read_groups t ys =
  Pdm.read t.machine (Array.concat (List.map (fun y -> fst (locate t y)) ys))

let read_fields t ys =
  let bases = Array.of_list (List.map (fun y -> snd (locate t y)) ys) in
  let v =
    { Field_codec.cells = read_groups t ys; off = 0; groups = t.groups;
      seg_words = t.seg_words; base = Array.get bases }
  in
  List.mapi (fun k y -> (y, Field_codec.field ~field_bits:t.field_bits v k)) ys

(* Bits past [field_bits] are stored as zero, as the codec reads them. *)
(* pdm-lint: domain local — field codec mutates a per-call scratch copy of the block *)
let poke_field t segs base content =
  (match content with
   | Some words when Array.length words <> t.field_words ->
     invalid_arg "Field_store: field content has wrong size"
   | Some _ | None -> ());
  let last = t.field_words - 1 in
  for w = 0 to last do
    segs.(w / t.seg_words).(base + (w mod t.seg_words)) <-
      (match content with
       | None -> None
       | Some words ->
         Some (words.(w) land if w = last then t.tail_mask else 0xffff_ffff))
  done

(* Write field [y] into the touched blocks, copying group block [q]'s
   fetched image ([fetched q]) the first time the block is touched;
   the touched table keeps the blocks in first-touch order. *)
(* pdm-lint: domain local — per-call table of scratch block copies *)
let stage t touched ~fetched y content =
  let addrs, base = locate t y in
  let segs =
    Array.mapi
      (fun q a ->
        match Hashtbl.find_opt touched a with
        | Some block -> block
        | None ->
          let block = Array.copy (fetched q) in
          Hashtbl.replace touched a block;
          block)
      addrs
  in
  poke_field t segs base content

let touched_blocks touched = Hashtbl.fold (fun a b acc -> (a, b) :: acc) touched []

let prepare_updates t key ~images ~off updates =
  let touched = Hashtbl.create 8 in
  List.iter
    (fun (i, content) ->
      stage t touched
        ~fetched:(fun q -> images.(off + (i * t.groups) + q))
        (Bipartite.neighbor t.graph key i)
        content)
    updates;
  touched_blocks touched

let write_fields t updates =
  let blocks = read_groups t (List.map fst updates) in
  let touched = Hashtbl.create 8 in
  List.iteri
    (fun k (y, content) ->
      stage t touched ~fetched:(fun q -> blocks.((k * t.groups) + q)) y content)
    updates;
  match touched_blocks touched with
  | [] -> ()
  | blocks -> Pdm.write t.machine blocks

let bulk_write t fields =
  let seen = Hashtbl.create (List.length fields) in
  List.iter
    (fun (y, _) ->
      if Hashtbl.mem seen y then
        invalid_arg "Field_store.bulk_write: duplicate field";
      Hashtbl.add seen y ())
    fields;
  write_fields t (List.map (fun (y, words) -> (y, Some words)) fields)

let count_occupied t =
  let v = Bipartite.v t.graph in
  let occ = ref 0 in
  for y = 0 to v - 1 do
    let addrs, base = locate t y in
    let block = Pdm.peek t.machine addrs.(0) in
    if block.(base) <> None then incr occ
  done;
  !occ
