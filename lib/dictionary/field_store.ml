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
  { machine; disk_offset; block_offset; graph; field_bits; field_words;
    groups; seg_words; fields_per_row; blocks_per_disk }

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
    List.init t.groups (fun q ->
        { Pdm.disk = t.disk_offset + (stripe * t.groups) + q; block = row })
  in
  (addrs, base)

let addrs_of_field t y = fst (locate t y)

let addr_of_field t y =
  match addrs_of_field t y with
  | a :: _ -> a
  | [] -> invalid_arg "Field_store.addr_of_field: store has zero groups"

let addresses t key =
  List.concat
    (List.init (Bipartite.d t.graph) (fun i ->
         addrs_of_field t (Bipartite.neighbor t.graph key i)))

(* The field's words, gathered group by group. Occupancy is judged by
   the first word of the first segment. *)
let decode_field t segs base =
  match segs with
  | [] -> invalid_arg "Field_store: field with no segments"
  | first :: _ ->
    (match first.(base) with
     | None -> None
     | Some _ ->
       let words =
         Array.init t.field_words (fun w ->
             let q = w / t.seg_words and off = w mod t.seg_words in
             let seg =
               match List.nth_opt segs q with
               | Some s -> s
               | None -> invalid_arg "Field_store: missing segment"
             in
             match seg.(base + off) with
             | Some x -> x
             | None -> invalid_arg "Field_store: corrupt field")
       in
       Some (Codec.bytes_of_words words ~nbits:t.field_bits))

let segs_in t blocks y =
  let addrs, base = locate t y in
  let segs =
    List.map
      (fun a ->
        match Pdm.assoc_addr a blocks with
        | Some block -> block
        | None -> invalid_arg "Field_store.field_in: block not supplied")
      addrs
  in
  (segs, base)

let field_in t blocks y =
  let segs, base = segs_in t blocks y in
  decode_field t segs base

let read_fields t ys =
  let addrs = List.concat_map (addrs_of_field t) ys in
  let blocks = Pdm.read t.machine addrs in
  List.map (fun y -> (y, field_in t blocks y)) ys

(* pdm-lint: domain local — field codec mutates a per-call scratch copy of the block *)
let poke_field t segs base = function
  | None ->
    List.iteri
      (fun q block ->
        let seg_len =
          min t.seg_words (t.field_words - (q * t.seg_words))
        in
        for off = 0 to seg_len - 1 do
          block.(base + off) <- None
        done)
      segs
  | Some bytes ->
    let words = Codec.words_of_bits bytes ~nbits:t.field_bits in
    if Array.length words <> t.field_words then
      invalid_arg "Field_store: field content has wrong size";
    List.iteri
      (fun q block ->
        let seg_len =
          min t.seg_words (t.field_words - (q * t.seg_words))
        in
        for off = 0 to seg_len - 1 do
          block.(base + off) <- Some words.((q * t.seg_words) + off)
        done)
      segs

let prepare_updates t ~images updates =
  let touched = Hashtbl.create 8 in
  List.iter
    (fun (y, content) ->
      let addrs, base = locate t y in
      let segs =
        List.map
          (fun a ->
            match Pdm.assoc_addr a images with
            | Some block -> block
            | None ->
              invalid_arg "Field_store.prepare_updates: block not supplied")
          addrs
      in
      poke_field t segs base content;
      List.iter2 (fun a b -> Hashtbl.replace touched a b) addrs segs)
    updates;
  Hashtbl.fold (fun a b acc -> (a, b) :: acc) touched []

let write_fields_in t ~images updates =
  let blocks = prepare_updates t ~images updates in
  if blocks <> [] then Pdm.write t.machine blocks

let write_fields t updates =
  let addrs = List.concat_map (fun (y, _) -> addrs_of_field t y) updates in
  let images = Pdm.read t.machine addrs in
  write_fields_in t ~images updates

let bulk_write t fields =
  let seen = Hashtbl.create (List.length fields) in
  List.iter
    (fun (y, _) ->
      if Hashtbl.mem seen y then
        invalid_arg "Field_store.bulk_write: duplicate field";
      Hashtbl.add seen y ())
    fields;
  write_fields t (List.map (fun (y, b) -> (y, Some b)) fields)

let count_occupied t =
  let v = Bipartite.v t.graph in
  let occ = ref 0 in
  for y = 0 to v - 1 do
    let _, base = locate t y in
    let block = Pdm.peek t.machine (addr_of_field t y) in
    if block.(base) <> None then incr occ
  done;
  !occ
