module Pdm = Pdm_sim.Pdm
module Journal = Pdm_sim.Journal
module Seeded = Pdm_expander.Seeded
module Imath = Pdm_util.Imath

exception Overflow of int

let frag_count degree = 2 * degree / 3

let field_bits_of ~degree ~sigma_bits =
  Imath.cdiv sigma_bits (frag_count degree) + 4

let shrink_ratio epsilon = min 0.5 (0.95 /. (1.0 +. (1.0 /. epsilon)))

let level_count ~epsilon ~capacity =
  max 1
    (int_of_float
       (ceil
          (log (float_of_int (max 2 capacity)) /. log (1.0 /. shrink_ratio epsilon))))

let min_stripe = 16

let level_sizes ~ratio ~levels ~degree ~v_factor ~capacity =
  let v1 = float_of_int (v_factor * capacity * degree) in
  Array.init levels (fun i ->
      let v = v1 *. (ratio ** float_of_int i) in
      max (degree * min_stripe)
        (Imath.round_up_to ~multiple:degree (int_of_float v)))

let membership_value_bytes = 2

(* Worst update batch under the journal: the membership bucket plus
   one block per claimed field. *)
let journal_capacity ~degree ~block_words =
  Imath.cdiv ((1 + frag_count degree) * (block_words + 2)) block_words

type t = {
  name : string;
  machine : int Pdm.t;
  mutable membership : Basic_dict.t;
  membership_disk : int;
  arrays : Field_store.t array;
  capacity : int;
  degree : int;
  sigma_bits : int;
  field_bits : int;
  journal : Journal.t option;
  mutable crash : Journal.crash_point option;
  mutable size : int;
}

let create ~name ~stacked ~journaled ?replicas ?spares ?factory ~block_words
    ~universe ~capacity ~degree:d ~sigma_bits ~seed sizes =
  let field_bits = field_bits_of ~degree:d ~sigma_bits in
  let fields_per_block = block_words / Codec.words_for_bits field_bits in
  if fields_per_block < 1 then invalid_arg (name ^ ": field exceeds block");
  let level_blocks =
    Array.map (fun v -> Imath.cdiv (v / d) fields_per_block) sizes
  in
  let mem_cfg =
    Basic_dict.plan ~universe ~capacity ~block_words ~degree:d
      ~value_bytes:membership_value_bytes ~seed:(seed + 1000) ()
  in
  let data_blocks =
    max
      (if stacked then Array.fold_left ( + ) 0 level_blocks
       else Array.fold_left max 1 level_blocks)
      (Basic_dict.blocks_per_disk mem_cfg)
  in
  let disks = if stacked then 2 * d else (Array.length sizes + 1) * d in
  let jcap = journal_capacity ~degree:d ~block_words in
  let blocks_per_disk =
    if journaled then data_blocks + Journal.rows ~disks ~capacity_blocks:jcap
    else data_blocks
  in
  let machine =
    Pdm.create ?factory ?replicas ?spares ~disks ~block_size:block_words
      ~blocks_per_disk ()
  in
  let journal =
    if journaled then
      Some
        (Journal.create machine ~block_offset:data_blocks ~capacity_blocks:jcap)
    else None
  in
  let membership_disk = if stacked then d else 0 in
  let membership =
    Basic_dict.create ~machine ~disk_offset:membership_disk ~block_offset:0
      mem_cfg
  in
  let arrays =
    Array.mapi
      (fun i v ->
        let graph = Seeded.striped ~seed:(seed + i) ~u:universe ~v ~d in
        if stacked then
          Field_store.create ~machine ~disk_offset:0
            ~block_offset:(Array.fold_left ( + ) 0 (Array.sub level_blocks 0 i))
            ~graph ~field_bits
        else
          Field_store.create ~machine ~disk_offset:((i + 1) * d) ~block_offset:0
            ~graph ~field_bits)
      sizes
  in
  { name; machine; membership; membership_disk; arrays; capacity; degree = d;
    sigma_bits; field_bits; journal; crash = None; size = 0 }

(* pdm-lint: domain local — crash-injection toggle flipped only by the driving test harness *)
let set_crash t crash =
  if t.journal = None && crash <> None then
    invalid_arg (t.name ^ ".set_crash: dictionary is not journaled");
  t.crash <- crash

(* Every multi-block update flows through here: journaled
   dictionaries get the write-ahead protocol (and the injected crash
   point, if any), plain ones the direct combined write round. *)
let write_batch t blocks =
  match t.journal with
  | None -> Pdm.write t.machine blocks
  | Some j -> Journal.log_and_apply j ?crash:t.crash blocks

(* pdm-lint: domain local — dictionary bookkeeping mutated under the single-threaded engine loop *)
let recover t =
  match t.journal with
  | None -> `Clean
  | Some j ->
    t.crash <- None;
    let outcome =
      Journal.recover t.machine ~block_offset:(Journal.block_offset j)
        ~capacity_blocks:(Journal.capacity_blocks j)
    in
    (* In-memory counters may be torn even when the disk state is
       whole (a crash before the commit point still interrupted
       [prepare_insert]'s accounting): rebuild the membership handle
       from disk and trust it, whatever the journal said. *)
    t.membership <-
      Basic_dict.recover ~machine:t.machine ~disk_offset:t.membership_disk
        ~block_offset:0 (Basic_dict.config t.membership);
    t.size <- Basic_dict.size t.membership;
    outcome

let membership t key round =
  Option.map
    (fun v -> (Char.code (Bytes.get v 0), Char.code (Bytes.get v 1)))
    (Basic_dict.find_in t.membership key round ~off:0)

(* The key's candidate fields at a level, read in place. *)
let view t level blocks ~off key =
  Field_store.view t.arrays.(level - 1) blocks ~off key

let decode t key ~level ~head blocks ~off =
  Field_codec.decode_a ~field_bits:t.field_bits ~head ~sigma_bits:t.sigma_bits
    (view t level blocks ~off key)

(* The stripes holding the key's fields at its level. *)
let stripes t key ~level ~head blocks ~off =
  match
    Field_codec.indices_a ~field_bits:t.field_bits ~head
      (view t level blocks ~off key)
  with
  | Some stripes -> stripes
  | None -> invalid_arg (t.name ^ ": corrupt pointer chain")

(* The key's fields at a level set to the encoded satellite, as edited
   copies of the fetched blocks. *)
let written t key ~level blocks ~off ~stripes satellite =
  Field_store.prepare_updates t.arrays.(level - 1) key ~images:blocks ~off
    (List.map
       (fun (i, words) -> (i, Some words))
       (Field_codec.encode_a ~field_bits:t.field_bits ~indices:stripes
          ~satellite ~sigma_bits:t.sigma_bits))

(* pdm-lint: domain local — dictionary bookkeeping mutated under the single-threaded engine loop *)
let insert t key satellite round ~level_blocks =
  match membership t key round with
  | Some (level, head) ->
    (* Rewrite in place on the key's level. *)
    let blocks, off = level_blocks level in
    let stripes = stripes t key ~level ~head blocks ~off in
    write_batch t (written t key ~level blocks ~off ~stripes satellite)
  | None ->
    if t.size >= t.capacity then invalid_arg (t.name ^ ".insert: at capacity");
    (* First-fit over the levels. *)
    let rec place level =
      if level > Array.length t.arrays then raise (Overflow key)
      else begin
        let blocks, off = level_blocks level in
        let v = view t level blocks ~off key in
        let empties =
          List.filter
            (fun i -> not (Field_codec.occupied v i))
            (List.init t.degree Fun.id)
        in
        if List.length empties >= frag_count t.degree then begin
          let stripes = List.filteri (fun i _ -> i < frag_count t.degree) empties in
          let field_blocks = written t key ~level blocks ~off ~stripes satellite in
          let head =
            match stripes with
            | s :: _ -> s
            | [] -> invalid_arg (t.name ^ ": insert needs m >= 1 stripes")
          in
          (* the membership value: level byte, head-stripe byte *)
          let value = Bytes.make membership_value_bytes (Char.chr level) in
          Bytes.set value 1 (Char.chr head);
          let mem_block =
            Basic_dict.prepare_insert t.membership key value round ~off:0
          in
          (* One combined write round: the claimed fields and the
             membership bucket lie on disjoint disks. *)
          write_batch t (mem_block :: field_blocks);
          t.size <- t.size + 1
        end
        else place (level + 1)
      end
    in
    place 1

(* pdm-lint: domain local — dictionary bookkeeping mutated under the single-threaded engine loop *)
let delete t key round ~level_blocks =
  match membership t key round with
  | None -> false
  | Some (level, head) ->
    let blocks, off = level_blocks level in
    let stripes = stripes t key ~level ~head blocks ~off in
    let field_blocks =
      Field_store.prepare_updates t.arrays.(level - 1) key ~images:blocks ~off
        (List.map (fun i -> (i, None)) stripes)
    in
    (match Basic_dict.prepare_delete t.membership key round ~off:0 with
     | None ->
       (* pdm-lint: allow R3 — unreachable: this branch runs only when
          the membership lookup just found the key in these same block
          images, so [prepare_delete] must find it too. *)
       assert false
     | Some mem_block ->
       write_batch t (mem_block :: field_blocks);
       t.size <- t.size - 1;
       true)
