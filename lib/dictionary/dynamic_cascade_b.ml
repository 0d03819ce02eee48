module Pdm = Pdm_sim.Pdm
module Seeded = Pdm_expander.Seeded
module Imath = Pdm_util.Imath

type config = {
  universe : int;
  capacity : int;
  degree : int;
  sigma_bits : int;
  epsilon : float;
  v_factor : int;
  seed : int;
}

type t = {
  cfg : config;
  machine : int Pdm.t;
  arrays : Field_store.t array;
  m : int;
  field_bits : int;
  id_bits : int;
  mutable next_id : int;
  mutable size : int;
}

exception Overflow of int

let frag_count cfg = Leveled.frag_count cfg.degree

let id_bits_of cfg = max 1 (Imath.ceil_log2 (max 2 (8 * cfg.capacity)))

let field_bits_of cfg =
  id_bits_of cfg + Imath.cdiv cfg.sigma_bits (frag_count cfg)

let create ~block_words cfg =
  if cfg.degree < 5 || 2 * frag_count cfg <= cfg.degree then
    invalid_arg "Dynamic_cascade_b: degree";
  if cfg.epsilon <= 0.0 then invalid_arg "Dynamic_cascade_b: epsilon";
  if cfg.v_factor < 2 then invalid_arg "Dynamic_cascade_b: v_factor";
  let d = cfg.degree in
  let field_bits = field_bits_of cfg in
  let field_words = Codec.words_for_bits field_bits in
  let fields_per_block = block_words / field_words in
  if fields_per_block < 1 then
    invalid_arg "Dynamic_cascade_b: field exceeds block";
  let sizes =
    Leveled.level_sizes ~ratio:(Leveled.shrink_ratio cfg.epsilon)
      ~levels:(Leveled.level_count ~epsilon:cfg.epsilon ~capacity:cfg.capacity)
      ~degree:d ~v_factor:cfg.v_factor ~capacity:cfg.capacity
  in
  let level_blocks =
    Array.map (fun v -> Imath.cdiv (v / d) fields_per_block) sizes
  in
  let machine =
    Pdm.create ~disks:d ~block_size:block_words
      ~blocks_per_disk:(Array.fold_left ( + ) 0 level_blocks) ()
  in
  let offset = ref 0 in
  let arrays =
    Array.mapi
      (fun i v ->
        let graph = Seeded.striped ~seed:(cfg.seed + i) ~u:cfg.universe ~v ~d in
        let fs =
          Field_store.create ~machine ~disk_offset:0 ~block_offset:!offset
            ~graph ~field_bits
        in
        offset := !offset + level_blocks.(i);
        fs)
      sizes
  in
  { cfg; machine; arrays; m = frag_count cfg; field_bits;
    id_bits = id_bits_of cfg; next_id = 0; size = 0 }

let config t = t.cfg
let machine t = t.machine
let levels t = Array.length t.arrays
let size t = t.size

(* The key's candidate fields at a level, read in place. *)
let view t level blocks key =
  Field_store.view t.arrays.(level - 1) blocks ~off:0 key

let read_level t level key =
  Pdm.read_views t.machine (Field_store.addresses t.arrays.(level - 1) key)

(* Read-modify-write of the key's fields at a level: 1 + 1 rounds. *)
let write_fields t level blocks key updates =
  match
    Field_store.prepare_updates t.arrays.(level - 1) key ~images:blocks ~off:0
      updates
  with
  | [] -> ()
  | touched -> Pdm.write t.machine touched

(* Probe levels in order; [f level blocks decoded] on the first level
   whose majority vote succeeds. *)
let probe t key ~found ~missing =
  let l = Array.length t.arrays in
  let rec go level =
    if level > l then missing ()
    else begin
      let blocks = read_level t level key in
      match
        Field_codec.decode_b ~field_bits:t.field_bits ~id_bits:t.id_bits
          ~sigma_bits:t.cfg.sigma_bits ~d:t.cfg.degree
          (view t level blocks key)
      with
      | Some (id, satellite) -> found level blocks id satellite
      | None -> go (level + 1)
    end
  in
  go 1

let find t key =
  probe t key
    ~found:(fun _ _ _ satellite -> Some satellite)
    ~missing:(fun () -> None)

let mem t key = find t key <> None

(* The stripes whose field carries [id] — the key's own fields at its
   level (expansion makes the majority unambiguous). *)
let stripes_of_id t level blocks key id =
  Field_codec.indices_b ~id_bits:t.id_bits ~d:t.cfg.degree ~id
    (view t level blocks key)

let write_encoding t level blocks key ~id ~stripes satellite =
  let enc =
    Field_codec.encode_b ~field_bits:t.field_bits ~id_bits:t.id_bits ~id
      ~satellite ~sigma_bits:t.cfg.sigma_bits ~indices:stripes
  in
  write_fields t level blocks key
    (List.map (fun (i, words) -> (i, Some words)) enc)

let insert t key satellite =
  if 8 * Bytes.length satellite < t.cfg.sigma_bits then
    invalid_arg "Dynamic_cascade_b.insert: satellite shorter than sigma_bits";
  probe t key
    ~found:(fun level blocks id _old ->
      (* Update in place on the key's own stripes. *)
      let stripes = stripes_of_id t level blocks key id in
      write_encoding t level blocks key ~id ~stripes satellite)
    ~missing:(fun () ->
      if t.size >= t.cfg.capacity then
        invalid_arg "Dynamic_cascade_b.insert: at capacity";
      if t.next_id >= 1 lsl t.id_bits then
        invalid_arg "Dynamic_cascade_b.insert: identifier space exhausted \
                     (rebuild the structure)";
      let l = Array.length t.arrays in
      let rec place level =
        if level > l then raise (Overflow key)
        else begin
          let blocks = read_level t level key in
          let v = view t level blocks key in
          let empties =
            List.filter
              (fun i -> not (Field_codec.occupied v i))
              (List.init t.cfg.degree (fun i -> i))
          in
          if List.length empties >= t.m then begin
            let stripes = List.filteri (fun i _ -> i < t.m) empties in
            let id = t.next_id in
            t.next_id <- id + 1;
            write_encoding t level blocks key ~id ~stripes satellite;
            t.size <- t.size + 1
          end
          else place (level + 1)
        end
      in
      place 1)

let delete t key =
  probe t key
    ~found:(fun level blocks id _ ->
      let stripes = stripes_of_id t level blocks key id in
      write_fields t level blocks key (List.map (fun i -> (i, None)) stripes);
      t.size <- t.size - 1;
      true)
    ~missing:(fun () -> false)
