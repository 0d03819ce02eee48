module Pdm = Pdm_sim.Pdm
module Stats = Pdm_sim.Stats
module Striping = Pdm_sim.Striping
module Bipartite = Pdm_expander.Bipartite
module Seeded = Pdm_expander.Seeded
module Extsort = Pdm_extsort.Extsort
module Imath = Pdm_util.Imath

type case = Case_a | Case_b

type config = {
  universe : int;
  capacity : int;
  degree : int;
  sigma_bits : int;
  v_factor : int;
  case : case;
  seed : int;
}

type report = {
  peel_rounds : int;
  construction_ios : int;
  sort_nd_ios : int;
  internal_memory_peak : int;
  field_bits : int;
  space_bits : int;
  disks : int;
}

type t = {
  cfg : config;
  machine : int Pdm.t;
  fields : Field_store.t;
  membership : Basic_dict.t option;  (* Case_a only *)
  id_bits : int;                      (* Case_b only *)
  mutable rep : report;
}

exception Construction_failure of int

let frag_count cfg = 2 * cfg.degree / 3

let id_bits_of cfg = max 1 (Imath.ceil_log2 (max 2 cfg.capacity))

let field_bits_of cfg =
  let m = frag_count cfg in
  match cfg.case with
  | Case_b -> id_bits_of cfg + Imath.cdiv cfg.sigma_bits m
  | Case_a -> Imath.cdiv cfg.sigma_bits m + 4

let validate cfg =
  if cfg.degree < 5 then
    invalid_arg "One_probe_static: degree must be >= 5 for a strict majority";
  if 2 * frag_count cfg <= cfg.degree then
    invalid_arg "One_probe_static: 2 * (2d/3) must exceed d";
  if cfg.v_factor < 1 then invalid_arg "One_probe_static: v_factor >= 1";
  if cfg.sigma_bits < 1 then invalid_arg "One_probe_static: sigma_bits >= 1";
  if cfg.capacity < 1 then invalid_arg "One_probe_static: capacity >= 1";
  if cfg.case = Case_a && cfg.degree > 255 then
    invalid_arg "One_probe_static: head pointer is stored in one byte"

(* --- construction-time external sorting of pair streams ----------- *)

(* The peeling procedure materialises (neighbor, key) and (key,
   neighbor) pair arrays on a scratch machine and sorts them there, so
   that the construction's I/O complexity is measured, not assumed.
   The scratch machine mirrors the main machine's geometry. *)
type scratch = {
  sorter : (int * int) Extsort.t;
  s_machine : (int * int) Pdm.t;
  half : int;  (* superblock index where the ping-pong region starts *)
}

let make_scratch ~disks ~block_words ~pairs =
  let sb = disks * block_words in
  let region = max 1 (Imath.cdiv pairs sb) in
  let s_machine =
    Pdm.create ~disks ~block_size:block_words ~blocks_per_disk:(2 * region) ()
  in
  let view = Striping.create s_machine in
  let memory_items = max (2 * sb) (8 * sb) in
  { sorter = Extsort.create view ~compare ~memory_items;
    s_machine; half = region }

let scratch_sort scratch arr =
  let n = Array.length arr in
  if n = 0 then [||]
  else begin
    Extsort.write_region scratch.sorter ~region:0 arr;
    let where =
      Extsort.sort scratch.sorter ~src_region:0 ~scratch_region:scratch.half
        ~items:n
    in
    let region = if where = `Src then 0 else scratch.half in
    Extsort.read_region scratch.sorter ~region ~count:n
  end

let scratch_ios scratch =
  Stats.parallel_ios (Stats.snapshot (Pdm.stats scratch.s_machine))

(* --- assignment by unique-neighbor peeling ------------------------ *)

(* One peeling round: given the remaining keys, return
   (assigned : (key, global field indices in stripe order) list,
    remaining keys). All sorting happens on the scratch machine. *)
let peel_round scratch graph m keys =
  (* (y, x) pairs, sorted by neighbor. *)
  let d = Bipartite.d graph in
  let pairs =
    Array.concat
      (List.map
         (fun x -> Array.init d (fun i -> (Bipartite.neighbor graph x i, x)))
         (Array.to_list keys))
  in
  let by_y = scratch_sort scratch pairs in
  (* Keep y that appear exactly once: unique neighbor fields. *)
  let uniq = ref [] in
  let n = Array.length by_y in
  let i = ref 0 in
  while !i < n do
    let y, x = by_y.(!i) in
    let j = ref (!i + 1) in
    while !j < n && fst by_y.(!j) = y do incr j done;
    if !j = !i + 1 then uniq := (x, y) :: !uniq;
    i := !j
  done;
  (* Group by key; a key with >= m unique fields is assigned its first
     m of them (ascending y = ascending stripe). *)
  let by_x = scratch_sort scratch (Array.of_list !uniq) in
  let assigned = ref [] and remaining = ref [] in
  let n = Array.length by_x in
  let i = ref 0 in
  let seen = Hashtbl.create (Array.length keys) in
  while !i < n do
    let x, _ = by_x.(!i) in
    let j = ref !i in
    while !j < n && fst by_x.(!j) = x do incr j done;
    Hashtbl.add seen x ();
    if !j - !i >= m then begin
      let fields = List.init m (fun k -> snd by_x.(!i + k)) in
      assigned := (x, fields) :: !assigned
    end
    else remaining := x :: !remaining;
    i := !j
  done;
  (* Keys with no unique neighbor at all never reached by_x. *)
  Array.iter
    (fun x -> if not (Hashtbl.mem seen x) then remaining := x :: !remaining)
    keys;
  (List.rev !assigned, Array.of_list (List.rev !remaining))

(* The paper's first construction: per round, one counted scan of the
   remaining records, then in-memory unique-neighbor resolution
   (Θ(|S_r|·d) words of internal memory — the trade against the
   sorting version). *)
let peel_round_direct ~memory scratch graph m keys =
  (* Counted pass over the round's records. *)
  let pass = Array.map (fun x -> (x, 0)) keys in
  Extsort.write_region scratch.sorter ~region:0 pass;
  ignore (Extsort.read_region scratch.sorter ~region:0 ~count:(Array.length pass));
  (* The in-memory unique-neighbor table: ~2 words per edge. *)
  let d = Bipartite.d graph in
  let table_words = 2 * d * Array.length keys in
  Pdm_sim.Internal_memory.alloc memory ~words:table_words;
  let phi = Pdm_expander.Expansion.unique_neighbors graph keys in
  let assigned = ref [] and remaining = ref [] in
  Array.iter
    (fun x ->
      let owned = ref [] in
      for i = d - 1 downto 0 do
        let y = Bipartite.neighbor graph x i in
        match Hashtbl.find_opt phi y with
        | Some x0 when x0 = x -> owned := y :: !owned
        | Some _ | None -> ()
      done;
      if List.length !owned >= m then
        assigned := (x, List.filteri (fun i _ -> i < m) !owned) :: !assigned
      else remaining := x :: !remaining)
    keys;
  Pdm_sim.Internal_memory.free memory ~words:table_words;
  (List.rev !assigned, Array.of_list (List.rev !remaining))

let assign ~construction ~memory scratch graph m keys =
  (match construction with
   | `Sorting ->
     (* The streaming construction holds only the sorter's buffers. *)
     Pdm_sim.Internal_memory.alloc memory
       ~words:(2 * Extsort.superblock_size scratch.sorter * 10);
     Pdm_sim.Internal_memory.free memory
       ~words:(2 * Extsort.superblock_size scratch.sorter * 10)
   | `Direct -> ());
  let round =
    match construction with
    | `Sorting -> peel_round scratch graph m
    | `Direct -> peel_round_direct ~memory scratch graph m
  in
  let rec rounds keys acc depth =
    if Array.length keys = 0 then (acc, depth)
    else begin
      let assigned, remaining = round keys in
      if assigned = [] then raise (Construction_failure (Array.length keys));
      (* The recursion ignores earlier assignments: Γ(S_r+1) does not
         meet the fields already claimed (they were unique to S'_r). *)
      rounds remaining (acc @ assigned) (depth + 1)
    end
  in
  rounds keys [] 0

(* --- building the stores ------------------------------------------ *)

let membership_value_bytes = 1 (* head pointer: stripe index < d <= 255 *)

let build ?(construction = `Sorting) ?(replicas = 1) ?(spares = 0) ?factory
    ~block_words cfg data =
  validate cfg;
  let n = Array.length data in
  if n > cfg.capacity then invalid_arg "One_probe_static.build: too many keys";
  let d = cfg.degree in
  let m = frag_count cfg in
  let field_bits = field_bits_of cfg in
  let v = Imath.round_up_to ~multiple:d (cfg.v_factor * cfg.capacity * d) in
  let graph = Seeded.striped ~seed:cfg.seed ~u:cfg.universe ~v ~d in
  (* Machine geometry. Fields larger than a block spread over
     [groups] disk groups (the paper: disks a multiple of d). *)
  let field_words = Codec.words_for_bits field_bits in
  let groups = Field_store.plan_groups ~block_words ~field_bits in
  let span = d * groups in
  let seg_words = Imath.cdiv field_words groups in
  let fields_per_row = block_words / seg_words in
  let field_blocks = Imath.cdiv (v / d) fields_per_row in
  let disks, mem_cfg =
    match cfg.case with
    | Case_b -> (span, None)
    | Case_a ->
      let mc =
        Basic_dict.plan ~universe:cfg.universe ~capacity:cfg.capacity
          ~block_words ~degree:d ~value_bytes:membership_value_bytes
          ~seed:(cfg.seed + 1) ()
      in
      (span + d, Some mc)
  in
  let blocks_per_disk =
    match mem_cfg with
    | None -> field_blocks
    | Some mc -> max field_blocks (Basic_dict.blocks_per_disk mc)
  in
  let machine =
    Pdm.create ?factory ~replicas ~spares ~disks ~block_size:block_words
      ~blocks_per_disk ()
  in
  let fields =
    Field_store.create ~machine ~disk_offset:0 ~block_offset:0 ~graph
      ~field_bits
  in
  let membership =
    Option.map
      (fun mc ->
        Basic_dict.create ~machine ~disk_offset:span ~block_offset:0 mc)
      mem_cfg
  in
  (* Assignment (peeling with external sorts). *)
  let keys = Array.map fst data in
  let satellite_of = Hashtbl.create n in
  Array.iteri (fun idx (x, s) -> Hashtbl.replace satellite_of x (idx, s)) data;
  if Hashtbl.length satellite_of <> n then
    invalid_arg "One_probe_static.build: duplicate keys";
  let scratch = make_scratch ~disks:d ~block_words ~pairs:(max 1 (n * d)) in
  let memory = Pdm_sim.Internal_memory.unbounded () in
  let assignments, peel_rounds =
    assign ~construction ~memory scratch graph m keys
  in
  (* Encode every key's fields; collect the global array B of (field,
     content) pairs, plus membership inserts for case (a). *)
  let id_bits = id_bits_of cfg in
  let stripe_w = Bipartite.stripe_width graph in
  let b_pairs = ref [] in
  let heads = ref [] in
  List.iter
    (fun (x, field_ids) ->
      let idx, satellite = Hashtbl.find satellite_of x in
      let encoded =
        match cfg.case with
        | Case_b ->
          Field_codec.encode_b ~field_bits ~id_bits ~id:idx ~satellite
            ~sigma_bits:cfg.sigma_bits ~indices:field_ids
        | Case_a ->
          let stripes = List.map (fun y -> y / stripe_w) field_ids in
          (match stripes with
           | head :: _ -> heads := (x, head) :: !heads
           | [] ->
             invalid_arg "One_probe_static: key assigned zero fields");
          let enc =
            Field_codec.encode_a ~field_bits ~indices:stripes ~satellite
              ~sigma_bits:cfg.sigma_bits
          in
          (* Map stripe indices back to global field ids. *)
          List.map2 (fun y (_, words) -> (y, words)) field_ids enc
      in
      b_pairs := encoded @ !b_pairs)
    assignments;
  (* Sort B by field index — "the most expensive operation" — on the
     scratch machine, then fill A. *)
  let _counted_sort_of_b =
    scratch_sort scratch
      (Array.of_list (List.map (fun (y, _) -> (y, 0)) !b_pairs))
  in
  let ordered =
    List.sort (fun (a, _) (b, _) -> compare a b) !b_pairs
  in
  (* bulk_write rejects duplicate field indices, enforcing the paper's
     claim that later peeling rounds never touch earlier assignments. *)
  Field_store.bulk_write fields ordered;
  (* Membership entries (case a). *)
  (match membership with
   | None -> ()
   | Some memb ->
     List.iter
       (fun (x, head) ->
         Basic_dict.insert memb x (Bytes.make 1 (Char.chr head)))
       !heads);
  let construction_ios =
    scratch_ios scratch
    + Stats.parallel_ios (Stats.snapshot (Pdm.stats machine))
  in
  (* Yardstick: one external sort of nd pair records on an identical
     scratch machine. *)
  let sort_nd_ios =
    let yard = make_scratch ~disks:d ~block_words ~pairs:(max 1 (n * d)) in
    let g = Pdm_util.Prng.create (cfg.seed + 7) in
    let arr =
      Array.init (max 1 (n * d)) (fun _ ->
          (Pdm_util.Prng.next g, Pdm_util.Prng.next g))
    in
    ignore (scratch_sort yard arr);
    scratch_ios yard
  in
  let space_bits =
    Field_store.total_bits fields
    + (match membership with
       | None -> 0
       | Some memb ->
         let mc = Basic_dict.config memb in
         Basic_dict.blocks_per_disk mc * mc.Basic_dict.degree * block_words
         * Codec.bits_per_word)
  in
  Stats.reset (Pdm.stats machine);
  { cfg; machine; fields; membership; id_bits;
    rep =
      { peel_rounds; construction_ios; sort_nd_ios;
        internal_memory_peak = Pdm_sim.Internal_memory.peak memory;
        field_bits; space_bits; disks } }

let config t = t.cfg

let machine t = t.machine

let report t = t.rep

(* The candidate fields first, then (case a) the membership buckets. *)
let probe_addresses t key =
  let fields = Field_store.plan_blocks t.fields in
  let n =
    match t.membership with
    | None -> fields
    | Some memb -> fields + Basic_dict.plan_blocks memb
  in
  let dst = Array.make n { Pdm.disk = 0; block = 0 } in
  Field_store.fill_addresses t.fields key dst ~off:0;
  (match t.membership with
   | None -> ()
   | Some memb -> Basic_dict.fill_addresses memb key dst ~off:fields);
  dst

let find_in t key blocks =
  let v = Field_store.view t.fields blocks ~off:0 key in
  let field_bits = Field_store.field_bits t.fields in
  match t.cfg.case with
  | Case_b ->
    Option.map snd
      (Field_codec.decode_b ~field_bits ~id_bits:t.id_bits
         ~sigma_bits:t.cfg.sigma_bits ~d:t.cfg.degree v)
  | Case_a ->
    (match t.membership with
     | None ->
       (* pdm-lint: allow R3 — unreachable: [build] always constructs
          the membership dictionary for a [Case_a] configuration; only
          [Case_b] stores [None] here. *)
       assert false
     | Some memb ->
       (match
          Basic_dict.find_in memb key blocks
            ~off:(Field_store.plan_blocks t.fields)
        with
        | None -> None
        | Some head_bytes ->
          let head = Char.code (Bytes.get head_bytes 0) in
          Field_codec.decode_a ~field_bits ~head ~sigma_bits:t.cfg.sigma_bits
            v))

let find t key =
  find_in t key (Pdm.read_views t.machine (probe_addresses t key))

let mem t key = find t key <> None
