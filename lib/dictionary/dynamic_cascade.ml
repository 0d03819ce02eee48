module Pdm = Pdm_sim.Pdm
module Bipartite = Pdm_expander.Bipartite

type config = {
  universe : int;
  capacity : int;
  degree : int;
  sigma_bits : int;
  epsilon : float;
  v_factor : int;
  seed : int;
}

type t = { cfg : config; lv : Leveled.t (* A_1 … A_l on disks [0, d), membership on [d, 2d) *) }

exception Overflow = Leveled.Overflow

let validate cfg =
  if cfg.degree < 5 then invalid_arg "Dynamic_cascade: degree too small";
  if 2 * Leveled.frag_count cfg.degree <= cfg.degree then
    invalid_arg "Dynamic_cascade: 2 * (2d/3) must exceed d";
  if cfg.epsilon <= 0.0 then invalid_arg "Dynamic_cascade: epsilon > 0";
  if float_of_int cfg.degree <= 6.0 *. (1.0 +. (1.0 /. cfg.epsilon)) then
    invalid_arg "Dynamic_cascade: Theorem 7 needs d > 6(1 + 1/epsilon)";
  if cfg.degree > 255 then
    invalid_arg "Dynamic_cascade: head pointer is one byte";
  if Leveled.level_count ~epsilon:cfg.epsilon ~capacity:cfg.capacity > 255 then
    invalid_arg "Dynamic_cascade: level index is one byte";
  if cfg.v_factor < 2 then invalid_arg "Dynamic_cascade: v_factor >= 2"

let create ?(journaled = false) ?replicas ?spares ?factory ~block_words cfg =
  validate cfg;
  let d = cfg.degree and epsilon = cfg.epsilon and capacity = cfg.capacity in
  { cfg;
    lv =
      Leveled.create ~name:"Dynamic_cascade" ~stacked:true ~journaled
        ?replicas ?spares ?factory ~block_words ~universe:cfg.universe
        ~capacity ~degree:d ~sigma_bits:cfg.sigma_bits ~seed:cfg.seed
        (Leveled.level_sizes ~ratio:(Leveled.shrink_ratio epsilon)
           ~levels:(Leveled.level_count ~epsilon ~capacity) ~degree:d
           ~v_factor:cfg.v_factor ~capacity) }

let config t = t.cfg
let machine t = t.lv.Leveled.machine
let levels t = Array.length t.lv.Leveled.arrays

let level_fields t =
  Array.map (fun fs -> Bipartite.v (Field_store.graph fs)) t.lv.Leveled.arrays

let size t = t.lv.Leveled.size
let journaled t = t.lv.Leveled.journal <> None
let set_crash t = Leveled.set_crash t.lv
let recover t = Leveled.recover t.lv

let level_of t key =
  (* Uncounted diagnostic: peek the membership buckets. *)
  Option.map fst
    (Leveled.membership t.lv key
       (Array.map (Pdm.peek (machine t))
          (Basic_dict.addresses t.lv.Leveled.membership key)))

(* The first read round: membership buckets, then A_1's candidate
   blocks, on disjoint disk groups — one parallel I/O. *)
let first_round_addresses t key =
  let lv = t.lv in
  let mb = Basic_dict.plan_blocks lv.membership in
  let dst =
    Array.make (mb + Field_store.plan_blocks lv.arrays.(0)) { Pdm.disk = 0; block = 0 }
  in
  Basic_dict.fill_addresses lv.membership key dst ~off:0;
  Field_store.fill_addresses lv.arrays.(0) key dst ~off:mb;
  dst

(* Where a level's blocks start in the fetch that holds them: A_1
   follows the membership buckets in the first round; a deeper level
   is a fetch of its own. *)
let level_off t level =
  if level = 1 then Basic_dict.plan_blocks t.lv.Leveled.membership else 0

(* Two-phase lookup pieces for schedulers that fetch blocks
   themselves (the batched query engine): phase 1 fetches
   [first_round_addresses] and feeds them to [membership_in]; a [Some]
   at level > 1 needs a second fetch of [level_addresses] before
   [decode_in] can reconstruct the record. *)
let membership_in t key blocks = Leveled.membership t.lv key blocks

let level_addresses t key ~level =
  if level < 1 || level > levels t then
    invalid_arg "Dynamic_cascade.level_addresses: level";
  Field_store.addresses t.lv.Leveled.arrays.(level - 1) key

let decode_in t key ~level ~head blocks =
  Leveled.decode t.lv key ~level ~head blocks ~off:(level_off t level)

let read_first_round t key =
  Pdm.read_views (machine t) (first_round_addresses t key)

(* A level's blocks for the per-key paths: level 1 from the first
   round, a deeper one read on demand. *)
let level_blocks t key round level =
  ( (if level = 1 then round
     else Pdm.read_views (machine t) (level_addresses t key ~level)),
    level_off t level )

let find t key =
  let round = read_first_round t key in
  match membership_in t key round with
  | None -> None
  | Some (level, head) ->
    let blocks, off = level_blocks t key round level in
    Leveled.decode t.lv key ~level ~head blocks ~off

let mem t key = membership_in t key (read_first_round t key) <> None

let insert t key satellite =
  if 8 * Bytes.length satellite < t.cfg.sigma_bits then
    invalid_arg "Dynamic_cascade.insert: satellite shorter than sigma_bits";
  let round = read_first_round t key in
  Leveled.insert t.lv key satellite round ~level_blocks:(level_blocks t key round)

let delete t key =
  let round = read_first_round t key in
  Leveled.delete t.lv key round ~level_blocks:(level_blocks t key round)

let space_bits t =
  let fields =
    Array.fold_left
      (fun acc fs -> acc + Field_store.total_bits fs)
      0 t.lv.Leveled.arrays
  in
  let mc = Basic_dict.config t.lv.Leveled.membership in
  fields
  + Basic_dict.blocks_per_disk mc * mc.Basic_dict.degree
    * Pdm.block_size (machine t) * Codec.bits_per_word
