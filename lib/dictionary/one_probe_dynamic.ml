module Pdm = Pdm_sim.Pdm

type config = {
  universe : int;
  capacity : int;
  degree : int;
  sigma_bits : int;
  levels : int;
  v_factor : int;
  seed : int;
}

type t = {
  cfg : config;
  lv : Leveled.t;  (* membership on disks [0, d), level i on [(i+1)d, (i+2)d) *)
  offsets : int array;  (* plan position of each level's blocks, then the plan's length *)
}

exception Overflow = Leveled.Overflow

let create ?(journaled = false) ?replicas ?spares ?factory ~block_words cfg =
  let d = cfg.degree in
  if d < 5 || 2 * Leveled.frag_count d <= d then
    invalid_arg "One_probe_dynamic: degree";
  if cfg.levels < 1 || cfg.levels > 254 then
    invalid_arg "One_probe_dynamic: levels";
  if d > 255 then invalid_arg "One_probe_dynamic: degree > 255";
  let lv =
    Leveled.create ~name:"One_probe_dynamic" ~stacked:false ~journaled
      ?replicas ?spares ?factory ~block_words ~universe:cfg.universe
      ~capacity:cfg.capacity ~degree:d ~sigma_bits:cfg.sigma_bits ~seed:cfg.seed
      (Leveled.level_sizes ~ratio:0.5 ~levels:cfg.levels ~degree:d
         ~v_factor:cfg.v_factor ~capacity:cfg.capacity)
  in
  let offsets = Array.make (cfg.levels + 1) (Basic_dict.plan_blocks lv.membership) in
  for i = 1 to cfg.levels do
    offsets.(i) <- offsets.(i - 1) + Field_store.plan_blocks lv.arrays.(i - 1)
  done;
  { cfg; lv; offsets }

let config t = t.cfg
let machine t = t.lv.Leveled.machine
let disks t = Pdm.disks (machine t)
let size t = t.lv.Leveled.size
let journaled t = t.lv.Leveled.journal <> None
let set_crash t = Leveled.set_crash t.lv
let recover t = Leveled.recover t.lv

let level_of t key =
  Option.map fst
    (Leveled.membership t.lv key
       (Array.map (Pdm.peek (machine t))
          (Basic_dict.addresses t.lv.Leveled.membership key)))

(* Every operation's single read round: membership + every level's
   candidate blocks — all on pairwise disjoint disk groups — laid out
   at [offsets]. *)
let probe_addresses t key =
  let lv = t.lv in
  let levels = Array.length lv.arrays in
  let dst = Array.make t.offsets.(levels) { Pdm.disk = 0; block = 0 } in
  Basic_dict.fill_addresses lv.membership key dst ~off:0;
  for i = 0 to levels - 1 do
    Field_store.fill_addresses lv.arrays.(i) key dst ~off:t.offsets.(i)
  done;
  dst

let read_plan t key = Pdm.read_views (machine t) (probe_addresses t key)

(* Every level is in the one round. *)
let in_round t round level = (round, t.offsets.(level - 1))

let find_in t key blocks =
  match Leveled.membership t.lv key blocks with
  | None -> None
  | Some (level, head) ->
    Leveled.decode t.lv key ~level ~head blocks ~off:t.offsets.(level - 1)

let find t key = find_in t key (read_plan t key)

let mem t key = Leveled.membership t.lv key (read_plan t key) <> None

let insert t key satellite =
  if 8 * Bytes.length satellite < t.cfg.sigma_bits then
    invalid_arg "One_probe_dynamic.insert: satellite shorter than sigma_bits";
  let round = read_plan t key in
  Leveled.insert t.lv key satellite round ~level_blocks:(in_round t round)

let delete t key =
  let round = read_plan t key in
  Leveled.delete t.lv key round ~level_blocks:(in_round t round)
