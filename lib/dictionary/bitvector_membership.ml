module Pdm = Pdm_sim.Pdm
module Bipartite = Pdm_expander.Bipartite
module Seeded = Pdm_expander.Seeded
module Prng = Pdm_util.Prng
module Imath = Pdm_util.Imath

type t = {
  machine : int Pdm.t;
  disk_offset : int;
  block_offset : int;
  graph : Bipartite.t;
  bits_per_block : int;
  mutable ones : int;
}

let bits_per_word = 32

let v_of ~degree ~v_factor ~n =
  Imath.round_up_to ~multiple:degree (max degree (v_factor * (max 1 n) * degree))

let blocks_per_disk_needed ~universe ~degree ~v_factor ~block_words ~n =
  ignore universe;
  let v = v_of ~degree ~v_factor ~n in
  Imath.cdiv (v / degree) (block_words * bits_per_word)

(* Bit y: stripe s = y / w lives on disk disk_offset + s; offset j
   within the stripe sits at block j / bits_per_block, word
   (j mod bits_per_block) / 32, bit j mod 32. *)
let locate t y =
  let stripe, j = Bipartite.stripe_of t.graph y in
  let addr =
    { Pdm.disk = t.disk_offset + stripe;
      block = t.block_offset + (j / t.bits_per_block) }
  in
  let within = j mod t.bits_per_block in
  (addr, within / bits_per_word, within mod bits_per_word)

let build ~machine ~disk_offset ~block_offset ~universe ~degree ~v_factor
    ~seed keys =
  if degree < 2 then invalid_arg "Bitvector_membership.build: degree";
  if v_factor < 1 then invalid_arg "Bitvector_membership.build: v_factor";
  let n = Array.length keys in
  let v = v_of ~degree ~v_factor ~n in
  let graph = Seeded.striped ~seed ~u:universe ~v ~d:degree in
  let block_words = Pdm.block_size machine in
  let bits_per_block = block_words * bits_per_word in
  let blocks = Imath.cdiv (v / degree) bits_per_block in
  if disk_offset < 0 || disk_offset + degree > Pdm.disks machine then
    invalid_arg "Bitvector_membership.build: disk range";
  if block_offset < 0 || block_offset + blocks > Pdm.blocks_per_disk machine
  then invalid_arg "Bitvector_membership.build: block range";
  let t =
    { machine; disk_offset; block_offset; graph; bits_per_block; ones = 0 }
  in
  (* Compute all blocks in memory, then write them in ⌈blocks/d⌉
     rounds (a bulk load). *)
  let images = Hashtbl.create 64 in
  let image_of addr =
    match Hashtbl.find_opt images addr with
    | Some b -> b
    | None ->
      let b = Array.make block_words (Some 0) in
      Hashtbl.add images addr b;
      b
  in
  Array.iter
    (fun x ->
      for i = 0 to degree - 1 do
        let addr, word, bit = locate t (Bipartite.neighbor graph x i) in
        let img = image_of addr in
        let cur = match img.(word) with Some w -> w | None -> 0 in
        if cur land (1 lsl bit) = 0 then begin
          img.(word) <- Some (cur lor (1 lsl bit));
          t.ones <- t.ones + 1
        end
      done)
    keys;
  let blocks = Hashtbl.fold (fun a b acc -> (a, b) :: acc) images [] in
  if blocks <> [] then Pdm.write machine blocks;
  t

let bit_set img ~word ~bit =
  let w = match img.(word) with Some w -> w | None -> 0 in
  w land (1 lsl bit) <> 0

(* Answer i of the read is neighbor i's block. *)
let mem t key =
  let d = Bipartite.d t.graph in
  let bits =
    Array.init d (fun i -> locate t (Bipartite.neighbor t.graph key i))
  in
  let blocks = Pdm.read t.machine (Array.map (fun (addr, _, _) -> addr) bits) in
  let rec all i =
    i >= d
    ||
    let _, word, bit = bits.(i) in
    bit_set blocks.(i) ~word ~bit && all (i + 1)
  in
  all 0

let space_bits t = Bipartite.v t.graph

let ones t = t.ones

let false_positive_rate t ~trials ~seed =
  if trials < 1 then invalid_arg "Bitvector_membership.false_positive_rate";
  let g = Prng.create seed in
  let u = Bipartite.u t.graph in
  let fp = ref 0 in
  for _ = 1 to trials do
    (* Uniform keys are non-members with overwhelming probability at
       the u >> n regime this structure targets; members only deflate
       the measured rate slightly. *)
    let x = Prng.int g u in
    let d = Bipartite.d t.graph in
    let all_set = ref true in
    for i = 0 to d - 1 do
      let addr, word, bit = locate t (Bipartite.neighbor t.graph x i) in
      if not (bit_set (Pdm.peek t.machine addr) ~word ~bit) then
        all_set := false
    done;
    if !all_set then incr fp
  done;
  float_of_int !fp /. float_of_int trials
