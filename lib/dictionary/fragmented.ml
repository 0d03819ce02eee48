module Pdm = Pdm_sim.Pdm
module Bipartite = Pdm_expander.Bipartite
module Seeded = Pdm_expander.Seeded
module Expansion = Pdm_expander.Expansion
module Imath = Pdm_util.Imath

type config = {
  universe : int;
  capacity : int;
  degree : int;
  sigma_bits : int;
  buckets_per_stripe : int;
  seed : int;
}

type t = {
  cfg : config;
  machine : int Pdm.t;
  disk_offset : int;
  block_offset : int;
  graph : Bipartite.t;
  width : int;          (* fragment record width in words *)
  slots : int;          (* fragment slots per bucket (one block) *)
  mutable size : int;
}

exception Overflow of int

let frag_count cfg =
  if cfg.degree < 4 || cfg.degree mod 2 <> 0 then
    invalid_arg "Fragmented: degree must be even and >= 4";
  cfg.degree / 2

let frag_bits cfg = Imath.cdiv cfg.sigma_bits (frag_count cfg)

let width_of cfg = 2 + Codec.words_for_bits (frag_bits cfg)

let blocks_per_disk cfg = cfg.buckets_per_stripe

(* [`Bound] pads Lemma 3's bound by this factor. *)
let load_slack = 1.25

let plan ?(strategy = `Bound) ~universe ~capacity ~block_words ~degree
    ~sigma_bits ~seed () =
  let cfg0 =
    { universe; capacity; degree; sigma_bits; buckets_per_stripe = 1; seed }
  in
  let k = frag_count cfg0 in
  let slots = block_words / width_of cfg0 in
  if slots < 1 then
    invalid_arg "Fragmented.plan: a fragment must fit a block";
  let fits v =
    match strategy with
    | `Average f ->
      f *. float_of_int (k * capacity) /. float_of_int v
      <= float_of_int slots
    | `Bound ->
      (match
         Expansion.lemma3_bound ~n:capacity ~v ~d:degree ~k
           ~eps:(1.0 /. 12.0) ~delta:(1.0 /. 12.0)
       with
       | bound -> load_slack *. bound <= float_of_int slots
       | exception Invalid_argument _ -> false)
  in
  let rec search w =
    if w > 64 * (capacity + 1) * k then
      invalid_arg "Fragmented.plan: no feasible bucket count (B too small?)"
    else if fits (degree * w) then w
    else search (max (w + 1) (w * 3 / 2))
  in
  { cfg0 with buckets_per_stripe = search 1 }

let create ~machine ~disk_offset ~block_offset cfg =
  let k = frag_count cfg in
  if k > Pdm.block_size machine then invalid_arg "Fragmented.create: degree";
  if disk_offset < 0 || disk_offset + cfg.degree > Pdm.disks machine then
    invalid_arg "Fragmented.create: disk range out of machine";
  if block_offset < 0
     || block_offset + blocks_per_disk cfg > Pdm.blocks_per_disk machine
  then invalid_arg "Fragmented.create: block range out of machine";
  let width = width_of cfg in
  let slots = Pdm.block_size machine / width in
  if slots < 1 then invalid_arg "Fragmented.create: fragment exceeds block";
  let v = cfg.degree * cfg.buckets_per_stripe in
  let graph = Seeded.striped ~seed:cfg.seed ~u:cfg.universe ~v ~d:cfg.degree in
  { cfg; machine; disk_offset; block_offset; graph; width; slots; size = 0 }

let recover ~machine ~disk_offset ~block_offset cfg =
  let t = create ~machine ~disk_offset ~block_offset cfg in
  let k = frag_count cfg in
  let fragments = ref 0 in
  for b = 0 to blocks_per_disk cfg - 1 do
    let addrs =
      Array.init cfg.degree (fun i ->
          { Pdm.disk = disk_offset + i; block = block_offset + b })
    in
    Array.iter
      (fun block -> fragments := !fragments + Codec.Slots.count block ~width:t.width)
      (Pdm.read machine addrs)
  done;
  if !fragments mod k <> 0 then
    invalid_arg "Fragmented.recover: fragment count not divisible by k";
  t.size <- !fragments / k;
  t

let config t = t.cfg
let machine t = t.machine
let size t = t.size
let slots_per_bucket t = t.slots

let bandwidth_bits t ~block_words =
  (* A fragment slot must fit the block: width = 2 + payload words. *)
  let max_payload_words = max 0 (block_words - 2) in
  frag_count t.cfg * max_payload_words * Codec.bits_per_word

let addr_of_bucket t i key =
  let stripe, local = Bipartite.neighbor_in_stripe t.graph key i in
  { Pdm.disk = t.disk_offset + stripe; block = t.block_offset + local }

(* Bucket i of a key's plan is its neighbor i, so answer i of
   [Pdm.read] on the plan is that bucket's block. *)
let addresses t key = Array.init t.cfg.degree (fun i -> addr_of_bucket t i key)

(* Collect (frag_idx, payload words) of [key] from a block image. *)
let fragments_in t block key =
  let out = ref [] in
  for s = 0 to t.slots - 1 do
    match Codec.Slots.read block ~width:t.width s with
    | Some record when record.(0) = key ->
      out := (record.(1), Array.sub record 2 (t.width - 2), s) :: !out
    | Some _ | None -> ()
  done;
  !out

let find_in t key blocks =
  let frags =
    List.concat_map (fun block -> fragments_in t block key) (Array.to_list blocks)
  in
  let k = frag_count t.cfg in
  if List.length frags <> k then None
  else begin
    let ordered = List.sort (fun (a, _, _) (b, _, _) -> compare a b) frags in
    let fb = frag_bits t.cfg in
    let out = Bytes.make (Imath.cdiv (k * fb) 8) '\000' in
    (* Concatenate fragment payloads at fb-bit granularity. *)
    let w = Pdm_util.Bitbuf.Writer.create () in
    List.iter
      (fun (_, words, _) ->
        let bytes = Codec.bytes_of_words words ~nbits:fb in
        let r = Pdm_util.Bitbuf.Reader.of_bytes bytes in
        for _ = 1 to fb do
          Pdm_util.Bitbuf.Writer.add_bit w (Pdm_util.Bitbuf.Reader.read_bit r)
        done)
      ordered;
    let src = Pdm_util.Bitbuf.Writer.contents w in
    let len = Imath.cdiv t.cfg.sigma_bits 8 in
    Bytes.blit src 0 out 0 (min (Bytes.length src) (Bytes.length out));
    Some (Bytes.sub out 0 len)
  end

let find t key = find_in t key (Pdm.read t.machine (addresses t key))

let mem t key = find t key <> None

(* Split satellite into k payload word-arrays. *)
let split_satellite t satellite =
  let k = frag_count t.cfg and fb = frag_bits t.cfg in
  if 8 * Bytes.length satellite < t.cfg.sigma_bits then
    invalid_arg "Fragmented: satellite shorter than sigma_bits";
  let r = Pdm_util.Bitbuf.Reader.of_bytes satellite in
  List.init k (fun f ->
      let w = Pdm_util.Bitbuf.Writer.create () in
      for b = 0 to fb - 1 do
        let bit_index = (f * fb) + b in
        let bit =
          bit_index < t.cfg.sigma_bits
          && (Pdm_util.Bitbuf.Reader.seek r bit_index;
              Pdm_util.Bitbuf.Reader.read_bit r)
        in
        Pdm_util.Bitbuf.Writer.add_bit w bit
      done;
      Codec.words_of_bits (Pdm_util.Bitbuf.Writer.contents w) ~nbits:fb)

(* The positions of the images the key had fragments in, most recent
   first. *)
let remove_key_from_images t key images =
  let touched = ref [] in
  Array.iteri
    (fun i block ->
      let frags = fragments_in t block key in
      if frags <> [] then begin
        List.iter
          (fun (_, _, slot) -> Codec.Slots.write block ~width:t.width slot None)
          frags;
        touched := i :: !touched
      end)
    images;
  !touched

let write_images t addrs images touched =
  Pdm.write t.machine (List.map (fun i -> (addrs.(i), images.(i))) touched)

let insert t key satellite =
  if key < 0 || key >= t.cfg.universe then invalid_arg "Fragmented: key range";
  let addrs = addresses t key in
  let images = Pdm.read t.machine addrs in
  let was_present = find_in t key images <> None in
  if (not was_present) && t.size >= t.cfg.capacity then
    invalid_arg "Fragmented.insert: at capacity";
  let touched_by_removal = remove_key_from_images t key images in
  (* Greedy k-item placement over the (already updated) images. *)
  let payloads = split_satellite t satellite in
  let touched = ref touched_by_removal in
  List.iteri
    (fun idx payload ->
      let i = Codec.Slots.least_loaded images ~width:t.width in
      match Codec.Slots.first_free images.(i) ~width:t.width with
      | None -> raise (Overflow key)
      | Some s ->
        Codec.Slots.write images.(i) ~width:t.width s
          (Some (Array.concat [ [| key; idx |]; payload ]));
        if not (List.mem i !touched) then touched := i :: !touched)
    payloads;
  write_images t addrs images !touched;
  if not was_present then t.size <- t.size + 1

let delete t key =
  let addrs = addresses t key in
  let images = Pdm.read t.machine addrs in
  let touched = remove_key_from_images t key images in
  if touched = [] then false
  else begin
    write_images t addrs images touched;
    t.size <- t.size - 1;
    true
  end

let max_load t =
  let worst = ref 0 in
  for stripe = 0 to t.cfg.degree - 1 do
    for local = 0 to t.cfg.buckets_per_stripe - 1 do
      let block =
        Pdm.peek t.machine
          { Pdm.disk = t.disk_offset + stripe; block = t.block_offset + local }
      in
      worst := max !worst (Codec.Slots.count block ~width:t.width)
    done
  done;
  !worst
