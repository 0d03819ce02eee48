module Pdm = Pdm_sim.Pdm

let log = Logs.Src.create "pdm_dict.cuckoo" ~doc:"cuckoo hashing events"

module Log = (val Logs.src_log log : Logs.LOG)
module Prng = Pdm_util.Prng
module Imath = Pdm_util.Imath
module Codec = Pdm_dictionary.Codec

type config = {
  universe : int;
  capacity : int;
  value_bytes : int;
  buckets : int;
  max_kicks : int;
  seed : int;
}

type t = {
  cfg : config;
  machine : int Pdm.t;
  width : int;
  slots : int;              (* records per bucket *)
  half : int;               (* disks per table *)
  mutable seed : int;       (* current hash seed (changes on rehash) *)
  mutable size : int;
  mutable rehashes : int;
  kick_rng : Prng.t;
}

let width_of cfg = Codec.Record.width ~value_bytes:cfg.value_bytes

let plan ?(utilization = 0.4) ~universe ~capacity ~block_words ~disks
    ~value_bytes ~seed () =
  if disks < 2 || disks mod 2 <> 0 then
    invalid_arg "Cuckoo.plan: disks must be even";
  let cfg0 =
    { universe; capacity; value_bytes; buckets = 1; max_kicks = 64; seed }
  in
  let slots = disks / 2 * block_words / width_of cfg0 in
  if slots < 1 then invalid_arg "Cuckoo.plan: record exceeds half-superblock";
  let total = int_of_float (ceil (float_of_int capacity /. utilization)) in
  { cfg0 with buckets = max 1 (Imath.cdiv (Imath.cdiv total slots) 2) }

let create ~machine cfg =
  let disks = Pdm.disks machine in
  if disks mod 2 <> 0 then invalid_arg "Cuckoo.create: disks must be even";
  if cfg.buckets > Pdm.blocks_per_disk machine then
    invalid_arg "Cuckoo.create: machine too small";
  let width = width_of cfg in
  let half = disks / 2 in
  let slots = half * Pdm.block_size machine / width in
  if slots < 1 then invalid_arg "Cuckoo.create: record exceeds bucket";
  { cfg; machine; width; slots; half; seed = cfg.seed; size = 0; rehashes = 0;
    kick_rng = Prng.create (cfg.seed + 17) }

let config t = t.cfg
let size t = t.size
let rehashes t = t.rehashes

let bandwidth_bits t =
  (t.half * Pdm.block_size t.machine - 1) * Codec.bits_per_word

let hash t g key = Prng.hash_to_range ~seed:(t.seed + g) key g t.cfg.buckets

(* Bucket [pos] of table [g] is block [pos] on disk [i] of the table's
   half of the disks, for i < half. *)
let bucket_addr t g pos i = { Pdm.disk = (g * t.half) + i; block = pos }

let bucket_addrs t g pos = Array.init t.half (bucket_addr t g pos)

(* A bucket's image from the answers of a read: disk [i] of the bucket
   answers position [off + i]. *)
let assemble t blocks ~off =
  Array.concat (Array.to_list (Array.sub blocks off t.half))

let write_bucket t g pos image =
  let b = Pdm.block_size t.machine in
  Pdm.write t.machine
    (List.init t.half (fun i ->
         (bucket_addr t g pos i, Array.sub image (i * b) b)))

let read_both t key =
  let p0 = hash t 0 key and p1 = hash t 1 key in
  let blocks =
    Pdm.read t.machine (Array.append (bucket_addrs t 0 p0) (bucket_addrs t 1 p1))
  in
  ((p0, assemble t blocks ~off:0), (p1, assemble t blocks ~off:t.half))

let value_of t record = Codec.Record.value ~value_bytes:t.cfg.value_bytes record

let record_of t key value =
  Codec.Record.make ~who:"Cuckoo" ~value_bytes:t.cfg.value_bytes key value

let find t key =
  let (_, img0), (_, img1) = read_both t key in
  let in_image img =
    Option.bind
      (Codec.Slots.find_key img ~width:t.width ~key)
      (fun s -> Codec.Slots.read img ~width:t.width s)
  in
  match in_image img0 with
  | Some r -> Some (value_of t r)
  | None -> Option.map (value_of t) (in_image img1)

let mem t key = find t key <> None

let read_one_bucket t g pos =
  assemble t (Pdm.read t.machine (bucket_addrs t g pos)) ~off:0

let rec insert_record t record =
  let key = record.(0) in
  let (p0, img0), (p1, img1) = read_both t key in
  let try_update img g pos =
    match Codec.Slots.find_key img ~width:t.width ~key with
    | Some s ->
      Codec.Slots.write img ~width:t.width s (Some record);
      write_bucket t g pos img;
      true
    | None -> false
  in
  if try_update img0 0 p0 || try_update img1 1 p1 then false
  else begin
    let try_place img g pos =
      match Codec.Slots.first_free img ~width:t.width with
      | Some s ->
        Codec.Slots.write img ~width:t.width s (Some record);
        write_bucket t g pos img;
        true
      | None -> false
    in
    if try_place img0 0 p0 || try_place img1 1 p1 then true
    else kick_loop t record 0 p0 img0 t.cfg.max_kicks
  end

and kick_loop t record g pos img kicks =
  if kicks = 0 then rehash_with t record
  else begin
    (* Evict a random victim, place the new record, re-insert the
       victim on its other side. *)
    let victim_slot = Prng.int t.kick_rng t.slots in
    let victim =
      match Codec.Slots.read img ~width:t.width victim_slot with
      | Some r -> r
      | None ->
        (* pdm-lint: allow R3 — unreachable: [kick_loop] is entered
           only when the bucket had no free slot, so every slot
           (including the random victim) is occupied. *)
        assert false
    in
    Codec.Slots.write img ~width:t.width victim_slot (Some record);
    write_bucket t g pos img;
    let g' = 1 - g in
    let pos' = hash t g' victim.(0) in
    let img' = read_one_bucket t g' pos' in
    match Codec.Slots.first_free img' ~width:t.width with
    | Some s ->
      Codec.Slots.write img' ~width:t.width s (Some victim);
      write_bucket t g' pos' img';
      true
    | None -> kick_loop t victim g' pos' img' (kicks - 1)
  end

and rehash_with t record =
  (* Collect everything (a full scan, counted), clear, and rebuild
     with fresh hash functions — the linear-worst-case event. *)
  t.rehashes <- t.rehashes + 1;
  Log.info (fun f ->
      f "rehash #%d at %d keys (eviction chain exhausted)" t.rehashes t.size);
  let all = ref [ record ] in
  let b = Pdm.block_size t.machine in
  for g = 0 to 1 do
    for pos = 0 to t.cfg.buckets - 1 do
      let img = read_one_bucket t g pos in
      for s = 0 to t.slots - 1 do
        match Codec.Slots.read img ~width:t.width s with
        | Some r -> all := r :: !all
        | None -> ()
      done;
      (* Clear as we go. *)
      write_bucket t g pos (Array.make (t.half * b) None)
    done
  done;
  t.seed <- t.seed + 101;
  List.iter (fun r -> ignore (insert_record t r)) !all;
  true

let insert t key value =
  if key < 0 || key >= t.cfg.universe then invalid_arg "Cuckoo: key range";
  if insert_record t (record_of t key value) then t.size <- t.size + 1

let delete t key =
  let (p0, img0), (p1, img1) = read_both t key in
  let try_remove img g pos =
    match Codec.Slots.find_key img ~width:t.width ~key with
    | Some s ->
      Codec.Slots.write img ~width:t.width s None;
      write_bucket t g pos img;
      true
    | None -> false
  in
  if try_remove img0 0 p0 || try_remove img1 1 p1 then begin
    t.size <- t.size - 1;
    true
  end
  else false
