module Pdm = Pdm_sim.Pdm
module Bipartite = Pdm_expander.Bipartite
module Seeded = Pdm_expander.Seeded
module Expansion = Pdm_expander.Expansion

type config = {
  universe : int;
  capacity : int;
  degree : int;
  buckets_per_stripe : int;
  value_bytes : int;
  bucket_blocks : int;
  tombstone : bool;
  seed : int;
}

type t = {
  cfg : config;
  machine : int Pdm.t;
  disk_offset : int;
  block_offset : int;
  graph : Bipartite.t;
  store : Bucket_store.t;    (* record layout, placement, size *)
}

exception Overflow = Bucket_store.Overflow

let blocks_per_disk cfg = cfg.buckets_per_stripe * cfg.bucket_blocks

let load_slack = 1.25

let plan ?(bucket_blocks = 1) ?(tombstone = false) ~universe ~capacity
    ~block_words ~degree ~value_bytes ~seed () =
  if degree < 2 then invalid_arg "Basic_dict.plan: degree must be >= 2";
  if bucket_blocks < 1 then invalid_arg "Basic_dict.plan: bucket_blocks >= 1";
  let slots = block_words / Codec.Record.width ~value_bytes * bucket_blocks in
  if slots < 1 then invalid_arg "Basic_dict.plan: a record must fit a block";
  (* Find the least v (multiple of degree) whose Lemma 3 bound, padded
     by the slack factor, fits in a one-block bucket. *)
  let fits v =
    match
      Expansion.lemma3_bound ~n:capacity ~v ~d:degree ~k:1 ~eps:(1.0 /. 12.0)
        ~delta:(1.0 /. 12.0)
    with
    | bound -> load_slack *. bound <= float_of_int slots
    | exception Invalid_argument _ -> false
  in
  let rec search w =
    if w > 16 * (capacity + degree) then
      invalid_arg "Basic_dict.plan: no feasible bucket count (B too small?)"
    else if fits (degree * w) then w
    else search (max (w + 1) (w * 3 / 2))
  in
  let buckets_per_stripe = search 1 in
  { universe; capacity; degree; buckets_per_stripe; value_bytes;
    bucket_blocks; tombstone; seed }

let create ~machine ~disk_offset ~block_offset cfg =
  if cfg.degree < 2 then invalid_arg "Basic_dict.create: degree";
  if disk_offset < 0 || disk_offset + cfg.degree > Pdm.disks machine then
    invalid_arg "Basic_dict.create: disk range out of machine";
  if block_offset < 0
     || block_offset + blocks_per_disk cfg > Pdm.blocks_per_disk machine
  then invalid_arg "Basic_dict.create: block range out of machine";
  let store =
    Bucket_store.create ~name:"Basic_dict" ~block_words:(Pdm.block_size machine)
      ~value_bytes:cfg.value_bytes ~bucket_blocks:cfg.bucket_blocks
      ~buckets:cfg.degree ~capacity:cfg.capacity
      ~tombstone:(if cfg.tombstone then Some cfg.universe else None)
  in
  let v = cfg.degree * cfg.buckets_per_stripe in
  let graph =
    Seeded.striped ~seed:cfg.seed ~u:cfg.universe ~v ~d:cfg.degree
  in
  { cfg; machine; disk_offset; block_offset; graph; store }

(* Live records and tombstones (records keyed by the universe size,
   never a legal key) in a block. *)
let census t block =
  let width = t.store.width in
  let live = ref 0 and dead = ref 0 in
  for s = 0 to Codec.Slots.per_block ~block_words:(Array.length block) ~width - 1 do
    match Codec.Slots.read block ~width s with
    | Some r when r.(0) = t.cfg.universe -> incr dead
    | Some _ -> incr live
    | None -> ()
  done;
  (!live, !dead)

(* pdm-lint: domain local — counters of the handle being rebuilt *)
let recover ~machine ~disk_offset ~block_offset cfg =
  let t = create ~machine ~disk_offset ~block_offset cfg in
  (* One counted pass over the structure's blocks: blocks_per_disk
     rounds (all d disks are read in parallel each round). *)
  for b = 0 to blocks_per_disk cfg - 1 do
    let addrs =
      Array.init cfg.degree (fun i ->
          { Pdm.disk = disk_offset + i; block = block_offset + b })
    in
    Array.iter
      (fun block ->
        let live, dead = census t block in
        t.store.size <- t.store.size + live;
        t.store.tombstones <- t.store.tombstones + dead)
      (Pdm.read machine addrs)
  done;
  t

let config t = t.cfg

let graph t = t.graph

let machine t = t.machine

let size t = t.store.size

let record_width t = t.store.width

let slots_per_bucket t = t.store.slots_per_block * t.cfg.bucket_blocks

(* Bucket (stripe i, local j) occupies blocks
   [block_offset + j·bucket_blocks, …+bucket_blocks) of disk
   disk_offset + i. *)
let bucket_addrs t ~stripe ~local =
  Array.init t.cfg.bucket_blocks (fun b ->
      { Pdm.disk = t.disk_offset + stripe;
        block = t.block_offset + (local * t.cfg.bucket_blocks) + b })

let plan_blocks t = Bucket_store.plan_blocks t.store

(* Neighbor i lies in stripe i, at [neighbor - i·width]: its bucket's
   blocks go to plan positions [i·bucket_blocks, …+bucket_blocks). *)
(* pdm-lint: domain local — fills the caller's own plan array *)
let fill_addresses t key dst ~off =
  let bb = t.cfg.bucket_blocks in
  let w = Bipartite.stripe_width t.graph in
  for i = 0 to t.cfg.degree - 1 do
    let first =
      t.block_offset + ((Bipartite.neighbor t.graph key i - (i * w)) * bb)
    in
    for b = 0 to bb - 1 do
      dst.(off + (i * bb) + b) <-
        { Pdm.disk = t.disk_offset + i; block = first + b }
    done
  done

let addresses t key =
  let dst = Array.make (plan_blocks t) { Pdm.disk = 0; block = 0 } in
  fill_addresses t key dst ~off:0;
  dst

(* Plan position [j]: block [j mod bucket_blocks] of the key's bucket
   in stripe [j / bucket_blocks], as [fill_addresses] lays it out. *)
let address t key j =
  let bb = t.cfg.bucket_blocks and i = j / t.cfg.bucket_blocks in
  let w = Bipartite.stripe_width t.graph in
  { Pdm.disk = t.disk_offset + i;
    block =
      t.block_offset + (Bipartite.neighbor t.graph key i mod w * bb) + (j mod bb)
  }

let find_in t key blocks ~off = Bucket_store.find_in t.store key blocks ~off

let fetch t key = Pdm.read_views t.machine (addresses t key)

let read_plans parts =
  let n = Array.length parts in
  let offs = Array.make (n + 1) 0 in
  Array.iteri (fun i (d, _) -> offs.(i + 1) <- offs.(i) + plan_blocks d) parts;
  let addrs = Array.make offs.(n) { Pdm.disk = 0; block = 0 } in
  Array.iteri (fun i (d, key) -> fill_addresses d key addrs ~off:offs.(i)) parts;
  if n = 0 then ([||], offs)
  else (Pdm.read_views (fst parts.(0)).machine addrs, offs)

let find t key = find_in t key (fetch t key) ~off:0

let mem t key = find t key <> None

let prepare_insert t key value blocks ~off =
  let j, block =
    Bucket_store.prepare_insert t.store (Bucket_store.record t.store key value)
      blocks ~off
  in
  (address t key j, block)

let insert t key value =
  let addr, block = prepare_insert t key value (fetch t key) ~off:0 in
  Pdm.write t.machine [ (addr, block) ]

let bulk_load t data =
  if t.store.size > 0 then
    invalid_arg "Basic_dict.bulk_load: dictionary not empty";
  let seen = Hashtbl.create (Array.length data) in
  Array.iter
    (fun (k, _) ->
      if Hashtbl.mem seen k then
        invalid_arg "Basic_dict.bulk_load: duplicate key";
      Hashtbl.add seen k ())
    data;
  if Array.length data > t.cfg.capacity then
    invalid_arg "Basic_dict.bulk_load: over capacity";
  (* Greedy placement in memory: one load per bucket, the same choice
     as insert's (the test "bulk_load matches incremental" holds it to
     that). *)
  let v = t.cfg.degree * t.cfg.buckets_per_stripe in
  let loads = Array.make v 0 in
  let cap = slots_per_bucket t in
  let images : (Pdm.addr, int option array) Hashtbl.t = Hashtbl.create 64 in
  let image_of addr =
    match Hashtbl.find_opt images addr with
    | Some b -> b
    | None ->
      let b = Array.make (Pdm.block_size t.machine) None in
      Hashtbl.add images addr b;
      b
  in
  Array.iter
    (fun (key, value) ->
      let record = Bucket_store.record t.store key value in
      let nbrs = Bipartite.neighbors t.graph key in
      let best = ref nbrs.(0) in
      Array.iter (fun b -> if loads.(b) < loads.(!best) then best := b) nbrs;
      if loads.(!best) >= cap then raise (Overflow key);
      let slot = loads.(!best) in
      loads.(!best) <- slot + 1;
      (* Slot -> (block within bucket, slot within block). *)
      let stripe, local = Bipartite.stripe_of t.graph !best in
      let block_in_bucket = slot / t.store.slots_per_block in
      let addr =
        { Pdm.disk = t.disk_offset + stripe;
          block =
            t.block_offset + (local * t.cfg.bucket_blocks) + block_in_bucket }
      in
      Codec.Slots.write (image_of addr) ~width:t.store.width
        (slot mod t.store.slots_per_block)
        (Some record);
      t.store.size <- t.store.size + 1)
    data;
  let blocks = Hashtbl.fold (fun a b acc -> (a, b) :: acc) images [] in
  if blocks <> [] then Pdm.write t.machine blocks

let tombstones t = t.store.tombstones

let prepare_delete t key blocks ~off =
  Option.map
    (fun (j, block) -> (address t key j, block))
    (Bucket_store.prepare_delete t.store key blocks ~off)

let delete t key =
  match prepare_delete t key (fetch t key) ~off:0 with
  | Some (addr, block) ->
    Pdm.write t.machine [ (addr, block) ];
    true
  | None -> false

let records_of_blocks t blocks =
  List.concat_map
    (fun block ->
      let out = ref [] in
      let width = t.store.width in
      let n = Codec.Slots.per_block ~block_words:(Array.length block) ~width in
      for s = n - 1 downto 0 do
        match Codec.Slots.read block ~width s with
        | Some record when record.(0) <> t.cfg.universe ->
          let value = Codec.Record.value ~value_bytes:t.cfg.value_bytes record in
          out := (record.(0), value) :: !out
        | Some _ | None -> ()
      done;
      !out)
    (Array.to_list blocks)

let bucket_count t = t.cfg.degree * t.cfg.buckets_per_stripe

let global_bucket_addrs t g =
  let stripe = g / t.cfg.buckets_per_stripe in
  let local = g mod t.cfg.buckets_per_stripe in
  bucket_addrs t ~stripe ~local

let read_bucket_entries t g =
  if g < 0 || g >= bucket_count t then
    invalid_arg "Basic_dict.read_bucket_entries: bucket out of range";
  let addrs = global_bucket_addrs t g in
  records_of_blocks t (Pdm.read t.machine addrs)

let drain_bucket t g =
  if g < 0 || g >= bucket_count t then
    invalid_arg "Basic_dict.drain_bucket: bucket out of range";
  let addrs = global_bucket_addrs t g in
  let blocks = Pdm.read t.machine addrs in
  (* Draining physically empties the bucket, releasing tombstones. *)
  let dead = Array.fold_left (fun n b -> n + snd (census t b)) 0 blocks in
  let records = records_of_blocks t blocks in
  if records <> [] || dead > 0 then begin
    let empty = Array.make (Pdm.block_size t.machine) None in
    Pdm.write t.machine
      (List.map (fun a -> (a, Array.copy empty)) (Array.to_list addrs));
    t.store.size <- t.store.size - List.length records;
    t.store.tombstones <- t.store.tombstones - dead
  end;
  records

let entries t =
  let out = ref [] in
  for g = bucket_count t - 1 downto 0 do
    let blocks = Array.map (Pdm.peek t.machine) (global_bucket_addrs t g) in
    out := records_of_blocks t blocks @ !out
  done;
  !out

let clear t =
  let empty = Array.make (Pdm.block_size t.machine) None in
  for g = 0 to bucket_count t - 1 do
    Array.iter (fun a -> Pdm.poke t.machine a empty) (global_bucket_addrs t g)
  done;
  t.store.size <- 0;
  t.store.tombstones <- 0

let bucket_loads t =
  Array.init (bucket_count t) (fun g ->
      Array.fold_left
        (fun acc a ->
          acc + Codec.Slots.count (Pdm.peek t.machine a) ~width:t.store.width)
        0 (global_bucket_addrs t g))

let max_load t = Array.fold_left max 0 (bucket_loads t)
