module Pdm = Pdm_sim.Pdm
module Striping = Pdm_sim.Striping
module Prng = Pdm_util.Prng
module Imath = Pdm_util.Imath
module Codec = Pdm_dictionary.Codec

type config = {
  universe : int;
  capacity : int;
  value_bytes : int;
  superblocks : int;
  base : int;
  seed : int;
}

type t = {
  cfg : config;
  view : int Striping.t;
  width : int;
  slots : int;           (* record slots per superblock *)
  tomb : int;            (* sentinel key marking a tombstone *)
  mutable size : int;
}

let width_of cfg = Codec.Record.width ~value_bytes:cfg.value_bytes

let plan ?(utilization = 0.5) ~universe ~capacity ~block_words ~disks
    ~value_bytes ~seed () =
  if utilization <= 0.0 || utilization >= 1.0 then
    invalid_arg "Hash_table.plan: utilization in (0,1)";
  let cfg0 =
    { universe; capacity; value_bytes; superblocks = 1; base = 0; seed }
  in
  let slots = disks * block_words / width_of cfg0 in
  if slots < 1 then invalid_arg "Hash_table.plan: record exceeds superblock";
  let total_slots =
    int_of_float (ceil (float_of_int capacity /. utilization))
  in
  { cfg0 with superblocks = max 1 (Imath.cdiv total_slots slots) }

let create ~machine cfg =
  let view = Striping.create machine in
  if cfg.base < 0 || cfg.base + cfg.superblocks > Striping.superblocks view
  then invalid_arg "Hash_table.create: window out of machine";
  let width = width_of cfg in
  let slots = Striping.superblock_size view / width in
  if slots < 1 then invalid_arg "Hash_table.create: record exceeds superblock";
  { cfg; view; width; slots; tomb = cfg.universe; size = 0 }

let config t = t.cfg

let size t = t.size

let home t key = Prng.hash_to_range ~seed:t.cfg.seed key 0 t.cfg.superblocks

let record_of t key value =
  Codec.Record.make ~who:"Hash_table" ~value_bytes:t.cfg.value_bytes key value

(* Probe superblocks from home until [stop] decides; each hop is one
   parallel I/O. *)
let probe t key stop =
  let rec hop sb dist =
    if dist >= t.cfg.superblocks then None
    else begin
      let block = Striping.read t.view (t.cfg.base + sb) in
      match stop sb block dist with
      | Some r -> Some r
      | None ->
        (* An empty (never-used) slot terminates every probe chain. *)
        let has_virgin = ref false in
        for s = 0 to t.slots - 1 do
          if block.(s * t.width) = None then has_virgin := true
        done;
        if !has_virgin then None
        else hop ((sb + 1) mod t.cfg.superblocks) (dist + 1)
    end
  in
  hop (home t key) 0

let find t key =
  probe t key (fun _ block _ ->
      match Codec.Slots.find_key block ~width:t.width ~key with
      | Some s ->
        Option.map
          (Codec.Record.value ~value_bytes:t.cfg.value_bytes)
          (Codec.Slots.read block ~width:t.width s)
      | None -> None)

let mem t key = find t key <> None

let insert t key value =
  if key < 0 || key >= t.cfg.universe then invalid_arg "Hash_table: key range";
  if t.size >= t.slots * t.cfg.superblocks then
    invalid_arg "Hash_table.insert: table full";
  let record = record_of t key value in
  (* One probe pass: update in place when the key is found, otherwise
     place into the first free slot seen — but only once a virgin slot
     proves the key cannot appear further down the chain. Tombstoned
     slots are remembered for reuse. *)
  let candidate = ref None in
  let remember sb s block =
    if !candidate = None then candidate := Some (sb, s, block)
  in
  let rec walk sb dist =
    if dist >= t.cfg.superblocks then `Chain_exhausted
    else begin
      let block = Striping.read t.view (t.cfg.base + sb) in
      match Codec.Slots.find_key block ~width:t.width ~key with
      | Some s ->
        Codec.Slots.write block ~width:t.width s (Some record);
        Striping.write t.view (t.cfg.base + sb) block;
        `Updated
      | None ->
        let virgin = ref false in
        for s = 0 to t.slots - 1 do
          match block.(s * t.width) with
          | None ->
            virgin := true;
            remember sb s block
          | Some k when k = t.tomb -> remember sb s block
          | Some _ -> ()
        done;
        if !virgin then `Absent
        else walk ((sb + 1) mod t.cfg.superblocks) (dist + 1)
    end
  in
  match walk (home t key) 0 with
  | `Updated -> ()
  | `Absent | `Chain_exhausted ->
    (match !candidate with
     | None -> invalid_arg "Hash_table.insert: table full"
     | Some (sb, s, block) ->
       (* The block image from the probe is still current. *)
       Codec.Slots.write block ~width:t.width s (Some record);
       Striping.write t.view (t.cfg.base + sb) block;
       t.size <- t.size + 1)

let delete t key =
  let hit =
    probe t key (fun sb block _ ->
        match Codec.Slots.find_key block ~width:t.width ~key with
        | Some s ->
          let tombstone = Array.make t.width 0 in
          tombstone.(0) <- t.tomb;
          Codec.Slots.write block ~width:t.width s (Some tombstone);
          Striping.write t.view (t.cfg.base + sb) block;
          Some ()
        | None -> None)
  in
  match hit with
  | Some () ->
    t.size <- t.size - 1;
    true
  | None -> false

let probe_distance_now t key =
  (* Uncounted: walk with peeks. *)
  let machine = Striping.machine t.view in
  let b = Pdm.block_size machine and d = Pdm.disks machine in
  let peek_sb sb =
    let out = Array.make (b * d) None in
    for disk = 0 to d - 1 do
      let blk = Pdm.peek machine { Pdm.disk; block = t.cfg.base + sb } in
      Array.blit blk 0 out (disk * b) b
    done;
    out
  in
  let rec hop sb dist =
    if dist >= t.cfg.superblocks then dist
    else begin
      let block = peek_sb sb in
      match Codec.Slots.find_key block ~width:t.width ~key with
      | Some _ -> dist
      | None ->
        let has_virgin = ref false in
        for s = 0 to t.slots - 1 do
          if block.(s * t.width) = None then has_virgin := true
        done;
        if !has_virgin then dist
        else hop ((sb + 1) mod t.cfg.superblocks) (dist + 1)
    end
  in
  hop (home t key) 0

let overflowing_lookups t keys =
  Array.fold_left
    (fun acc k -> if probe_distance_now t k > 0 then acc + 1 else acc)
    0 keys

let max_probe_distance t =
  (* Uncounted diagnostic: the longest run of superblocks with no
     never-used slot bounds every probe chain's length. *)
  let machine = Striping.machine t.view in
  let b = Pdm.block_size machine and d = Pdm.disks machine in
  let full sb =
    let out = Array.make (b * d) None in
    for disk = 0 to d - 1 do
      Array.blit
        (Pdm.peek machine { Pdm.disk; block = t.cfg.base + sb })
        0 out (disk * b) b
    done;
    let virgin = ref false in
    for s = 0 to t.slots - 1 do
      if out.(s * t.width) = None then virgin := true
    done;
    not !virgin
  in
  let best = ref 0 and run = ref 0 in
  for sb = 0 to (2 * t.cfg.superblocks) - 1 do
    if full (sb mod t.cfg.superblocks) then begin
      incr run;
      if !run > !best then best := !run
    end
    else run := 0
  done;
  min !best t.cfg.superblocks
