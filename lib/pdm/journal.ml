module Imath = Pdm_util.Imath
module Prng = Pdm_util.Prng

exception Crashed

type crash_point =
  | Before_log
  | During_log of int
  | After_log
  | After_commit
  | During_apply of int
  | After_apply

type t = {
  machine : int Pdm.t;
  block_offset : int;
  capacity_blocks : int;
  mutable seq : int;
}

(* On-disk layout: one striped region of rows [block_offset ..
   block_offset + rows - 1] across all D logical disks. Row
   [block_offset] holds the header block (on disk 0 only); data slot
   [s] lives at {disk = s mod D; block = block_offset + 1 + s / D},
   so a batch of k blocks logs in ceil(k / D) parallel rounds. The
   header is written strictly after the data and is the commit point:
   the atomicity unit of the model is one block, and the whole header
   fits in one. *)
let rows ~disks ~capacity_blocks = 1 + Imath.cdiv capacity_blocks disks

let header_addr t = { Pdm.disk = 0; block = t.block_offset }

let slot_addr t s =
  { Pdm.disk = s mod Pdm.disks t.machine;
    block = t.block_offset + 1 + (s / Pdm.disks t.machine) }

let magic_committed = 0x10ada
let magic_empty = 0x0e371

(* Header cells: [magic; seq; data blocks; stream length; stream
   checksum]. *)
let header_cells = 5

let create machine ~block_offset ~capacity_blocks =
  if capacity_blocks < 1 then
    invalid_arg "Journal.create: capacity_blocks must be >= 1";
  if block_offset < 0 then
    invalid_arg "Journal.create: block_offset must be >= 0";
  if Pdm.block_size machine < header_cells then
    invalid_arg "Journal.create: block_size too small for the header";
  let needed =
    block_offset + rows ~disks:(Pdm.disks machine) ~capacity_blocks
  in
  if needed > Pdm.blocks_per_disk machine then
    invalid_arg "Journal.create: region exceeds blocks_per_disk";
  { machine; block_offset; capacity_blocks; seq = 0 }

let capacity_blocks t = t.capacity_blocks
let block_offset t = t.block_offset

(* The logged batch is flattened to an int stream: per entry [disk;
   block; B cells], a cell encoded as 0 (empty) or v + 1. The stream
   is padded to whole blocks with zeros; its length and keyed checksum
   ride in the header so a replay can trust what it decodes. *)
let entry_cells b = 2 + b

let checksum_stream cells =
  Array.fold_left (fun h c -> Prng.hash2 ~seed:h c 0x1093) 0x5ca1e cells

let encode t batch =
  let b = Pdm.block_size t.machine in
  let cells =
    List.concat_map
      (fun ({ Pdm.disk; block }, slots) ->
        if Array.length slots <> b then
          invalid_arg "Journal.log_and_apply: block has wrong length";
        disk :: block
        :: Array.to_list
             (Array.map (function None -> 0 | Some v -> v + 1) slots))
      batch
  in
  Array.of_list cells

let decode_stream machine cells =
  let b = Pdm.block_size machine in
  let per = entry_cells b in
  let n = Array.length cells / per in
  List.init n (fun i ->
      let base = i * per in
      let slots =
        Array.init b (fun j ->
            match cells.(base + 2 + j) with 0 -> None | v -> Some (v - 1))
      in
      ({ Pdm.disk = cells.(base); block = cells.(base + 1) }, slots))

let maybe_crash crash here = if crash = Some here then raise Crashed

let write_header t cells =
  let b = Pdm.block_size t.machine in
  let block = Array.make b None in
  Array.iteri (fun i c -> block.(i) <- Some c) cells;
  Pdm.write_one t.machine (header_addr t) block

let clear_header t =
  write_header t [| magic_empty; t.seq |]

(* pdm-lint: domain local — journal sequence advanced only by the owning scheduler thread *)
let log_and_apply t ?crash batch =
  maybe_crash crash Before_log;
  let machine = t.machine in
  let b = Pdm.block_size machine in
  let stream = encode t batch in
  let nblocks = Imath.cdiv (Array.length stream) b in
  if nblocks > t.capacity_blocks then
    invalid_arg "Journal.log_and_apply: batch exceeds journal capacity";
  t.seq <- t.seq + 1;
  let data_block i =
    Array.init b (fun j ->
        let k = (i * b) + j in
        Some (if k < Array.length stream then stream.(k) else 0))
  in
  let data =
    List.init nblocks (fun i -> (slot_addr t i, data_block i))
  in
  (match crash with
   | Some (During_log k) when k < nblocks ->
     (* torn log write: only the first k journal blocks reach disk *)
     List.iteri (fun i blk -> if i < k then Pdm.write machine [ blk ]) data;
     raise Crashed
   | _ -> if data <> [] then Pdm.write machine data);
  (* barrier before the commit record: the log payload must be stable
     before the header can claim it is replayable *)
  Pdm.barrier machine;
  maybe_crash crash After_log;
  write_header t
    [| magic_committed; t.seq; nblocks; Array.length stream;
       checksum_stream stream |];
  (* barrier on the commit point itself: once we start applying, a
     crash must find the committed header on stable storage *)
  Pdm.barrier machine;
  maybe_crash crash After_commit;
  (match crash with
   | Some (During_apply k) when k < List.length batch ->
     List.iteri (fun i blk -> if i < k then Pdm.write machine [ blk ]) batch;
     raise Crashed
   | _ -> if batch <> [] then Pdm.write machine batch);
  (* barrier before the header clears: the applied state must be
     stable before we discard the log that could rebuild it *)
  Pdm.barrier machine;
  maybe_crash crash After_apply;
  clear_header t

let read_header machine ~block_offset =
  let cells =
    Pdm.read_one machine { Pdm.disk = 0; block = block_offset }
  in
  let get i =
    if i < Array.length cells then cells.(i) else None
  in
  match get 0 with
  | Some m when m = magic_committed ->
    (match get 1, get 2, get 3, get 4 with
     | Some seq, Some nblocks, Some len, Some sum ->
       `Committed (seq, nblocks, len, sum)
     | _ -> `Torn)
  | Some m when m = magic_empty -> `Empty
  | None -> `Empty  (* never written: fresh machine *)
  | Some _ -> `Torn

let recover machine ~block_offset ~capacity_blocks =
  let t = create machine ~block_offset ~capacity_blocks in
  match read_header machine ~block_offset with
  | `Empty -> `Clean
  | `Torn ->
    clear_header t;
    `Discarded
  | `Committed (seq, nblocks, len, sum) ->
    t.seq <- seq;
    if nblocks > capacity_blocks || len > nblocks * Pdm.block_size machine
    then begin
      clear_header t;
      `Discarded
    end
    else begin
      let blocks = Pdm.read machine (Array.init nblocks (slot_addr t)) in
      let b = Pdm.block_size machine in
      let cells =
        Array.init len (fun k ->
            match blocks.(k / b).(k mod b) with Some v -> v | None -> 0)
      in
      if checksum_stream cells <> sum then begin
        (* a stale or damaged log must not be replayed *)
        clear_header t;
        `Discarded
      end
      else begin
        let batch = decode_stream machine cells in
        if batch <> [] then Pdm.write machine batch;
        (* replayed state must be stable before the log is discarded *)
        Pdm.barrier machine;
        clear_header t;
        `Replayed (List.length batch)
      end
    end
