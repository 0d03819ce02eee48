exception Overflow of int

type t = {
  name : string;
  value_bytes : int;
  width : int;
  slots_per_block : int;
  bucket_blocks : int;
  buckets : int;
  capacity : int;
  tombstone : int option;
  mutable size : int;
  mutable tombstones : int;
}

let create ~name ~block_words ~value_bytes ~bucket_blocks ~buckets ~capacity
    ~tombstone =
  let width = Codec.Record.width ~value_bytes in
  let slots_per_block = block_words / width in
  if slots_per_block < 1 then
    invalid_arg (name ^ ".create: a record must fit a block");
  { name; value_bytes; width; slots_per_block; bucket_blocks; buckets;
    capacity; tombstone; size = 0; tombstones = 0 }

let plan_blocks t = t.buckets * t.bucket_blocks

let record t key value =
  Codec.Record.make ~who:t.name ~value_bytes:t.value_bytes key value

(* The key's record in a fetched plan: [j * slots_per_block + s] for
   slot [s] of plan position [j], the first match in plan order, or
   -1. *)
let find_slot t key blocks ~off =
  let n = plan_blocks t in
  let j = ref 0 and at = ref (-1) in
  while !at < 0 && !j < n do
    (match Codec.Slots.find_key blocks.(off + !j) ~width:t.width ~key with
     | Some s -> at := (!j * t.slots_per_block) + s
     | None -> ());
    incr j
  done;
  !at

let find_in t key blocks ~off =
  match find_slot t key blocks ~off with
  | -1 -> None
  | at ->
    Option.map
      (Codec.Record.value ~value_bytes:t.value_bytes)
      (Codec.Slots.read
         blocks.(off + (at / t.slots_per_block))
         ~width:t.width (at mod t.slots_per_block))

(* Plan position [j]'s block with slot [s] set to [record]: a copy, as
   the fetched images may be read-only. *)
(* pdm-lint: domain local — staged block edits on per-operation scratch copies *)
let edited t blocks ~off j s record =
  let block = Array.copy blocks.(off + j) in
  Codec.Slots.write block ~width:t.width s record;
  (j, block)

(* pdm-lint: domain local — size accounting on the dictionary's own store *)
let prepare_insert t record blocks ~off =
  let key = record.(0) in
  match find_slot t key blocks ~off with
  | -1 ->
    if t.size >= t.capacity then invalid_arg (t.name ^ ".insert: at capacity");
    (* Greedy k = 1: least-loaded candidate bucket, ties to the first. *)
    let bb = t.bucket_blocks in
    let best = ref 0 and best_load = ref max_int in
    for i = 0 to t.buckets - 1 do
      let load = ref 0 in
      for b = 0 to bb - 1 do
        load := !load + Codec.Slots.count blocks.(off + (i * bb) + b) ~width:t.width
      done;
      if !load < !best_load then begin
        best := i;
        best_load := !load
      end
    done;
    let rec place j =
      if j >= (!best + 1) * bb then raise (Overflow key)
      else
        match Codec.Slots.first_free blocks.(off + j) ~width:t.width with
        | Some s ->
          t.size <- t.size + 1;
          edited t blocks ~off j s (Some record)
        | None -> place (j + 1)
    in
    place (!best * bb)
  | at ->
    (* Update in place when present. *)
    edited t blocks ~off (at / t.slots_per_block) (at mod t.slots_per_block)
      (Some record)

(* pdm-lint: domain local — size and tombstone accounting on the dictionary's own store *)
let prepare_delete t key blocks ~off =
  match find_slot t key blocks ~off with
  | -1 -> None
  | at ->
    let record =
      match t.tombstone with
      | Some dead ->
        t.tombstones <- t.tombstones + 1;
        let r = Array.make t.width 0 in
        r.(0) <- dead;
        Some r
      | None -> None
    in
    t.size <- t.size - 1;
    Some
      (edited t blocks ~off (at / t.slots_per_block) (at mod t.slots_per_block)
         record)
