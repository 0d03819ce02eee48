module Imath = Pdm_util.Imath
module Prng = Pdm_util.Prng

let bits_per_word = 32

let words_for_bits nbits = Imath.cdiv nbits bits_per_word

(* A word holds four whole bytes, most significant first, so both
   directions move a byte at a time. *)
let bytes_per_word = bits_per_word / 8

(* The bits of byte [i] that lie below bit [nbits]. *)
let byte_mask ~nbits i =
  let valid = nbits - (8 * i) in
  if valid >= 8 then 0xff
  else if valid <= 0 then 0
  else (0xff lsl (8 - valid)) land 0xff

let words_of_bits bytes ~nbits =
  if nbits < 0 then invalid_arg "Codec.words_of_bits";
  let nwords = words_for_bits nbits in
  let len = Bytes.length bytes in
  let words = Array.make nwords 0 in
  for w = 0 to nwords - 1 do
    let acc = ref 0 in
    for j = 0 to bytes_per_word - 1 do
      let i = (w * bytes_per_word) + j in
      let byte = if i < len then Char.code (Bytes.get bytes i) else 0 in
      acc := (!acc lsl 8) lor (byte land byte_mask ~nbits i)
    done;
    words.(w) <- !acc
  done;
  words

let bytes_of_words words ~nbits =
  if nbits < 0 || words_for_bits nbits > Array.length words then
    invalid_arg "Codec.bytes_of_words";
  let out = Bytes.create (Imath.cdiv nbits 8) in
  for i = 0 to Bytes.length out - 1 do
    let w = i / bytes_per_word and j = i mod bytes_per_word in
    let byte = (words.(w) lsr (bits_per_word - 8 - (8 * j))) land 0xff in
    Bytes.set out i (Char.chr (byte land byte_mask ~nbits i))
  done;
  out

let words_of_bytes bytes = words_of_bits bytes ~nbits:(8 * Bytes.length bytes)

let bytes_of_words_len words ~len = bytes_of_words words ~nbits:(8 * len)

module Record = struct
  let width ~value_bytes = 1 + words_for_bits (8 * value_bytes)

  (* pdm-lint: domain local — pads the value into a buffer this call allocates *)
  let make ~who ~value_bytes key value =
    if Bytes.length value > value_bytes then
      invalid_arg (who ^ ": value too large");
    let padded = Bytes.make value_bytes '\000' in
    Bytes.blit value 0 padded 0 (Bytes.length value);
    Array.append [| key |] (words_of_bytes padded)

  let value ~value_bytes record =
    bytes_of_words_len
      (Array.sub record 1 (Array.length record - 1))
      ~len:value_bytes
end

module Slots = struct
  let per_block ~block_words ~width =
    if width < 1 then invalid_arg "Codec.Slots.per_block: width";
    block_words / width

  (* Slot scans are plain loops: a lookup scans several blocks and
     allocates nothing per block. *)
  let read block ~width i =
    let base = i * width in
    match block.(base) with
    | None -> None
    | Some _ ->
      let record = Array.make width 0 in
      for j = 0 to width - 1 do
        match block.(base + j) with
        | Some w -> record.(j) <- w
        | None -> invalid_arg "Codec.Slots.read: corrupt slot"
      done;
      Some record

  (* pdm-lint: domain local — codec writes target freshly decoded per-call scratch blocks *)
  let write block ~width i record =
    let base = i * width in
    (match record with
     | None -> for j = 0 to width - 1 do block.(base + j) <- None done
     | Some words ->
       if Array.length words <> width then
         invalid_arg "Codec.Slots.write: record has wrong width";
       for j = 0 to width - 1 do block.(base + j) <- Some words.(j) done)

  let count block ~width =
    let n = per_block ~block_words:(Array.length block) ~width in
    let c = ref 0 in
    for i = 0 to n - 1 do
      if block.(i * width) <> None then incr c
    done;
    !c

  let find_key (block : int option array) ~width ~(key : int) =
    let n = per_block ~block_words:(Array.length block) ~width in
    let i = ref 0 in
    while
      !i < n
      && match block.(!i * width) with Some k -> k <> key | None -> true
    do
      incr i
    done;
    if !i < n then Some !i else None

  let first_free block ~width =
    let n = per_block ~block_words:(Array.length block) ~width in
    let i = ref 0 in
    while
      !i < n && match block.(!i * width) with Some _ -> true | None -> false
    do
      incr i
    done;
    if !i < n then Some !i else None

  let least_loaded blocks ~width =
    let best = ref 0 and fewest = ref max_int in
    Array.iteri
      (fun i block ->
        let n = count block ~width in
        if n < !fewest then begin
          best := i;
          fewest := n
        end)
      blocks;
    !best
end

module Checksum = struct
  let overhead = 1

  (* Position-sensitive keyed fold, so swapped, rotated or altered
     cells all change the sum; empty and zero-valued cells are kept
     distinct by the odd/even encoding. Summing a prefix of a wider
     array gives the same value as summing a copy of that prefix, so
     [check] can verify before allocating the payload — this fold and
     [seal] sit on the per-write sealing path of every checksummed
     machine. *)
  let sum_prefix stored n =
    let h = ref 0x5cab5 in
    for i = 0 to n - 1 do
      let enc =
        match stored.(i) with
        | None -> 0
        | Some v -> (2 * Prng.mix64 v) + 1
      in
      h := Prng.hash2 ~seed:!h i enc
    done;
    !h

  let sum payload = sum_prefix payload (Array.length payload)

  (* One allocation, no intermediate singleton (Array.append built —
     and threw away — a [| Some (sum ...) |] per sealed block). *)
  let seal payload =
    let n = Array.length payload in
    let out = Array.make (n + 1) None in
    Array.blit payload 0 out 0 n;
    out.(n) <- Some (sum payload);
    out

  let check stored =
    let n = Array.length stored in
    if n < 1 then None
    else
      match stored.(n - 1) with
      | None -> None
      | Some c ->
        (* verify first: a damaged block costs no allocation *)
        if sum_prefix stored (n - 1) = c then Some (Array.sub stored 0 (n - 1))
        else None

  let integrity : int Pdm_sim.Pdm.integrity =
    { Pdm_sim.Pdm.tag = "keyed-checksum"; overhead; seal; check }
end
