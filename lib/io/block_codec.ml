(* Zero-copy block codec: the on-disk image of one PDM block.

   Layout (little-endian, fixed offsets so every field can be encoded
   or decoded in place — no intermediate Bytes):

     bytes 0..7     word0: state magic (0 = absent, MAGIC = present)
     bytes 8..15    word1: slot count (sanity-checked on decode)
     bytes 16..     presence bitmap, ceil(slots/8) bytes
     then           slots x 8-byte two's-complement cells
     padding        up to the next 512-byte sector (O_DIRECT unit)

   Absent cells still occupy their 8 bytes (zeroed) so every cell has
   a fixed offset; a never-written block is all zeros, which is
   exactly what a freshly preallocated (ftruncated) file reads as.

   Every 8-byte word moves with one typed load or store. An OCaml int
   has 63 bits, so a word's bit 63 is always stored as 0 and ignored
   on load: the value lives in bits 0..62, in two's complement. *)

type buf =
  (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

external buf_addr : buf -> nativeint = "caml_pdm_io_buf_addr"

(* Bounds-checked unaligned 8-byte access in host byte order. *)
external get64 : buf -> int -> int64 = "%caml_bigstring_get64"
external set64 : buf -> int -> int64 -> unit = "%caml_bigstring_set64"
external swap64 : int64 -> int64 = "%bswap_int64"

let sector = 512

(* "PDMBLK1\000" as a little-endian word. *)
let magic = 0x00314b4c424d4450

let header_bytes = 16

let bitmap_bytes ~slots = (slots + 7) / 8

let bytes_per_block ~slots =
  if slots < 1 then invalid_arg "Block_codec.bytes_per_block: slots >= 1";
  let raw = header_bytes + bitmap_bytes ~slots + (8 * slots) in
  (raw + sector - 1) / sector * sector

(* [Array1.create] leaves the memory as malloc returned it. *)
let alloc len =
  let buf = Bigarray.Array1.create Bigarray.Char Bigarray.c_layout len in
  Bigarray.Array1.fill buf '\000';
  buf

(* A buffer whose data pointer is [align]-aligned: over-allocate and
   carve the aligned slice. O_DIRECT rejects unaligned user buffers. *)
let aligned ?(align = sector) len =
  let raw = alloc (len + align) in
  let addr = Nativeint.to_int (buf_addr raw) in
  let shift = (align - (addr mod align)) mod align in
  Bigarray.Array1.sub raw shift len

let get_word (buf : buf) off =
  let w = get64 buf off in
  Int64.to_int (if Sys.big_endian then swap64 w else w)

let set_word (buf : buf) off v =
  let w = Int64.logand (Int64.of_int v) Int64.max_int in
  set64 buf off (if Sys.big_endian then swap64 w else w)

let written buf ~off = get_word buf off = magic

(* Images are whole sectors, so whole words. *)
let erase (buf : buf) ~off ~slots =
  for i = 0 to (bytes_per_block ~slots / 8) - 1 do
    set64 buf (off + (8 * i)) 0L
  done

let encode_cells (buf : buf) ~off ~slots cells =
  if Array.length cells <> slots then
    invalid_arg "Block_codec.encode: payload has wrong slot count";
  set_word buf off magic;
  set_word buf (off + 8) slots;
  let bmp = off + header_bytes in
  let data = bmp + bitmap_bytes ~slots in
  (* Each bitmap byte is stored once, after its eight cells. *)
  let bits = ref 0 in
  for i = 0 to slots - 1 do
    (match cells.(i) with
     | None -> set_word buf (data + (8 * i)) 0
     | Some v ->
       bits := !bits lor (1 lsl (i land 7));
       set_word buf (data + (8 * i)) v);
    if i land 7 = 7 || i = slots - 1 then begin
      Bigarray.Array1.set buf (bmp + (i lsr 3)) (Char.unsafe_chr !bits);
      bits := 0
    end
  done

let encode buf ~off ~slots = function
  | None -> erase buf ~off ~slots
  | Some cells -> encode_cells buf ~off ~slots cells

let decode (buf : buf) ~off ~slots =
  if not (written buf ~off) then None
  else begin
    let stored = get_word buf (off + 8) in
    if stored <> slots then
      failwith
        (Printf.sprintf
           "Block_codec.decode: stored slot count %d, expected %d \
            (geometry mismatch with an existing file?)"
           stored slots);
    let bmp = off + header_bytes in
    let data = bmp + bitmap_bytes ~slots in
    let cells = Array.make slots None in
    for i = 0 to slots - 1 do
      let bits = Char.code (Bigarray.Array1.get buf (bmp + (i lsr 3))) in
      if bits land (1 lsl (i land 7)) <> 0 then
        cells.(i) <- Some (get_word buf (data + (8 * i)))
    done;
    Some cells
  end
