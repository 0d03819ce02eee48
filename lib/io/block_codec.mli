(** Zero-copy codec between PDM blocks ([int option array] payloads)
    and their on-disk byte image.

    The image is little-endian with fixed offsets — a 16-byte header
    (state magic + slot count), a presence bitmap, then one 8-byte
    two's-complement word per cell — rounded up to the 512-byte sector
    so every block is a legal O_DIRECT transfer unit. Encode and
    decode work directly on a [Bigarray] slice, one typed 8-byte load
    or store per word (byte-swapped on a big-endian host, so the image
    stays little-endian everywhere). An OCaml [int] has 63 bits: a
    cell's word holds it in bits 0..62 and bit 63 is always stored as
    0 and ignored on load. The only allocation on a decode is the
    resulting payload; an encode allocates nothing.

    A never-written block is all zeros, which is exactly what a
    freshly preallocated (ftruncated) file reads as — so "absent" needs
    no separate metadata and a file reopened after a crash declares
    its own contents. *)

type buf =
  (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t
(** Byte buffers all real-I/O paths share: char Bigarrays (c_layout)
    whose data lives outside the OCaml heap, so C stubs and mmap can
    address it directly. *)

val sector : int
(** The O_DIRECT transfer unit (512). Block images are padded to a
    multiple of this; aligned buffers default to this alignment. *)

val bytes_per_block : slots:int -> int
(** On-disk bytes one block of [slots] cells occupies (sector-padded).
    A disk file holds [blocks * bytes_per_block ~slots] bytes. *)

val alloc : int -> buf
(** Fresh zeroed buffer of the given byte length. *)

val aligned : ?align:int -> int -> buf
(** Fresh buffer whose data pointer is [align]-aligned (default
    {!sector}) — O_DIRECT rejects unaligned user buffers. *)

val encode : buf -> off:int -> slots:int -> int option array option -> unit
(** [encode buf ~off ~slots payload] writes the block image at byte
    offset [off]. [None] erases the block (all zeros — the absent
    state). Raises [Invalid_argument] when the payload length is not
    [slots]. Bytes past the last cell, up to the sector, are left as
    they are unless the block is erased. *)

val encode_cells : buf -> off:int -> slots:int -> int option array -> unit
(** [encode_cells buf ~off ~slots cells] is
    [encode buf ~off ~slots (Some cells)] without the option box — the
    backends' counted write path. *)

val decode : buf -> off:int -> slots:int -> int option array option
(** Read the block image at [off]: [None] when absent, otherwise a
    fresh payload array. Raises [Failure] when the stored slot count
    disagrees with [slots] (an existing file with the wrong
    geometry). *)

val written : buf -> off:int -> bool
(** Does the image at [off] hold a written block? Header-only — does
    not decode the cells. *)
