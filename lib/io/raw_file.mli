(** One preallocated disk file with positional block I/O.

    The storage subsystem's only Unix surface: open/preallocate,
    [pread]/[pwrite] (C stubs — OCaml's Unix library has neither, and
    a seek+read pair would force an intermediate [Bytes] copy),
    [fsync] and [close]. All transfers go straight between the file
    and a {!Block_codec.buf} data pointer and allocate nothing. *)

type t

val openfile : path:string -> size:int -> ?direct:bool -> unit -> t
(** Open (creating if needed) and preallocate to exactly [size] bytes,
    so reads anywhere inside see zeros — the codec's absent state.
    A file already holding more than [size] bytes is never shrunk:
    [openfile] raises [Failure] naming the path and both sizes, since
    truncating would silently destroy the blocks past [size].
    [direct] requests O_DIRECT; the flag is best-effort and silently
    falls back to buffered I/O where unsupported (check {!direct}).
    The descriptor is closed by a GC finaliser if {!close} is never
    called. Raises [Failure] on I/O errors. *)

val path : t -> string
val size : t -> int

val fresh : t -> bool
(** Whether the file held no bytes when {!openfile} opened it (newly
    created, or empty): it reads as all zeros, so no block in it has
    been written. *)

val direct : t -> bool
(** Whether O_DIRECT actually engaged (not merely requested). *)

val fd : t -> Unix.file_descr
(** The open descriptor (for [Unix.map_file]). Raises [Failure] after
    {!close}. *)

val pread : t -> Block_codec.buf -> pos:int -> len:int -> off:int -> unit
(** Read exactly [len] bytes at file offset [off] into [buf] starting
    at [pos]. Retries interrupted and partial transfers; a genuinely
    short read (impossible inside a preallocated file) raises
    [Failure]. *)

val pwrite : t -> Block_codec.buf -> pos:int -> len:int -> off:int -> unit
(** Write exactly [len] bytes at file offset [off] from [buf] starting
    at [pos]. Same retry/short-transfer contract as {!pread}. *)

val fsync : t -> unit
(** Durability barrier: returns once every completed write on this
    file is on stable storage. *)

val close : t -> unit
(** Close the descriptor (idempotent). The file itself remains. *)
