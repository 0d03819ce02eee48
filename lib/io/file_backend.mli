(** File-per-disk storage backend: one preallocated file per disk,
    positional I/O, optional O_DIRECT.

    Block [b] lives at byte offset [b * bytes_per_block] of
    [dir/disk-NNNN.pdm]; every counted read or write moves exactly one
    sector-padded block image through a single reused aligned buffer.
    A read allocates only the decoded payload the backend contract
    requires and its [Data] box; a write allocates nothing. [exists]
    is answered from an in-memory written bitmap that is rebuilt from
    the on-disk block headers when an existing file is reopened —
    which is what makes crash/reopen recovery work: a new process over
    the same directory sees exactly the blocks that reached the file.
    A file that was empty before it was opened is all zeros and is not
    scanned. [barrier] is [fsync], skipped when no write happened
    since the last one. *)

val create :
  dir:string ->
  disk:int ->
  blocks:int ->
  slots:int ->
  ?direct:bool ->
  unit ->
  int Pdm_sim.Backend.t
(** Open (or create) this disk's file under [dir] — the directory must
    exist — preallocated to [blocks] images of [slots] cells each, and
    rebuild the written bitmap from the headers found there. [direct]
    requests O_DIRECT (best-effort; the backend's [name] reports
    ["file:direct"] only when it actually engaged). Geometry must
    match any existing file: a file larger than [blocks] images is
    refused with [Failure] rather than truncated, and decoding a block
    written with a different slot count raises [Failure]. *)

val file_name : disk:int -> string
(** Name of a disk's file inside its directory (["disk-NNNN.pdm"]). *)
