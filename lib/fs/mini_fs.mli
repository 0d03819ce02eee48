(** A miniature file system on the expander dictionary (§1.2).

    "Note that a dictionary can be used to implement the basic
    functionality of a file system: let keys consist of a file name
    and a block number, and associate them with the contents of the
    given block number of the given file. Note that this
    implementation gives random access to any position in a file. ...
    using a hash table can eliminate the overhead of translating the
    file name into an inode, since the name can be easily hashed as
    well."

    Two Section 4.1 dictionaries implement exactly that:

    - the {b name table} maps a file name (≤ 7 bytes, packed directly
      into a key — no hashing needed at this size) to its inode id and
      current length;
    - the {b block store} maps (inode, block number) to the block's
      contents.

    Costs, in parallel I/Os: opening a file = 1; reading any block of
    an open file = 1 (the paper's headline); a cold random read
    (name + block) = 2 — still under a root-cached B-tree's cost for
    any three-level tree. Renames touch only the name table; data
    blocks never move (inode indirection + the dictionaries'
    stable-placement property). *)

type config = {
  max_files : int;
  max_blocks : int;          (** total data blocks across all files *)
  blocks_per_file : int;     (** maximum file length in blocks *)
  payload_bytes : int;       (** contents per file block *)
  block_words : int;         (** simulated device block size *)
  disks_per_dict : int;      (** expander degree of each dictionary *)
  seed : int;
}

val default_config : config
(** 1024 files, 16384 data blocks, 256 blocks/file, 256-byte payloads,
    B = 64 words, 8 disks per dictionary (16 total). *)

type t

type handle
(** An open file (caches the inode, name key, and current length). *)

val handle_inode : handle -> int

val handle_length : handle -> int
(** Current size in blocks. *)

exception Fs_error of string

val format : config -> t
(** A fresh, empty volume (the machines are created inside). *)

val machines : t -> int Pdm_sim.Pdm.t list
(** The name-table machine and the block-store machine (their stats
    hold all I/O). *)

val io_total : t -> int
(** Parallel I/Os across both machines since [format]. *)

val file_count : t -> int

val create : t -> string -> handle
(** Create an empty file. Raises {!Fs_error} when the name is taken,
    too long (> 7 bytes), empty, or the volume is at [max_files]. *)

val open_file : t -> string -> handle option
(** 1 parallel I/O. *)

val write_block : t -> handle -> int -> Bytes.t -> unit
(** [write_block t h idx data] writes block [idx] (≤ current length —
    writing at [length] appends). In-place overwrites touch only the
    block store (2 I/Os); appends also persist the new length in the
    name table (4 I/Os). Raises {!Fs_error} on holes, length overflow,
    a full volume, or oversized payloads. *)

val read_block : t -> handle -> int -> Bytes.t option
(** 1 parallel I/O: the paper's random access into any file position. *)

val append : t -> handle -> Bytes.t -> int
(** [append t h data] = [write_block] at the current length; returns
    the new block's index. *)

val delete : t -> string -> bool
(** Remove the file and free all its blocks. Costs O(length) I/Os. *)

val rename : t -> old_name:string -> new_name:string -> unit
(** Only the name table is touched; all data blocks stay in place.
    Raises {!Fs_error} when the source is missing or the target
    exists. *)

val stat : t -> string -> int option
(** Length in blocks, or [None]. 1 parallel I/O. *)

val files : t -> (string * int) list
(** Uncounted administrative scan (names and lengths) — deliberately
    not a counted operation: the structures have no directory, which
    is the point. *)

val save : t -> string -> unit
(** [save t dir] writes the volume into directory [dir] (created if
    missing), replacing any volume saved there before: one
    subdirectory of file-backend disk files per machine
    ({!Pdm_io.Store}), flushed to stable storage. Nothing else is
    written — the allocator state is derived on {!load}. The copy is
    charged to throwaway machines, not to [t]. *)

val load : config -> string -> t
(** [load cfg dir] reopens the volume saved in [dir]. The volume it
    returns lives there: its machines sit on the disk files in [dir],
    so every write goes straight to them (durable at
    {!Pdm_sim.Pdm.barrier}) — do not {!save} it back onto [dir]. Both
    dictionaries are recovered from the disk images (a scan each), and
    the next inode and live block count are derived from the name
    table. The config must match the one the volume was formatted
    with. Raises {!Fs_error} when [dir] holds no saved volume. *)
