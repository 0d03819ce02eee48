(** Pluggable per-disk storage backends.

    Each of the D disks of a {!Pdm.t} machine is one backend: a record
    of closures implementing block reads and writes over
    [blocks_per_disk] block slots. The default backend ({!memory}) is
    the original in-memory array; {!Fault.wrap} layers a deterministic
    fault schedule (transient read errors, silent corruption, permanent
    failure, straggling) on top of any backend without the machine — or
    the dictionaries above it — knowing.

    Backends deal in {e raw} block arrays: the machine layer owns all
    copying, so a backend never hands a caller an alias it may mutate
    through the counted API. [peek]/[poke] bypass both accounting and
    fault injection; they exist for tests and bulk loading. *)

type error = { disk : int; block : int; round : int }
(** Where an I/O finally failed. [block] and [round] are [-1] when the
    failure is not tied to a specific block transfer or counted round
    (for instance a write issued outside the round scheduler). *)

exception Disk_failed of error
(** Raised when an I/O needs a permanently failed disk and no replica
    can serve it. *)

exception Retries_exhausted of { disk : int; block : int; attempts : int;
                                 round : int }
(** Raised when a block read kept failing transiently past the
    backend's retry budget and no replica could take over. *)

exception Corrupt_block of error
(** Raised when a block failed its integrity check and no intact
    replica remained. Only machines created with [?integrity] can
    detect — and therefore raise — corruption. *)

val describe : exn -> string option
(** One-line human description of the three structured storage errors
    above ([None] for any other exception) — shared by CLI error
    handlers. *)

type 'a outcome =
  | Data of 'a option array option
      (** Transfer succeeded; [None] = block never written. *)
  | Transient
      (** Transfer failed this attempt; the scheduler re-issues the
          block in a later round (charging that round honestly). *)
  | Lost  (** The disk is permanently gone. *)

type 'a t = {
  name : string;  (** For trace output and error messages. *)
  disk : int;  (** Index of the disk this backend serves. *)
  blocks : int;  (** Capacity in blocks. *)
  read : attempt:int -> int -> 'a outcome;
      (** [read ~attempt b] attempts to fetch block [b]; [attempt]
          numbers retries from 0 so fault schedules are deterministic
          per attempt. The returned array is live — callers copy. *)
  write : int -> 'a option array -> unit;
      (** Store a block the backend may keep (already copied by the
          caller). Raises {!Disk_failed} on a dead disk. *)
  cost : int;
      (** Rounds one block transfer occupies on this disk (1 for a
          healthy disk, k for a k× straggler). *)
  max_retries : int;
      (** Transient-failure budget per block read before
          {!Retries_exhausted}. *)
  peek : int -> 'a option array option;
      (** Uncounted, fault-free raw access (do not mutate). *)
  poke : int -> 'a option array option -> unit;
      (** Uncounted, fault-free raw store. *)
  exists : int -> bool;
      (** Uncounted "was this block ever written" test — cheaper than
          [peek] on backends that would otherwise decode the block. *)
  barrier : unit -> unit;
      (** Durability barrier: returns once every preceding [write] and
          [poke] is on stable storage ([fsync]/[msync] on real-I/O
          backends, a no-op in memory). Uncounted — PDM rounds model
          transfers, not flushes. *)
}

type 'a factory = blocks:int -> slots:int -> (int -> 'a t) option
(** How machine constructors ask for non-default storage without
    knowing its geometry up front: {!Pdm.create} calls the factory with
    the physical blocks-per-disk and slots-per-block it computed
    (including replica rows and integrity overhead) and uses the
    returned per-disk constructor, or the built-in {!memory} disks when
    the factory answers [None] (the "mem" factory). *)

val memory : disk:int -> blocks:int -> 'a t
(** Fresh all-empty in-memory backend — the default disk. Each block is
    kept as the [Data] answer a read returns, so reads allocate
    nothing. *)

val dead : disk:int -> blocks:int -> 'a t
(** A disk killed at run time ({!Pdm.kill_disk}): reads answer [Lost],
    writes raise {!Disk_failed}, and — unlike a {!Fault}-failed disk —
    even [peek] finds nothing: the platter is gone, recovery must come
    from replicas. *)
