(** I/O accounting for the parallel disk model.

    The performance measure of the model — and of every bound in the
    paper — is the number of *parallel I/Os*: rounds in which each of
    the D disks transfers at most one block (or, in the parallel disk
    head model, rounds of at most D blocks in total). This module
    counts those rounds, raw block transfers, and — because the whole
    point of deterministic load balancing is that no single disk
    becomes a hot spot — per-disk block counters, so experiments can
    report balance as well as totals.

    Counters are mutable; {!snapshot} captures an immutable view so the
    cost of a single operation can be measured as a difference. *)

type t

type snapshot = {
  parallel_reads : int;   (** read rounds *)
  parallel_writes : int;  (** write rounds *)
  block_reads : int;      (** individual blocks read *)
  block_writes : int;     (** individual blocks written *)
  disk_reads : int array;   (** blocks read, per disk *)
  disk_writes : int array;  (** blocks written, per disk *)
}

val create : unit -> t

val reset : t -> unit

val add_read_round : t -> blocks:int -> rounds:int -> unit
(** Record [rounds] parallel read I/Os transferring [blocks] blocks in
    total. Used by the simulator; not normally called by clients. *)

val add_write_round : t -> blocks:int -> rounds:int -> unit

val add_disk_reads : t -> int array -> unit
(** [add_disk_reads t per_disk] attributes [per_disk.(d)] read blocks
    to every disk [d] with a positive count: a round's per-disk charge
    in one call. The per-disk arrays grow on demand, up to the highest
    disk charged, so one stats object can serve machines of different
    widths. *)

val add_disk_writes : t -> int array -> unit

val snapshot : t -> snapshot

val diff : after:snapshot -> before:snapshot -> snapshot
(** Component-wise subtraction (per-disk arrays are padded to the
    wider of the two). *)

val parallel_ios : snapshot -> int
(** Total parallel I/Os: read rounds + write rounds. *)

val zero : snapshot

val add : snapshot -> snapshot -> snapshot

val disk_totals : snapshot -> int array
(** Blocks transferred per disk, reads + writes. *)

type occupancy = { max_load : int; mean_load : float }

val occupancy : snapshot -> occupancy option
(** Max and mean of {!disk_totals}; [None] when no per-disk traffic
    was recorded. A max/mean ratio near 1 is a balanced run. *)

val pp : Format.formatter -> snapshot -> unit
(** Totals, plus the max/mean disk-occupancy summary when per-disk
    counters are present. *)

val measure : t -> (unit -> 'a) -> 'a * snapshot
(** [measure stats f] runs [f] and returns its result together with the
    I/O counted during the call. *)
