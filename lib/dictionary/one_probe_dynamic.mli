(** An exploration of the Section 6 open problem: full bandwidth,
    worst-case 1-I/O lookups {e and} efficient updates.

    Section 6 asks whether full bandwidth can be achieved with lookup
    in one I/O while supporting efficient updates, and sketches
    applying the load-balancing scheme recursively. This module
    demonstrates that the answer is {b yes, if one extends parallelism
    once more} (the paper's own central trade): take the Section 4.3
    cascade but place every level on its {e own} group of d disks.
    All l levels and the membership dictionary are then read in a
    single parallel round, so

    - every lookup — hit, miss, any level — costs exactly 1 I/O;
    - every insertion costs exactly 2 I/Os (the same combined read,
      then one combined write of the claimed fields + membership);
    - bandwidth is the cascade's Θ(BD_group);

    at the price of (l+1)·d disks and l× the field-array space — a
    concrete data point for the randomness/parallelism trade-off the
    paper proposes, measured in experiment E5's extension. *)

type config = {
  universe : int;
  capacity : int;
  degree : int;        (** d per level group *)
  sigma_bits : int;
  levels : int;        (** l ≥ 1; disks used = (l+1)·d *)
  v_factor : int;
  seed : int;
}

type t

exception Overflow of int

val create :
  ?journaled:bool -> ?replicas:int -> ?spares:int ->
  ?factory:int Pdm_sim.Backend.factory ->
  block_words:int -> config -> t
(** [journaled] (default false) reserves a write-ahead journal region
    ({!Pdm_sim.Journal}) on the machine and routes every multi-block
    update through it, making updates atomic across crashes at the
    cost of the journal's extra write rounds. [replicas] and [spares]
    (defaults 1 and 0) are forwarded to the machine so a batched
    scheduler can spread reads over replica disks. [factory] selects
    non-default storage for the machine (see {!Pdm_sim.Pdm.create}). *)

val config : t -> config

val machine : t -> int Pdm_sim.Pdm.t

val disks : t -> int

val size : t -> int

val find : t -> int -> Bytes.t option
(** Exactly 1 parallel I/O, worst case. *)

val probe_addresses : t -> int -> Pdm_sim.Pdm.addr array
(** The blocks {!find} fetches in its single parallel I/O: the
    membership buckets first, then every level's candidate blocks in
    level order, each part laid out as its {!Basic_dict} or
    {!Field_store} places it. For batched schedulers that fetch
    themselves and decode with {!find_in}. *)

val find_in : t -> int -> int option array array -> Bytes.t option
(** Decode a lookup from fetched blocks: block [i] answers address [i]
    of {!probe_addresses}. {!find}, {!insert} and {!delete} decode
    their own fetch with the same code. *)

val mem : t -> int -> bool

val insert : t -> int -> Bytes.t -> unit
(** Exactly 2 parallel I/Os (1 read + 1 write), worst case. *)

val delete : t -> int -> bool
(** Exactly 2 parallel I/Os when present (1 when absent): the combined
    read, then one combined write clearing the fields and the
    membership entry. *)

val level_of : t -> int -> int option
(** Uncounted diagnostic. *)

val journaled : t -> bool

val set_crash : t -> Pdm_sim.Journal.crash_point option -> unit
(** Arm (or disarm) a crash injection for the next journaled update:
    it will raise {!Pdm_sim.Journal.Crashed} at the given point.
    [Invalid_argument] on a non-journaled dictionary. *)

val recover : t -> [ `Clean | `Discarded | `Replayed of int ]
(** Crash recovery: run {!Pdm_sim.Journal.recover} on the journal
    region, then rebuild the membership handle from disk so the size
    counters match what actually survived. A no-op [`Clean] on a
    non-journaled dictionary. *)
