(** The dynamic dictionary of Section 4.3 (Theorem 7): full bandwidth
    with 1 + ɛ average-cost lookups.

    The static retrieval structure of Section 4.2(a) is dynamized by
    keeping l = ⌈log N / log(1/(6ε))⌉ field arrays A₁ ⊃ A₂ ⊃ … of
    geometrically decreasing size ((6ε)^{i-1}·v₁ fields), each indexed
    by its own striped expander over the same universe. Insertion is
    first-fit: the key claims ⌊2d/3⌋ currently-empty fields among its
    neighbors in the first array that offers them. Lemma 5 guarantees
    the fraction of keys forced past level i decays like (6ε)^i, so:

    - an unsuccessful search costs exactly 1 parallel I/O (the
      membership dictionary answers in the same round as A₁);
    - a successful search costs 1 I/O for level-1 keys and 2 I/Os
      otherwise — at most 1 + ɛ on average over the stored set;
    - an insertion costs i read rounds (its landing level) plus one
      combined write round — at most 2 + ɛ on average;
    - the worst case is l + 1 = O(log N) I/Os, never linear.

    The membership dictionary (Section 4.1, on d additional disks)
    stores each key's level and head pointer, so every operation's
    first read round covers membership + A₁ together on 2d disks.

    ε is derived from the requested ɛ as the largest value with
    6ε < 1/(1 + 1/ɛ) (and ≤ 1/12), as in the theorem's proof. *)

type config = {
  universe : int;
  capacity : int;        (** N *)
  degree : int;          (** d > 6(1 + 1/ɛ) per Theorem 7 *)
  sigma_bits : int;
  epsilon : float;       (** ɛ: the performance parameter *)
  v_factor : int;        (** v₁ = v_factor · N · d *)
  seed : int;
}

type t

exception Overflow of int
(** No level could offer ⌊2d/3⌋ empty fields — the capacity/expansion
    assumptions are violated. *)

val create :
  ?journaled:bool -> ?replicas:int -> ?spares:int ->
  ?factory:int Pdm_sim.Backend.factory ->
  block_words:int -> config -> t
(** Builds the machine (2d disks) and all levels. [journaled]
    (default false) reserves a write-ahead journal region
    ({!Pdm_sim.Journal}) on the machine and routes every multi-block
    update through it, making updates atomic across crashes at the
    cost of the journal's extra write rounds. [replicas] and [spares]
    (defaults 1 and 0) are forwarded to the machine so a batched
    scheduler can spread reads over replica disks. [factory] selects
    non-default storage for the machine (see {!Pdm_sim.Pdm.create}). *)

val config : t -> config

val machine : t -> int Pdm_sim.Pdm.t

val levels : t -> int
(** l: number of field arrays. *)

val level_fields : t -> int array
(** Fields per level (v₁, v₂, …). *)

val size : t -> int

val level_of : t -> int -> int option
(** Uncounted diagnostic: which level holds a key (1-based). *)

val find : t -> int -> Bytes.t option
(** 1 I/O when absent or stored at level 1; 2 I/Os otherwise. *)

(** {2 Two-phase lookup pieces}

    For schedulers that fetch blocks themselves (the batched query
    engine): fetch {!first_round_addresses}, decode the membership
    answer with {!membership_in}; a hit at level 1 resolves from the
    same blocks via {!decode_in}, deeper levels need one more fetch of
    {!level_addresses} first. *)

val first_round_addresses : t -> int -> Pdm_sim.Pdm.addr array
(** The membership buckets, then A₁'s candidate blocks (what {!find}'s
    first round reads). *)

val membership_in : t -> int -> int option array array -> (int * int) option
(** [(level, head)] when present, decoded from the first round's
    blocks: block [i] answers address [i] of {!first_round_addresses}. *)

val level_addresses : t -> int -> level:int -> Pdm_sim.Pdm.addr array
(** Candidate blocks of A{_level} for the key (1-based level). *)

val decode_in :
  t -> int -> level:int -> head:int -> int option array array ->
  Bytes.t option
(** Reconstruct the record from the fetch holding its level: for level
    1 the first round's blocks (A₁ after the membership buckets), for a
    deeper level the blocks of {!level_addresses}, block [i] answering
    address [i]. {!find}, {!insert} and {!delete} decode their own
    fetches with the same code. *)

val mem : t -> int -> bool
(** Always 1 I/O (membership only... also fetches A₁ in the same
    round, which is free). *)

val insert : t -> int -> Bytes.t -> unit
(** First-fit insertion; updates rewrite the key's existing fields in
    place at its current level. *)

val delete : t -> int -> bool
(** Remove a key: its fields become empty (reusable by first-fit) and
    the membership entry is dropped — one combined write round after
    the usual reads (2 I/Os total for level-1 keys, 3 otherwise). *)

val space_bits : t -> int
(** Total bits across all field arrays plus the membership blocks. *)

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
