(** Deterministic seeded fault injection for disk backends.

    A {!spec} describes, per disk, four failure modes taken from real
    storage arrays:

    - {e transient read errors}: each read attempt of a block fails
      independently with a fixed probability; the scheduler re-issues
      the block in a later round, up to the retry budget;
    - {e silent corruption}: a read attempt "succeeds" but delivers a
      mangled block — undetectable unless the machine carries an
      integrity envelope ({!Pdm.create}[ ?integrity]), in which case
      the checksum failure is retried and, on a replicated machine,
      failed over to another replica;
    - {e permanent failure}: every counted access raises
      {!Backend.Disk_failed};
    - {e straggling}: each block transfer occupies k rounds instead
      of 1, so the disk drags every request it participates in.

    The schedule is a pure function of [(seed, disk, block, attempt)]
    via the SplitMix64 keyed hash, so a run is reproducible bit for
    bit and the {e same} block read fails the {e same} way on every
    replay — no hidden RNG state. *)

type disk_fault = {
  transient_read_prob : float;  (** Per-attempt failure probability. *)
  corrupt_read_prob : float;  (** Per-attempt silent-mangle probability. *)
  fail : bool;  (** Permanently failed disk. *)
  straggle : int;  (** Rounds per transfer (>= 1; 1 = healthy). *)
}

type spec = {
  seed : int;
  max_retries : int;  (** Retry budget per block read. *)
  disks : (int * disk_fault) list;  (** Overrides; absent = healthy. *)
}

val healthy : disk_fault

val spec :
  ?seed:int ->
  ?max_retries:int ->
  ?transient:(int * float) list ->
  ?corrupt:(int * float) list ->
  ?fail:int list ->
  ?stragglers:(int * int) list ->
  unit ->
  spec
(** Build a spec from per-disk lists: [transient] pairs a disk with a
    failure probability, [corrupt] with a silent-corruption
    probability (1.0 allowed: {e every} read of that disk is mangled),
    [stragglers] with a round multiplier, [fail] lists dead disks.
    Defaults: [seed = 0], [max_retries = 8], all disks healthy. *)

val disk_fault : spec -> int -> disk_fault
(** The (possibly healthy) fault description of one disk. *)

val transient_hit : spec -> disk:int -> block:int -> attempt:int -> bool
(** Whether this read attempt fails under the schedule — deterministic
    in all four arguments. *)

val corrupt_hit : spec -> disk:int -> block:int -> attempt:int -> bool
(** Whether this read attempt silently mangles its data —
    deterministic, independently salted from {!transient_hit}. *)

val wrap : spec -> 'a Backend.t -> 'a Backend.t
(** Layer the schedule over a backend: reads consult
    {!transient_hit} and {!corrupt_hit}, a failed disk answers [Lost]
    (and raises on writes), a straggler multiplies [cost].
    [peek]/[poke] pass through unharmed — injected corruption
    lives on the wire, never on the stored data. *)

val is_noop : spec -> bool
(** True when the spec injects nothing (all disks healthy). *)
