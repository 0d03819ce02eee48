(** The small-block regime of Section 4.1 (B = o(log N)).

    When a block holds fewer than Θ(log N) records, a one-block bucket
    cannot absorb the load deviation of Lemma 3, and a flat
    multi-block bucket costs ⌈load/B⌉ read rounds. The paper's answer
    is an atomic heap inside each bucket — a word-RAM structure giving
    constant-time bucket operations. In I/O terms we realise the same
    constant-rounds guarantee with a second level of choices:

    - each bucket spans [sub_blocks] (= 4) blocks on its disk;
    - a key has 2 distinct candidate sub-blocks per bucket (seeded
      hashes), so a lookup reads 2d blocks — 2 per disk — in exactly
      2 parallel rounds for {e any} B;
    - insertion runs greedy placement over all 2d candidate
      sub-blocks (a 2d-choice balancing scheme at sub-block
      granularity), keeping every sub-block within its slots.

    This gives 2-round lookups and 3-round updates at block sizes
    where the flat layout needs 4+ rounds — experiment E6 shows the
    crossover. Each candidate sub-block is a one-block bucket of a
    {!Bucket_store}, which holds the records and runs the placement
    rule. *)

type config = {
  universe : int;
  capacity : int;
  degree : int;
  buckets_per_stripe : int;
  sub_blocks : int;       (** blocks per bucket *)
  value_bytes : int;
  seed : int;
}

type t

exception Overflow of int
(** {!Bucket_store.Overflow}: the least-loaded candidate sub-block is
    full. *)

val plan :
  universe:int ->
  capacity:int ->
  block_words:int ->
  degree:int ->
  value_bytes:int ->
  seed:int ->
  unit ->
  config
(** Choose bucket and sub-block counts so each sub-block's expected
    load is its slot count divided by 3 (the multi-choice scheme
    concentrates hard, and {!insert} still raises {!Overflow} if the
    assumption fails). *)

val create :
  machine:int Pdm_sim.Pdm.t -> disk_offset:int -> block_offset:int ->
  config -> t

val blocks_per_disk : config -> int

val config : t -> config

val size : t -> int

val slots_per_sub_block : t -> int

val find : t -> int -> Bytes.t option
(** 2 parallel read rounds, worst case, for any B. *)

val mem : t -> int -> bool

val insert : t -> int -> Bytes.t -> unit
(** 2 read rounds + 1 write round. *)

val delete : t -> int -> bool

val max_sub_block_load : t -> int
(** Uncounted diagnostic. *)
