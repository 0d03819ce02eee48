(** The Section 4.1 dictionary with large satellite data (k = d/2).

    To return satellite data of up to O(BD / log N) bits in a single
    parallel I/O, the record of a key is split into k = d/2 fragments
    and the load-balancing scheme of Section 3 runs with k items per
    vertex: each fragment goes to a currently least-loaded bucket
    among the key's d neighbor buckets (several fragments may share a
    bucket). A lookup reads the d buckets — one block per disk, one
    parallel I/O — collects the key's fragments and reassembles them
    in fragment order.

    Fragments are tagged records [key; index; payload], so no
    head-pointer machinery is needed; the price relative to
    Section 4.2(a) is the per-fragment key copy, exactly the trade-off
    the paper describes. Updates cost one read round plus one write
    round (all touched buckets sit on distinct disks). *)

type config = {
  universe : int;
  capacity : int;      (** N *)
  degree : int;        (** d; k = d/2 fragments per key, d even, ≥ 4 *)
  sigma_bits : int;    (** satellite bits per key *)
  buckets_per_stripe : int;
  seed : int;
}

type t

exception Overflow of int
(** A fragment found every candidate bucket full: parameters violate
    the Lemma 3 guarantee. *)

val plan :
  ?strategy:[ `Bound | `Average of float ] ->
  universe:int ->
  capacity:int ->
  block_words:int ->
  degree:int ->
  sigma_bits:int ->
  seed:int ->
  unit ->
  config
(** Size buckets (one block each) so the fragment slots accommodate
    the expected load. [`Bound] (default) uses Lemma 3's closed form
    padded by a fixed slack of 1.25 — fully worst-case safe, but
    the bound's additive log term is loose, so it needs large blocks.
    [`Average f] sizes buckets at [f] times the average load kN/v —
    the paper's own parameterization (v = kN/log N with load
    Θ(log N)), relying on the measured concentration of the greedy
    scheme; {!insert} still raises {!Overflow} if the assumption ever
    fails, so experiments remain sound. *)

val create :
  machine:int Pdm_sim.Pdm.t -> disk_offset:int -> block_offset:int ->
  config -> t

val recover :
  machine:int Pdm_sim.Pdm.t -> disk_offset:int -> block_offset:int ->
  config -> t
(** Rebuild a handle over existing disk contents (cf.
    {!Basic_dict.recover}): one counted scan recounts the stored keys
    (fragments ÷ k). *)

val blocks_per_disk : config -> int

val frag_count : config -> int
(** k = d/2. *)

val frag_bits : config -> int
(** ⌈σ / k⌉ payload bits per fragment. *)

val config : t -> config

val machine : t -> int Pdm_sim.Pdm.t

val size : t -> int

val slots_per_bucket : t -> int

val bandwidth_bits : t -> block_words:int -> int
(** Largest σ this geometry supports: k × (payload capacity of a
    fragment slot that still fits the block). Diagnostic for E10. *)

val find : t -> int -> Bytes.t option
(** One parallel I/O. *)

val mem : t -> int -> bool

val insert : t -> int -> Bytes.t -> unit
(** Insert or update in place; 1 read + 1 write round. *)

val delete : t -> int -> bool

val max_load : t -> int
(** Uncounted diagnostic: maximum bucket load in fragments. *)
