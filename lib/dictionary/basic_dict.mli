(** The basic expander dictionary (Section 4.1, k = 1).

    An array of v buckets is split across d = D disks according to the
    stripes of a striped expander graph; key x may live in any of the
    d buckets Γ(x), one per disk. Insertion runs the deterministic
    load-balancing scheme of Section 3 with k = 1: the key (with its
    inline satellite data) goes to a currently least-loaded neighbor
    bucket. By Lemma 3 the maximum load stays within a constant factor
    of the average, so with v = O(N/B) chosen suitably every bucket
    fits its blocks and:

    - lookups read the d buckets Γ(x) — one block per disk — in
      exactly [bucket_blocks] parallel I/Os (1 when a bucket is one
      block);
    - insertions and deletions add one write round.

    The placement rule, the record slots and the size accounting are
    {!Bucket_store}'s, with the d neighbor buckets as the candidates;
    this module adds the striped layout, the fetch and the
    diagnostics.

    Several dictionaries can share one machine at different disk and
    block offsets; {!fill_addresses} and {!find_in} let a composite
    structure (Sections 4.2a, 4.3, global rebuilding) fetch many
    sub-dictionaries' blocks in a single combined parallel I/O. A
    key's probe plan is positional: block [j] of the fetch answers
    address [j] of the plan, at the offset where the caller put the
    plan. *)

type config = {
  universe : int;          (** size u of the key universe *)
  capacity : int;          (** N: maximum number of keys *)
  degree : int;            (** d: expander degree = disks used *)
  buckets_per_stripe : int;(** w: v = d·w buckets in total *)
  value_bytes : int;       (** inline satellite bytes per key *)
  bucket_blocks : int;     (** blocks per bucket *)
  tombstone : bool;        (** mark deletions instead of freeing slots *)
  seed : int;              (** expander seed *)
}

type t

exception Overflow of int
(** {!Bucket_store.Overflow}, the one exception of the three bucket
    dictionaries: raised by {!insert} when the least-loaded bucket of
    Γ(x) is full — i.e. the chosen parameters violate the expansion
    assumption behind Lemma 3. The payload is the offending key. *)

val plan :
  ?bucket_blocks:int ->
  ?tombstone:bool ->
  universe:int ->
  capacity:int ->
  block_words:int ->
  degree:int ->
  value_bytes:int ->
  seed:int ->
  unit ->
  config
(** Compute a configuration whose buckets ([bucket_blocks] blocks
    each, default 1) are sized so that Lemma 3's bound times a fixed
    slack of 1.25 fits the per-bucket slot count; v is the smallest
    multiple of [degree] that achieves this. Multi-block
    buckets serve the small-B regime: operations then cost
    [bucket_blocks] read rounds — still O(1). *)

val create :
  machine:int Pdm_sim.Pdm.t -> disk_offset:int -> block_offset:int ->
  config -> t
(** The dictionary occupies disks [disk_offset, disk_offset+degree)
    and blocks [block_offset, block_offset + blocks_per_disk config)
    of each. *)

val recover :
  machine:int Pdm_sim.Pdm.t -> disk_offset:int -> block_offset:int ->
  config -> t
(** Rebuild a handle over existing disk contents — the Section 1.1
    claim that there is "no notion of an index structure or central
    directory": everything needed at run time is the configuration
    (universe, sizes, seed). The recovery scan reads every block once
    (⌈blocks_per_disk⌉ parallel I/Os) to recount live records and
    tombstones. *)

val blocks_per_disk : config -> int
(** buckets_per_stripe × bucket_blocks. *)

val config : t -> config

val graph : t -> Pdm_expander.Bipartite.t

val machine : t -> int Pdm_sim.Pdm.t

val size : t -> int

val record_width : t -> int
(** Words per record: 1 (key) + ⌈value bits / 32⌉. *)

val slots_per_bucket : t -> int

val plan_blocks : t -> int
(** d × bucket_blocks: the length of a key's probe plan. *)

val fill_addresses : t -> int -> Pdm_sim.Pdm.addr array -> off:int -> unit
(** [fill_addresses t key dst ~off] writes the blocks a lookup of
    [key] reads into [dst.(off)] … [dst.(off + plan_blocks t - 1)]:
    block [b] of the key's bucket on the dictionary's [i]-th disk at
    [off + i × bucket_blocks + b]. *)

val addresses : t -> int -> Pdm_sim.Pdm.addr array
(** The key's plan in a fresh array ({!fill_addresses} at offset 0). *)

val find_in : t -> int -> int option array array -> off:int -> Bytes.t option
(** Decode a lookup from fetched blocks: block [off + j] answers
    address [j] of {!addresses}. *)

val read_plans : (t * int) array -> int option array array * int array
(** [read_plans [| (d0, k0); (d1, k1); … |]] reads the plans of key
    [ki] in dictionary [di] — all on one machine — side by side in one
    request; [di]'s part starts at offset [i] of the returned offsets,
    for {!find_in} and {!prepare_insert}. *)

val find : t -> int -> Bytes.t option
(** [find t key] = fetch + decode; [bucket_blocks] parallel I/Os. *)

val mem : t -> int -> bool

val prepare_insert :
  t -> int -> Bytes.t -> int option array array -> off:int ->
  Pdm_sim.Pdm.addr * int option array
(** Place (or update) the key in fetched blocks laid out as for
    {!find_in} and return the one modified block: an edited copy, the
    fetched images stay untouched. The caller {b must} write that
    block — composite structures include it in a combined write round
    so a membership update shares the round with their own writes.
    Size accounting happens here, so do not drop the result. *)

val bulk_load : t -> (int * Bytes.t) array -> unit
(** Load many records into an {e empty} dictionary at construction
    cost instead of 2 I/Os each: greedy placement is computed in
    internal memory (in array order — the layout matches inserting the
    same sequence one by one), then every touched block is written in
    ⌈blocks/d⌉ parallel write rounds. Raises [Invalid_argument] if the
    dictionary is non-empty or keys repeat, {!Overflow} if placement
    fails. *)

val insert : t -> int -> Bytes.t -> unit
(** Insert, or update in place when the key is present. Worst case
    [bucket_blocks] read rounds + 1 write round. Raises {!Overflow}
    when the load balancing guarantee is violated, and
    [Invalid_argument] when the value exceeds [value_bytes] or the
    dictionary is at capacity. *)

val prepare_delete :
  t -> int -> int option array array -> off:int ->
  (Pdm_sim.Pdm.addr * int option array) option
(** Remove the key from fetched blocks laid out as for {!find_in},
    returning the modified block as an edited copy (the caller {b must}
    write it) or [None] when absent. Honors tombstone mode; size
    accounting happens here. *)

val delete : t -> int -> bool
(** Remove a key; reports whether it was present. In the default mode
    the slot is freed for reuse. With [tombstone = true] the slot is
    only marked (the paper's alternative that preserves the
    never-move-data property: no record ever changes blocks, at the
    cost of not reclaiming space until a rebuild); tombstones count
    against bucket capacity but never match a lookup. *)

val tombstones : t -> int
(** Marked-deleted slots currently held (0 in reuse mode). *)

val entries : t -> (int * Bytes.t) list
(** Uncounted diagnostic: all (key, value) pairs, bucket order. *)

val read_bucket_entries : t -> int -> (int * Bytes.t) list
(** [read_bucket_entries t g] reads bucket [g] (stripe-major global
    index), counting its block reads, and returns its records — the
    building block of the global-rebuilding transfer cursor. *)

val drain_bucket : t -> int -> (int * Bytes.t) list
(** Like {!read_bucket_entries}, but also empties the bucket (one
    write round) and adjusts the size: the returned records now live
    only with the caller. *)

val bucket_count : t -> int
(** degree × buckets_per_stripe. *)

val clear : t -> unit
(** Uncounted deallocation: empty every bucket and reset the size, as
    when a retired instance's disks are handed back. *)

val bucket_loads : t -> int array
(** Uncounted diagnostic: current load of every bucket (stripe-major
    order), read via [peek]. *)

val max_load : t -> int
(** Uncounted diagnostic: maximum bucket load. *)
