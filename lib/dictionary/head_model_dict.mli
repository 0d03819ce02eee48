(** A dictionary for the parallel disk {e head} model (end of §5).

    Explicit expander constructions — including the Section 5
    telescope product — are not striped, so using them in the parallel
    disk model costs a factor d in space (one copy of the right side
    per stripe). The paper notes the alternative: in the parallel disk
    head model (one disk, D independent heads; Aggarwal–Vitter) the
    striped property is unnecessary, because any d blocks can be
    fetched in ⌈d/D⌉ rounds wherever they live.

    This dictionary is the Section 4.1 scheme over an {e arbitrary}
    (possibly unstriped) expander on a [Parallel_heads] machine:
    buckets are laid out row-major over the disks, lookups read the d
    neighbor buckets in ⌈d/D⌉ rounds (1 when D ≥ d), and no right-side
    copies are needed. Combined with {!Pdm_expander.Semi_explicit},
    this realises the paper's "semi-explicit expanders suffice in the
    disk head model without the factor-d space penalty".

    Each neighbor is a one-block bucket of a {!Bucket_store}, which
    holds the records and runs the placement rule. A lookup fetches
    through [Pdm.read]: an unstriped graph can name one bucket twice,
    which [Pdm.read] transfers once and [Pdm.read_views] rejects. *)

type t

exception Overflow of int
(** {!Bucket_store.Overflow}: the least-loaded neighbor bucket is
    full. *)

val create :
  machine:int Pdm_sim.Pdm.t ->
  graph:Pdm_expander.Bipartite.t ->
  capacity:int ->
  value_bytes:int ->
  t
(** The machine must use the [Parallel_heads] model and have at least
    ⌈v / blocks_per_disk⌉ disks... precisely: bucket j lives at disk
    j mod D, block j / D; the machine must fit all v buckets. The
    graph may be striped or not. *)

val config_capacity : t -> int

val size : t -> int

val rounds_per_lookup : t -> int
(** ⌈d / D⌉: the guaranteed lookup cost. *)

val find : t -> int -> Bytes.t option

val mem : t -> int -> bool

val insert : t -> int -> Bytes.t -> unit

val delete : t -> int -> bool

val max_load : t -> int
