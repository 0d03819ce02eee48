(** The almost-optimal static dictionary of Section 4.2 (Theorem 6).

    n keys with σ bits of satellite data each are stored in an array A
    of v = O(nd) fields so that a lookup fetches the d candidate
    fields A[Γ(x)] — one block per disk — in {b one parallel I/O} and
    reconstructs the record from the ⌈2d/3⌉... (here ⌊2d/3⌋) fields
    assigned to the key.

    Construction peels the key set by unique neighbors: by Lemma 5
    (with λ = 1/3 and ε ≤ 1/12), at least half the remaining keys own
    ≥ 2d/3 unique neighbor fields; those keys are assigned and the
    procedure recurses on the rest, geometrically. Each round is
    realised with external sorts of (neighbor, key) pairs as in the
    paper's "improving the construction" paragraph, so the measured
    construction cost can be compared against the cost of sorting nd
    records (experiment E4).

    Case (a) (B = Ω(log n)): two sub-dictionaries on 2d disks — a
    membership dictionary (Section 4.1) holding each key with its
    ⌈lg d⌉-bit head pointer, and a retrieval array with unary-pointer
    fields ({!Field_codec.encode_a}). Case (b): d disks, identifier
    fields ({!Field_codec.encode_b}). *)

type case = Case_a | Case_b

type config = {
  universe : int;
  capacity : int;     (** n *)
  degree : int;       (** d; must satisfy 2·⌊2d/3⌋ > d, i.e. d ≥ 5 *)
  sigma_bits : int;   (** satellite bits per key *)
  v_factor : int;     (** v = v_factor · capacity · degree (≥ 1) *)
  case : case;
  seed : int;
}

type report = {
  peel_rounds : int;          (** recursion depth of the assignment *)
  construction_ios : int;     (** parallel I/Os: scratch sorts + scans + fill *)
  sort_nd_ios : int;          (** measured cost of one extsort of nd pairs *)
  internal_memory_peak : int; (** words of construction-time internal memory *)
  field_bits : int;           (** size of one field of A *)
  space_bits : int;           (** total bits of A (+ membership, case a) *)
  disks : int;                (** d or 2d *)
}

type t

exception Construction_failure of int
(** Raised when a peeling round assigns no keys (the expander's ε is
    too large for these parameters); carries the number of keys left. *)

val build :
  ?construction:[ `Sorting | `Direct ] ->
  ?replicas:int ->
  ?spares:int ->
  ?factory:int Pdm_sim.Backend.factory ->
  block_words:int -> config -> (int * Bytes.t) array -> t
(** [build ~block_words cfg data] constructs the dictionary over its
    own machine. Keys must be distinct and in [0, universe); each
    satellite must supply at least ⌈sigma_bits/8⌉ bytes. [replicas]
    and [spares] (defaults 1 and 0) are forwarded to the machine:
    with [replicas = r] every block lives on r disks and a batched
    scheduler can serve lookups from whichever replica disk is least
    loaded ({!Pdm_sim.Pdm.read_preferring}).

    [`Sorting] (default) is the paper's "improved" construction: every
    peeling round runs external sorts of (neighbor, key) pairs, so
    internal memory stays at a few blocks. [`Direct] is the paper's
    first construction ("Construction in O(n) I/Os"): each round scans
    the remaining records once (counted) and resolves unique neighbors
    with in-memory tables — fewer I/Os, but Θ(|S_r|·d) words of
    internal memory per round. Both produce the same dictionary;
    experiment E4 compares their measured I/O. *)

val find : t -> int -> Bytes.t option
(** One parallel I/O, always. *)

val probe_addresses : t -> int -> Pdm_sim.Pdm.addr array
(** The blocks {!find} fetches in its single parallel I/O (candidate
    fields, then membership buckets; one per disk). A batched
    scheduler fetches these itself — coalescing duplicates across
    concurrent lookups — and decodes with {!find_in}. *)

val find_in : t -> int -> int option array array -> Bytes.t option
(** Decode a lookup from fetched blocks: block [i] answers address [i]
    of {!probe_addresses}. {!find} decodes its own fetch with the same
    code. *)

val mem : t -> int -> bool

val machine : t -> int Pdm_sim.Pdm.t
(** The machine holding the structure (its stats count lookups). *)

val report : t -> report

val config : t -> config

val frag_count : config -> int
(** ⌊2d/3⌋: fields assigned per key. *)
