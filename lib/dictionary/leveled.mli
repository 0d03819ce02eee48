(** What the dynamic dictionaries built from first-fit field arrays
    share: the Section 4.3 cascade and the Section 6 one-probe
    dictionary. A membership dictionary maps each key to its level and
    head stripe; the key claims ⌊2d/3⌋ empty fields among its d
    neighbors in the first level that offers them, written with the
    Section 4.2(a) codec; an optional write-ahead journal makes each
    combined update round atomic. The two differ in where a level's
    candidate blocks come from, which each passes in as
    [level_blocks level = (blocks, off)]: the first read round for
    every level (one-probe) or for level 1 only (cascade). The first
    round, [round], holds the membership buckets at offset 0. *)

exception Overflow of int
(** No level could offer ⌊2d/3⌋ empty fields for the key. *)

val frag_count : int -> int
(** ⌊2d/3⌋: the fields a key claims. *)

val field_bits_of : degree:int -> sigma_bits:int -> int
(** Bits per field: ⌈σ / ⌊2d/3⌋⌉ + 4. *)

val shrink_ratio : float -> float
(** The per-level shrink 6ε for the performance parameter ɛ: the
    largest value with 6ε < 1/(1 + 1/ɛ), and at most 1/2. *)

val level_count : epsilon:float -> capacity:int -> int
(** ⌈log N / log(1/6ε)⌉, at least 1. *)

val level_sizes :
  ratio:float -> levels:int -> degree:int -> v_factor:int -> capacity:int ->
  int array
(** Fields per level: v_factor·N·d shrunk by [ratio] per level, rounded
    up to a multiple of d and at least 16 per stripe. *)

val journal_capacity : degree:int -> block_words:int -> int
(** Journal blocks for the worst update: the membership bucket plus one
    block per claimed field. *)

type t = {
  name : string;  (** the dictionary's module, for error messages *)
  machine : int Pdm_sim.Pdm.t;
  mutable membership : Basic_dict.t;
  membership_disk : int;  (** the membership dictionary's disk offset *)
  arrays : Field_store.t array;  (** levels 1 … l *)
  capacity : int;
  degree : int;
  sigma_bits : int;
  field_bits : int;
  journal : Pdm_sim.Journal.t option;
  mutable crash : Pdm_sim.Journal.crash_point option;
  mutable size : int;
}

val create :
  name:string -> stacked:bool -> journaled:bool -> ?replicas:int ->
  ?spares:int -> ?factory:int Pdm_sim.Backend.factory -> block_words:int ->
  universe:int -> capacity:int -> degree:int -> sigma_bits:int -> seed:int ->
  int array -> t
(** The machine, journal, membership dictionary and one field array per
    entry of the sizes. [stacked]: the levels share disks [0, d), one
    after another, and the membership takes [d, 2d) (the cascade);
    otherwise the membership takes [0, d) and level i disks
    [(i+1)d, (i+2)d) (the one-probe dictionary). *)

val set_crash : t -> Pdm_sim.Journal.crash_point option -> unit

val recover : t -> [ `Clean | `Discarded | `Replayed of int ]
(** Journal recovery, then the membership handle rebuilt from disk. *)

val membership : t -> int -> int option array array -> (int * int) option
(** [(level, head)] of the key, decoded from the first round. *)

val decode :
  t -> int -> level:int -> head:int -> int option array array -> off:int ->
  Bytes.t option
(** The key's satellite from its level's blocks, laid out at [off]. *)

val insert :
  t -> int -> Bytes.t -> int option array array ->
  level_blocks:(int -> int option array array * int) -> unit
(** Rewrite a present key's fields in place, or place it first-fit and
    record it in the membership dictionary: one combined write round.
    Raises {!Overflow} and [Invalid_argument] at capacity. *)

val delete :
  t -> int -> int option array array ->
  level_blocks:(int -> int option array array * int) -> bool
(** Clear the key's fields and drop its membership entry in one
    combined write round; [false] when absent. *)
