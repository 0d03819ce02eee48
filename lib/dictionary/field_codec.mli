(** The two field layouts of Theorem 6, as 32-bit words.

    A stored key's satellite data (σ bits) is split across m assigned
    fields of a {!Field_store}. Two encodings are used:

    {b Case (b)} — small blocks: every field carries an identifier of
    [id_bits] = ⌈lg n⌉ bits followed by a fixed-size data chunk. On
    lookup, the identifier appearing in more than half of the d
    fetched fields marks the fields to merge; expansion guarantees the
    majority is unambiguous.

    {b Case (a)} — large blocks: fields carry no identifier. Instead
    each field starts with the unary-coded relative pointer to the
    next assigned field (delta ones then a zero; the tail field starts
    with the zero alone), and the satellite bit stream fills whatever
    space each field has left — so the pointer overhead per key is
    under 2d bits total, at the cost of needing the head pointer
    (⌈lg d⌉ bits, kept in the membership sub-dictionary) to start
    decoding.

    A field of [field_bits] bits is the ⌈field_bits/32⌉ words its cells
    hold: bit [p] of the field is bit [31 - p mod 32] of word [p / 32],
    and the bits past [field_bits] are zero. So the leading ones of a
    case (a) field's first word are its unary pointer, and the data
    bits follow. Encoders build each field's words; decoders read them
    straight from the fetched block cells through a {!view}. [Bytes]
    appears only for the satellite, most significant bit of byte 0
    first. All functions are pure. *)

type view = {
  cells : int option array array;  (** fetched blocks *)
  off : int;  (** field [i]'s first block is [cells.(off + i × groups)] *)
  groups : int;  (** blocks per field *)
  seg_words : int;  (** words of a field held by each of its blocks *)
  base : int -> int;  (** field [i]'s first cell in each of its blocks *)
}
(** Where candidate fields lie in fetched blocks: word [w] of field [i]
    is cell [base i + w mod seg_words] of block
    [cells.(off + i × groups + w / seg_words)]. A field is empty (the
    paper's "empty-field marker") when its first cell is [None]; a
    word of an occupied field that is [None] is corrupt and raises
    [Invalid_argument]. {!Field_store.view} builds the view of a key's
    d candidate fields A[Γ(x)]. *)

val occupied : view -> int -> bool
(** Field [i] is not empty. *)

val field : field_bits:int -> view -> int -> int array option
(** Field [i]'s ⌈field_bits/32⌉ words, or [None] when it is empty. *)

type encoded = (int * int array) list
(** (assigned index, field words) pairs, each field [⌈field_bits/32⌉]
    words. The index is whatever keyspace the caller uses — stripe
    index i for lookups via Γ(x, i), or a global field index during
    construction. *)

val encode_b :
  field_bits:int ->
  id_bits:int ->
  id:int ->
  satellite:Bytes.t ->
  sigma_bits:int ->
  indices:int list ->
  encoded
(** Case (b). Splits [sigma_bits] of satellite into
    [List.length indices] chunks of [field_bits - id_bits] bits (the
    last chunk zero-padded), prefixing each with [id]. Raises
    [Invalid_argument] when the capacity is insufficient or the id
    does not fit. *)

val decode_b :
  field_bits:int ->
  id_bits:int ->
  sigma_bits:int ->
  d:int ->
  view ->
  (int * Bytes.t) option
(** Case (b) lookup over the d candidate fields [0, d) of the view.
    Returns the majority identifier (> d/2 occurrences) and the merged
    satellite, or [None] when there is no majority — i.e. the key is
    absent. *)

val indices_b : id_bits:int -> d:int -> id:int -> view -> int list
(** The candidate fields among [0, d) whose identifier is [id], in
    increasing order: a stored key's own fields (used to rewrite or
    clear them in place). *)

val encode_a :
  field_bits:int ->
  indices:int list ->
  satellite:Bytes.t ->
  sigma_bits:int ->
  encoded
(** Case (a). [indices] must be strictly increasing (positions within
    [0, d)). Raises [Invalid_argument] when a unary pointer does not
    fit its field or the total capacity is short. *)

val decode_a :
  field_bits:int -> head:int -> sigma_bits:int -> view -> Bytes.t option
(** Case (a) lookup: follow the pointer list starting at field [head],
    concatenating each visited field's data remainder. Returns [None]
    if a visited field is empty or the stream ends short — both mean
    the structure does not hold the key (callers consult the
    membership dictionary first, so this is defensive). A field whose
    unary pointer never ends is corrupt and raises [Invalid_argument]. *)

val indices_a : field_bits:int -> head:int -> view -> int list option
(** Follow only the unary pointers from [head], returning the full
    index list (used to rewrite a stored key's satellite in place). *)

val a_capacity_bits : field_bits:int -> indices:int list -> int
(** Data bits case (a) can store in these fields (capacity minus
    pointer overhead); useful for sizing checks and tests. *)
