(** Greedy placement of records in a key's candidate buckets
    (Section 4.1: Lemma 3's scheme with k = 1).

    A key's probe plan is [buckets] candidate buckets of
    [bucket_blocks] blocks each, laid out bucket after bucket: plan
    position [i × bucket_blocks + b] is block [b] of candidate [i].
    The dictionaries that use this module ({!Basic_dict},
    {!Small_block_dict}, {!Head_model_dict}) differ only in where the
    candidates live and how they are fetched; on the fetched blocks
    they all run the one rule below, on records in {!Codec.Record}'s
    format held in {!Codec.Slots}:

    - a lookup answers the first record with the key, in plan order;
    - an insert of a present key updates its record in place; a new
      key raises [Invalid_argument] at capacity, otherwise takes the
      first free slot of the least-loaded candidate bucket (ties go to
      the earliest) and raises {!Overflow} if that bucket is full;
    - a delete clears the slot, or writes a tombstone record when the
      store keeps tombstones.

    Edits are returned as copies of the fetched blocks, which stay
    untouched, so the caller decides when and with what else to write
    them. Size and tombstone counts are kept here. *)

exception Overflow of int
(** The least-loaded candidate bucket is full — the chosen parameters
    violate the expansion assumption behind Lemma 3. The payload is
    the offending key. *)

type t = {
  name : string;            (** the owning module, named in errors *)
  value_bytes : int;        (** inline satellite bytes per record *)
  width : int;              (** {!Codec.Record.width} of [value_bytes] *)
  slots_per_block : int;
  bucket_blocks : int;      (** blocks per candidate bucket *)
  buckets : int;            (** candidate buckets in a key's plan *)
  capacity : int;           (** live records allowed *)
  tombstone : int option;
      (** [Some k]: a delete leaves a record keyed [k] (never a legal
          key), so no record ever moves; [None]: a delete frees the
          slot *)
  mutable size : int;       (** live records *)
  mutable tombstones : int; (** tombstone records held *)
}

val create :
  name:string -> block_words:int -> value_bytes:int -> bucket_blocks:int ->
  buckets:int -> capacity:int -> tombstone:int option -> t
(** An empty store. Raises [Invalid_argument] when a record does not
    fit a block. *)

val plan_blocks : t -> int
(** buckets × bucket_blocks: the length of a key's plan. *)

val record : t -> int -> Bytes.t -> int array
(** {!Codec.Record.make} with the store's name and value size. *)

val find_in : t -> int -> int option array array -> off:int -> Bytes.t option
(** The key's value in a fetched plan: block [off + j] answers plan
    position [j]. *)

val prepare_insert :
  t -> int array -> int option array array -> off:int ->
  int * int option array
(** Place (or update) a record — its key is its first word — in a
    fetched plan and return the plan position of the one block it
    changes with an edited copy of that block, which the caller must
    write: the size is already counted. *)

val prepare_delete :
  t -> int -> int option array array -> off:int ->
  (int * int option array) option
(** Remove the key from a fetched plan: the changed block's plan
    position and edited copy, or [None] when the key is absent. *)
