(** Word- and record-level encodings shared by the dictionaries.

    The simulated disks store one machine word (an [int]) per cell;
    block size B is measured in words, as in the paper ("a data item
    is assumed to be sufficiently large to hold a pointer value or a
    key value"). Satellite data enters and leaves the public dictionary
    APIs as [Bytes.t]; internally it is packed into 32-bit words so
    that space accounting stays exact.

    Three layouts are provided:

    - packed bit strings ↔ word arrays ({!words_of_bits},
      {!bytes_of_words}) for the bit-exact fields of Section 4.2;
    - the record format ({!Record}) of every dictionary and baseline
      that stores a key with its value inline: the key word, then the
      value zero-padded to [value_bytes] and packed into 32-bit words;
    - fixed-width records inside a block ({!Slots}) for the bucket
      dictionaries: a record of [width] words occupies [width]
      consecutive cells, the first cell holding the key; an empty slot
      has its first cell equal to [None]. *)

val bits_per_word : int
(** 32: each stored word carries 32 bits of packed payload. *)

val words_for_bits : int -> int
(** ⌈bits / 32⌉. *)

val words_of_bits : Bytes.t -> nbits:int -> int array
(** Pack the first [nbits] bits of the buffer (most significant bit of
    byte 0 first) into 32-bit words. *)

val bytes_of_words : int array -> nbits:int -> Bytes.t
(** Inverse of {!words_of_bits}; the result has ⌈nbits/8⌉ bytes with
    any trailing pad bits cleared. *)

val words_of_bytes : Bytes.t -> int array
(** Pack a whole byte string ([nbits] = 8 × length). *)

val bytes_of_words_len : int array -> len:int -> Bytes.t
(** Unpack exactly [len] bytes. *)

module Record : sig
  val width : value_bytes:int -> int
  (** Words per record: 1 (the key) + ⌈8 × value_bytes / 32⌉. *)

  val make : who:string -> value_bytes:int -> int -> Bytes.t -> int array
  (** [make ~who ~value_bytes key value] is the record of [key] with
      [value] zero-padded to [value_bytes]. Raises
      [Invalid_argument (who ^ ": value too large")] when the value is
      longer. *)

  val value : value_bytes:int -> int array -> Bytes.t
  (** The [value_bytes] bytes a record holds after its key. *)
end

module Slots : sig
  val per_block : block_words:int -> width:int -> int
  (** Records of [width] words that fit in one block (remainder cells
      are wasted, as on a real device). *)

  val read : int option array -> width:int -> int -> int array option
  (** [read block ~width i] is record [i], or [None] for an empty
      slot. Raises if the slot is corrupt (partially filled). *)

  val write : int option array -> width:int -> int -> int array option -> unit
  (** Store or clear record [i] in the in-memory block image. *)

  val count : int option array -> width:int -> int
  (** Occupied slots in the block. *)

  val find_key : int option array -> width:int -> key:int -> int option
  (** Index of the slot whose first word is [key], if any. *)

  val first_free : int option array -> width:int -> int option

  val least_loaded : int option array array -> width:int -> int
  (** Position of the first block with the fewest occupied slots (0
      for no blocks): the greedy choice among a key's candidate
      buckets. *)
end

(** The standard block-integrity envelope for [int] machines: one
    extra cell holding a position-sensitive keyed checksum of the
    payload, so silent corruption — a flipped value, a swapped or
    rotated cell, a damaged checksum — is detected on read and the
    machine fails over to another replica ({!Pdm_sim.Pdm.create}
    [?integrity]). *)
module Checksum : sig
  val overhead : int
  (** 1: a sealed block is [block_size + 1] cells. *)

  val sum : int option array -> int
  (** The keyed checksum of a payload. *)

  val seal : int option array -> int option array
  (** Payload + checksum cell (fresh array). *)

  val check : int option array -> int option array option
  (** [Some payload] when the stored image is intact, else [None]. *)

  val integrity : int Pdm_sim.Pdm.integrity
  (** The envelope, ready to pass to [Pdm.create ?integrity]. *)
end
