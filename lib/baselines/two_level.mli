(** The folklore two-level trick (Section 1.1).

    A primary hash table stores every key that does not collide with
    another key at its hashed slot; slots where a collision ever
    happened are marked, and all colliding keys go to a secondary
    dictionary (standing in for the dictionary of [7], here a striped
    hash table with an independent seed). Sizing the primary table
    with a suitably large constant makes the fraction of operations
    touching the secondary arbitrarily small, so lookups and updates
    cost 1 + ɛ and 2 + ɛ I/Os on average, whp — at full bandwidth
    Θ(BD). This is the strongest hashing row of Figure 1.

    Primary slots use a sentinel key ([universe]) as the collision
    marker. Deleting a key never unmarks a slot (the marker must keep
    redirecting lookups of the other colliding keys). *)

type config = {
  universe : int;
  capacity : int;
  value_bytes : int;
  primary_slots : int;
  seed : int;
}

type t

val plan :
  universe:int ->
  capacity:int ->
  block_words:int ->
  disks:int ->
  value_bytes:int ->
  seed:int ->
  unit ->
  config
(** 8 primary slots per expected key: more would mean fewer
    collisions, i.e. smaller ɛ. *)

val create : machine:int Pdm_sim.Pdm.t -> config -> t
(** The primary table uses a leading range of superblocks, the
    secondary the rest of the machine. *)

val superblocks_needed : config -> block_words:int -> disks:int -> int

val config : t -> config

val size : t -> int

val collided_slots : t -> int
(** Diagnostic: primary slots bearing the collision marker. *)

val find : t -> int -> Bytes.t option
(** 1 I/O when the slot answers; +1 when redirected. *)

val mem : t -> int -> bool

val insert : t -> int -> Bytes.t -> unit

val delete : t -> int -> bool
