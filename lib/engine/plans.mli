(** The probe plan of each dictionary that has one, as the
    {!Engine.dict} the batched engine runs. Every serving path — the
    experiment adapters, the simulation adapters, cluster shards and
    the daemon's shards — takes its plan from here. Each [name] is the
    dictionary's experiment label (the CLI [serve] table prints it). *)

val one_probe_static : Pdm_dictionary.One_probe_static.t -> Engine.dict
(** Section 4.2: one fetch of the candidate fields and membership
    buckets, decoded by [find_in]. Static: no [insert] or [delete]. *)

val one_probe_dynamic : Pdm_dictionary.One_probe_dynamic.t -> Engine.dict
(** Section 6: one fetch of every level's probe blocks; inserts and
    deletes run through the dictionary's own update path. *)

val cascade : Pdm_dictionary.Dynamic_cascade.t -> Engine.dict
(** Section 4.3, two phases: membership + A₁ first; a hit at a deeper
    level fetches that level's candidate blocks in a second step,
    which the engine coalesces with the rest of its batch. *)
