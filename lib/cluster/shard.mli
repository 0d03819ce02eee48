(** One shard: a one-probe dynamic dictionary on its own machine and
    the batched engine that serves it. The one constructor behind both
    {!Cluster}'s shards and the daemon's ([Pdm_server.Data_plane]), so
    the two build byte-identical shards from the same arguments. *)

type t = {
  id : int;
  dict : Pdm_dictionary.One_probe_dynamic.t;
  engine : Pdm_engine.Engine.t;
}

val create :
  ?journaled:bool -> ?replicas:int -> ?spares:int ->
  universe:int -> capacity:int -> block_words:int -> value_bytes:int ->
  degree:int -> levels:int -> seed:int -> batch:int -> int -> t
(** [create ... ~seed ~batch id] builds shard [id]. The dictionary's
    structure seed is [Prng.hash2 ~seed 0x5eed id] — keyed by the
    stable shard id, so it does not depend on when the shard joined —
    with [v_factor] 3 and [8 * value_bytes]-bit values; [journaled],
    [replicas] and [spares] go to
    {!Pdm_dictionary.One_probe_dynamic.create}. The engine runs
    {!Pdm_engine.Plans.one_probe_dynamic} and closes a batch at
    [max 1 batch] requests or on drain, never by aging. *)
