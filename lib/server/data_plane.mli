(** The daemon's deterministic core: one journal-free
    {!Pdm_cluster.Shard} (one-probe dynamic dictionary + batched
    engine, built by the cluster tier's own shard constructor) per
    shard, behind the same weighted-rendezvous placement the cluster
    tier uses.

    Everything here is seeded and simulation-backed — no sockets, no
    clocks, no randomness — so the multi-domain determinism claim
    reduces to an ordering argument: each shard is owned by exactly
    one worker domain ({!Server}), every shard sees the same op
    sequence whatever the domain count, and therefore answers and
    per-shard [rounds_total] ledgers are byte-identical on 1 vs N
    domains. Durability inside a shard comes from disk-level
    replication + hot spares on the shard's machine, so a
    {!kill_disk} degrades reads to failover replicas and {!scrub}
    restores full redundancy — no cross-shard (hence cross-domain)
    writes exist at all.

    A [t] is created once and its shards are then touched only by
    their owning domains; {!execute}, {!kill_disk} and {!scrub} must
    be called from the shard's owner. {!shard_stats} reads ledgers of
    possibly-running shards and is exact only at quiescence. *)

type config = {
  shards : int;          (** >= 1 *)
  universe : int;
  shard_capacity : int;  (** keys each shard's dictionary plans for *)
  block_words : int;
  value_bytes : int;
  degree : int;          (** per-level disk group, >= 5 *)
  levels : int;
  replicas : int;        (** disk-level copies inside each shard *)
  spares : int;          (** hot-spare disks per shard machine *)
  seed : int;            (** placement + per-shard structure seed *)
  max_batch : int;       (** shard engine batch size *)
}

val default_config : config
(** 2 shards, 2{^20} universe, 256-key shards, 32-word blocks, 8-byte
    values, degree 5, 2 levels, 2 replicas + 1 spare, seed 42,
    batch 64. *)

type t

val create : config -> t
(** Raises [Invalid_argument] on a bad config (shards < 1,
    replicas < 1, shard_capacity < 8). *)

val config : t -> config
val shards : t -> int

val shard_of_key : t -> int -> int
(** Deterministic routing: {!Pdm_cluster.Placement.primary} over a
    standard topology of [config.shards] shards. *)

val execute : t -> shard:int -> Wire.op list -> (Wire.result_, exn) result list
(** Run one batch of operations on one shard through
    {!Pdm_engine.Engine.run}, answers in op order. A structured storage
    failure mid-batch yields [Error] for the failed op and every op of
    the batch that had not completed — never a silent drop. Non-storage
    exceptions propagate. *)

val kill_disk : t -> shard:int -> disk:int -> unit
(** Fail one physical disk of the shard's machine (reads fail over to
    replicas). Raises [Invalid_argument] on an unknown shard/disk. *)

val scrub : t -> shard:int -> Pdm_sim.Pdm.scrub_report
(** Scan-and-repair the shard's machine, restoring redundancy. *)

val shard_stats : t -> Wire.shard_stat list
(** Per-shard [(id, rounds_total, requests_served)] ledgers, in shard
    id order. Exact at quiescence. *)

val blocks_fetched : t -> int
(** Total blocks the shard engines fetched (the ios column of
    BENCH_serve.json). Exact at quiescence. *)
