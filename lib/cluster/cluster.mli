(** The sharded cluster front end: one journaled {!Shard} (one-probe
    dynamic dictionary + batched engine) per shard, deterministic
    rendezvous routing, replica failover, and journal-recoverable
    migrations.

    Every key lives on the [replicas] shards {!Placement} assigns it
    (distinct failure domains where the topology allows). Updates
    write all alive replica shards — secondaries first, the primary
    last — and reads are served by the first alive shard of the
    placement, so killing any single shard with [replicas >= 2] keeps
    every key available, and an injected crash on an update's primary
    decides its visibility exactly as the journal protocol promises.

    {b The message plane.} With [net = Some spec] every router↔shard
    exchange goes through the deterministic {!Transport}: per-attempt
    timeouts on a fixed exponential ladder, seeded backoff under a
    bounded retry budget, hedged reads that fall over to the next
    replica after [hedge_after] misses, and write messages carrying
    idempotency tokens so a retry after a lost reply (or a duplicated
    delivery) applies {e at most once}. A write that exhausts its
    budget parks in the target shard's repair queue and piggybacks on
    the next exchange that gets through — a healed partition
    self-repairs. Failover ordering consults the heartbeat-free
    {!Detector} (suspicion from consecutive missed replies) instead of
    the omniscient [alive] flag; suspicion is a routing hint only, and
    clears on the first reply after a heal. With [net = None] (the
    default) behavior is bit-identical to the pre-transport cluster.

    {b Honest round accounting.} Shards are independent machines, so
    a scatter-gathered batch's cluster-level cost is the {e maximum}
    of the per-shard engine round counts it induced — the rounds a
    wall clock would observe with the shards running in parallel —
    while per-shard totals stay available for balance inspection.
    Migration rounds are summed (moves are sequenced through the
    journals). Network time (timeouts, latencies, backoffs) is charged
    separately into [net_rounds], and the sanitizer cross-checks the
    router's charge against the transport's independently accumulated
    {!Transport.ticks}.

    {b Migrations.} [add_shard]/[remove_shard]/[reweight] compute the
    deterministic {!Migration.plan} over the cluster's key set and
    execute it copy-then-delete through the per-shard journals. A
    crash mid-plan leaves the plan in flight: lookups fall back to the
    old placement for keys not yet copied, and {!recover} first
    recovers every shard journal, then re-executes the whole plan —
    idempotent, because re-copying writes the same bytes and
    re-deleting an absent key is a no-op. *)

module Journal = Pdm_sim.Journal

exception Unavailable of int
(** Every replica shard of this key is down. *)

exception Retries_exhausted of { key : int; attempts : int }
(** Every replica shard's read retry budget ran out (reads only —
    writes park in repair queues instead of failing). *)

val describe : exn -> string option
(** Structured one-line description of a cluster error, for CLI error
    reporting; [None] for foreign exceptions. *)

type config = {
  replicas : int;  (** Copies per key, >= 1; bounded by the shard count. *)
  shard_capacity : int;  (** Keys each shard's dictionary plans for. *)
  universe : int;
  block_words : int;
  value_bytes : int;
  journaled : bool;  (** Per-shard write-ahead journals (crash safety). *)
  seed : int;  (** Placement + per-shard structure seed. *)
  degree : int;  (** Per-level disk group of each shard, >= 5. *)
  levels : int;
  batch : int;  (** Per-shard engine batch size. *)
  trace_rounds : int;
      (** Per-shard I/O trace ring capacity, tagged with the shard id
          ({!Pdm_sim.Trace.shard}); 0 = untraced. *)
  net : Transport.spec option;
      (** Deterministic message plane between router and shards;
          [None] = direct calls (bit-identical to the pre-transport
          cluster). *)
}

val default_config : config
(** replicas 2, shard_capacity 256, universe 2{^20}, 32-word blocks,
    8-byte values, unjournaled, seed 42, degree 5, levels 2, batch 64,
    untraced, no transport. *)

type t

val create : ?config:config -> Topology.t -> t
(** Builds one dictionary + engine per shard. Raises
    [Invalid_argument] on a config/topology mismatch (e.g. more
    replicas than shards, or partitions configured with a single
    replica). *)

val topology : t -> Topology.t
val config : t -> config
val shard_ids : t -> int list

val shard_machine : t -> int -> int Pdm_sim.Pdm.t
(** Raises [Invalid_argument] on an unknown shard id. *)

val placement : t -> int -> int list
(** The key's replica shard ids under the current topology, primary
    first. *)

val size : t -> int
(** Distinct live keys (cluster-level, not per-copy). *)

val shard_sizes : t -> (int * int) list
(** [(shard id, keys stored)] ascending by id — the balance view. *)

val find : t -> int -> Bytes.t option
(** First serving replica shard answers; falls back to the old
    placement while a crashed migration is in flight. Under a
    transport the read retries with backoff and hedges across
    replicas in two passes: every candidate gets [hedge_after] quick
    attempts in serving order, then — only if the whole quick pass
    missed — its remaining budget up to [max_attempts], so a demoted
    (suspected) replica can never strand the budget of a healthy one.
    Raises {!Unavailable} if every replica shard is down,
    {!Retries_exhausted} if every one times out. *)

val find_batch : t -> int list -> Bytes.t option list
(** Scatter-gather through the per-shard engines; answers in request
    order, duplicates allowed. Cluster rounds charged as the max over
    the shards involved. Under a transport each group is one logical
    exchange (retried whole); keys of a group that misses its hedge
    threshold fall back to per-key hedged reads. *)

val insert : t -> int -> Bytes.t -> unit
(** Writes every alive replica shard, primary last. *)

val delete : t -> int -> bool
(** Whether the key was present (the primary's answer; the registry's
    answer when the primary's exchange is parked in a repair queue). *)

val kill_shard : t -> int -> unit
(** Fail-stop the shard: marks it dead for routing, kills its
    machine's disks and drops its parked repairs. Raises
    [Invalid_argument] on an unknown id. *)

val shard_down : t -> int -> bool

val suspects : t -> int list
(** Shards the {!Detector} currently suspects (ascending) — empty
    without a transport. *)

val inject_net : t -> Transport.pin -> unit
(** Pin a message fault ({!Transport.pin}) at the {e next} op index —
    the hook the network-schedule explorer fires between ops. Raises
    [Invalid_argument] without a transport. *)

val set_crash : t -> Journal.crash_point option -> unit
(** Arm a crash for the next client update's {e primary-shard}
    journaled write (secondaries complete first). Consumed by that
    update; never consumed by migration moves. [Invalid_argument] on
    an unjournaled cluster. *)

val recover : t -> [ `Clean | `Discarded | `Replayed of int ]
(** Recover every shard journal (outcomes aggregated: sums replays,
    otherwise reports a discard if any, else clean), then re-execute
    any in-flight migration plan, then write-repair every key whose
    update crashed mid-write: secondaries are written before the
    primary, so a crashed primary leaves replicas disagreeing with
    the journal outcome, and a hedged or failover read could serve
    the stale side — recovery forces all alive replicas back to the
    journal-authoritative copy. Running it twice is the same as
    running it once. *)

val migration_in_flight : t -> bool

type migration_report = {
  moved_keys : int;  (** Keys whose replica set changed (data copies). *)
  primary_moves : int;  (** Keys whose primary (routing) changed. *)
  keys_total : int;  (** Keys scanned by the plan. *)
  reads : int;  (** Source copies read. *)
  inserts : int;  (** Replica copies written. *)
  deletes : int;  (** Stale copies dropped. *)
  skipped : int;  (** Moves with no responsive source or no stored value. *)
  rounds : int;  (** Machine rounds summed across shards. *)
}

val add_shard :
  ?crash:int * Journal.crash_point -> t -> Topology.shard -> migration_report
(** Extend the topology and migrate. [?crash:(k, p)] arms crash point
    [p] on the [k]-th move's first journaled write — the hook the
    migration crash explorer enumerates; {!Journal.Crashed} then
    escapes with the plan left in flight (see {!recover}). *)

val remove_shard :
  ?crash:int * Journal.crash_point -> t -> int -> migration_report
(** Drain the shard's keys to their new homes, then drop it. *)

val reweight :
  ?crash:int * Journal.crash_point -> t -> int -> weight:int ->
  migration_report

type stats = {
  shards : int;
  keys : int;
  batches : int;
  batch_rounds : int;  (** Cluster-level rounds of all {!find_batch}es. *)
  net_rounds : int;
      (** Network ticks charged by the router (timeouts, latencies,
          backoffs) — sanitizer-checked against {!Transport.ticks}. *)
  direct_lookups : int;
  retries : int;  (** Exchange attempts beyond each first try. *)
  hedges : int;  (** Reads that moved to the next replica early. *)
  failovers : int;
      (** Reads/writes that skipped a dead or suspected shard. *)
  fallback_hits : int;  (** Lookups answered via the old placement. *)
  suspicions : int;  (** Detector threshold crossings (ever). *)
  heals : int;  (** False-suspicion recoveries. *)
  queued_repairs : int;  (** Writes parked for an unreachable shard. *)
  shard_rounds : (int * int) list;  (** Machine rounds per shard. *)
}

val stats : t -> stats

val transport_stats : t -> Transport.stats option
(** Message-plane counters; [None] without a transport. *)

val trace_events : t -> Pdm_sim.Trace.event list
(** All shards' trace events (each tagged with its shard id) merged
    and sorted by round then shard — empty when [trace_rounds = 0]. *)
