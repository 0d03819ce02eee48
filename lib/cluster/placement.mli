(** Deterministic weighted-rendezvous placement with failure-domain
    aware replica selection.

    Every shard [s] of weight [w] owns [w] virtual points; the score
    of [s] for key [k] is the maximum of the [w] keyed hashes
    [hash3 ~seed k s.id j] for [j < w]. The key's primary shard is the
    score argmax — so each of the topology's [W] virtual points is
    equally likely to win, and shard [s] serves exactly [w/W] of the
    key space in expectation. Because scores are keyed by {e stable
    shard id} (never by position), adding, removing or reweighting a
    shard only reassigns the keys whose winning point changed: the
    moved fraction under [add_shard s] is [w_s / W'], the rendezvous
    minimal-disruption property the migration plan is measured
    against.

    Integer hashes only — no floats — so placement is bit-identical
    across platforms and processes (the qcheck determinism property
    rebuilds the topology from its spec string and re-derives every
    placement).

    Replicas: shards are ranked by score and the replica set is chosen
    greedily under failure-domain constraints — first pass requires
    distinct racks, a second pass relaxes to distinct hosts, a final
    pass to distinct shards — so [r] copies land as far apart as the
    topology allows, and the selection degrades gracefully on small
    topologies instead of failing. *)

val score : seed:int -> key:int -> Topology.shard -> int
(** Max of the shard's [weight] virtual-point hashes — non-negative,
    62-bit. *)

val rank : Topology.t -> seed:int -> int -> Topology.shard list
(** All shards, best score first; ties (vanishingly rare) broken by
    smaller id. *)

val replicas : Topology.t -> seed:int -> r:int -> int -> int list
(** [replicas topo ~seed ~r key] is the key's replica shard ids, best
    first; the head is the primary. Length [min r (count topo)];
    [r] must be >= 1. *)

val primary : Topology.t -> seed:int -> int -> int
(** Head of {!replicas} and of {!rank}: the highest {!score}, the
    smaller id on a tie, found in one pass over the shards. *)
