(** An LRU buffer cache in front of a machine.

    Real systems keep a block cache in RAM; the introduction's "3 disk
    accesses" B-tree figure already assumes the root is resident. This
    module makes the assumption explicit and measurable: reads served
    from the cache cost nothing, and misses are forwarded (and
    counted) by the underlying machine. Writes go to the machine,
    which tells the cache to drop its copy.

    Interesting asymmetry for the paper's story: a B-tree concentrates
    its upper levels into few hot blocks that any small LRU captures,
    while the expander dictionary's accesses are spread uniformly over
    all buckets by design — caching helps it little. Experiment E15
    quantifies both sides.

    The cache's capacity counts blocks; its RAM footprint is
    capacity × B words, which callers can register with
    {!Internal_memory} if they track RAM budgets. *)

type 'a t

val create : 'a Pdm.t -> capacity_blocks:int -> 'a t
(** The cache registers a {!Pdm.add_write_listener} on the machine, so
    every write to it — a dictionary's update, journal replay, scrub
    repair — invalidates the affected blocks instead of leaving stale
    copies behind. The registration lasts for the machine's
    lifetime. *)

val read : 'a t -> Pdm.addr array -> 'a option array array
(** Answer [i] is block [addrs.(i)], as {!Pdm.read} answers. Each
    distinct address counts once, as a hit or a miss. Hits are free
    and served first, in address order; the misses are then fetched in
    address order in one {!Pdm.read} (packed into the minimal rounds)
    and inserted, evicting least recently used blocks. Answers are
    private copies; positions naming one address share one. *)

val find_cached : 'a t -> Pdm.addr -> 'a option array option
(** Probe without fetching: [Some copy] (counted as a hit, LRU
    touched) when resident, [None] (counted as a miss) otherwise —
    the machine is never touched. For schedulers that plan their own
    fetches for the misses, like the batched query engine. *)

val note_fetched : 'a t -> Pdm.addr -> 'a option array -> unit
(** Install a block the caller fetched through its own (counted)
    machine request — the companion to {!find_cached}. Counts as
    neither hit nor miss; evicts LRU blocks as needed. *)

val hits : 'a t -> int

val misses : 'a t -> int

val resident : 'a t -> int
(** Blocks currently cached. *)
