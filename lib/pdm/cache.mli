(** An LRU buffer cache in front of a machine.

    Real systems keep a block cache in RAM; the introduction's "3 disk
    accesses" B-tree figure already assumes the root is resident. This
    module makes the assumption explicit and measurable: reads served
    from the cache cost nothing, misses are forwarded (and counted) by
    the underlying machine, and writes are write-through (always
    counted) while refreshing the cached copy.

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
    writes that bypass it — journal replay, scrub repair, a second
    handle on the same machine — invalidate the affected blocks
    instead of leaving stale copies behind. The registration lasts for
    the machine's lifetime. *)

val machine : 'a t -> 'a Pdm.t

val capacity : 'a t -> int

val read : 'a t -> Pdm.addr list -> (Pdm.addr * 'a option array) list
(** Hits are free; misses are fetched in one machine request (packed
    into the minimal rounds) and inserted, evicting least recently used
    blocks. Returned arrays are private copies. *)

val read_one : 'a t -> Pdm.addr -> 'a option array

val find_cached : 'a t -> Pdm.addr -> 'a option array option
(** Probe without fetching: [Some copy] (counted as a hit, LRU
    touched) when resident, [None] (counted as a miss) otherwise —
    the machine is never touched. For schedulers that plan their own
    fetches for the misses, like the batched query engine. *)

val note_fetched : 'a t -> Pdm.addr -> 'a option array -> unit
(** Install a block the caller fetched through its own (counted)
    machine request — the companion to {!find_cached}. Counts as
    neither hit nor miss; evicts LRU blocks as needed. *)

val write : 'a t -> (Pdm.addr * 'a option array) list -> unit
(** Write-through: forwarded to the machine and cached. *)

val hits : 'a t -> int

val misses : 'a t -> int

val resident : 'a t -> int
(** Blocks currently cached. *)

val flush : 'a t -> unit
(** Drop all cached blocks (the counters survive). *)
