(** The parallel disk model machine (Vitter–Shriver).

    A machine has [disks] = D storage devices, each an array of
    [blocks_per_disk] blocks holding [block_size] = B items of type
    ['a]. One parallel I/O transfers at most one block per disk
    (independent-disks model) or at most D blocks in total (parallel
    disk *head* model, Aggarwal–Vitter, used by Section 5's striping
    discussion). Costs are charged to a {!Stats.t}.

    A request touching two blocks on the same disk in the
    independent-disks model is legal but costs two rounds; the
    simulator schedules the request into the fewest rounds possible and
    charges that many.

    Every read takes an array of addresses and answers in positions:
    answer [i] is block [addrs.(i)]. {!read} and {!read_one} answer
    fresh copies the caller owns, and {!read} coalesces a repeated
    address (transferred once, its positions sharing one copy).
    {!read_preferring} and {!read_views} answer read-only views of the
    stored images and reject a repeated address before any I/O.

    Each disk is a first-class {!Backend.t}. The default is the
    original in-memory array; passing [?faults] wraps every disk in a
    deterministic fault schedule ({!Fault}), and passing or attaching
    [?trace] records every parallel round into a {!Trace.t} ring
    buffer.

    {2 Replication, integrity and repair}

    Passing [?replicas:r] stores every logical block on [r] distinct
    disks: replica [j] of logical [{disk = d; block = b}] lives on
    physical disk [(d + j) mod D], in that disk's [j]-th block region
    — the striped-offset version of the paper's d-choice placement,
    deterministic and metadata-free. Reads are served from the first
    replica whose disk is not known to be down; a failed transfer
    fails over to the next replica in one extra pass, so a
    lookup touching one dead disk costs at most 2× its healthy rounds
    (and, once the health cache has seen the disk down, goes straight
    to a survivor). Writes store all [r] replicas in one request and
    tolerate up to [r - 1] dead replica disks.

    Passing [?integrity] seals every stored block with a checksum
    envelope ([overhead] extra cells) and verifies it on every counted
    read: a mangled block reads as a retryable fault, failing over to
    another replica, and only when no intact replica remains does
    {!Backend.Corrupt_block} escape. {!Codec.Checksum} provides the
    standard envelope for [int] machines.

    [?spares] adds hot-spare disks (physical disks [D ..
    D + spares - 1]) that hold no data until {!scrub} re-homes
    replicas from dead or corrupt storage onto them, recording the
    moves in an in-memory remap table (not persisted).

    Every request runs on one round-by-round scheduler, whatever the
    machine's configuration: each round moves at most one block per
    disk, a transiently failed block read is re-issued in a later round
    and a straggling disk's transfers occupy k rounds each, so the
    charged parallel I/Os honestly include retries, slow hardware and
    degraded reads — the structures above the {!read}/{!write} API
    survive unchanged and simply cost more. On healthy disks a request
    costs exactly the closed form of {!rounds_for}, the seed
    simulator's charge. When no replica can serve a block the
    structured exceptions of {!Backend} escape: {!Backend.Disk_failed},
    {!Backend.Retries_exhausted} or {!Backend.Corrupt_block}, each
    carrying disk, block and round.

    Blocks are exposed as ['a option array] images of the {e payload}
    (checksum cells are stripped before the caller sees them): [None]
    marks an empty slot. Mutating a block {!read} returned does not
    change the disk; all updates go through {!write}, so every byte
    that reaches a disk is counted. The views {!read_preferring} and
    {!read_views} answer must not be mutated at all. [peek] and
    [poke] bypass accounting and fault injection and exist for tests
    and construction-time bulk loading only — production code paths
    never use them. *)

type model =
  | Independent_disks  (** one block per disk per round (the PDM) *)
  | Parallel_heads     (** any D blocks per round (disk head model) *)

type 'a t

type addr = { disk : int; block : int }
(** Address of one block. *)

type 'a integrity = {
  tag : string;  (** Envelope name, for error messages and docs. *)
  overhead : int;  (** Extra cells a sealed block carries. *)
  seal : 'a option array -> 'a option array;
      (** [seal payload] returns a fresh stored image (length
          [block_size + overhead]) protecting the payload. *)
  check : 'a option array -> 'a option array option;
      (** [check stored] re-derives the checksum: [Some payload]
          (fresh, length [block_size]) when intact, [None] when the
          stored bits are damaged. *)
}
(** A checksum envelope. [check (seal p) = Some p] must hold for all
    payloads, and any single-cell change to the stored image should
    make [check] answer [None]. *)

val create :
  ?model:model ->
  ?stats:Stats.t ->
  ?trace:Trace.t ->
  ?faults:Fault.spec ->
  ?factory:'a Backend.factory ->
  ?replicas:int ->
  ?spares:int ->
  ?integrity:'a integrity ->
  disks:int ->
  block_size:int ->
  blocks_per_disk:int ->
  unit ->
  'a t
(** Fresh machine with all slots empty. Defaults: [model =
    Independent_disks], a private stats object, no tracing, no faults,
    in-memory backends, [replicas = 1], [spares = 0], no integrity
    envelope. [factory] supplies the disks: [create] calls it with the
    physical blocks-per-disk ([replicas * blocks_per_disk]) and sealed
    slot width it computed, and uses the per-disk constructor it
    answers for each of the [disks + spares] physical disks (capacity
    and disk index must match) — or memory disks when it answers
    [None]. Disks that already hold blocks (a reopened directory) keep
    them, and {!allocated_blocks} starts from their count. [faults]
    wraps whatever backend each disk has. [replicas] must be between 1
    and [disks] so the copies land on distinct disks (and at most 62,
    one bit each in the failover bookkeeping). *)

val disks : 'a t -> int
(** Logical disk count D — the geometry dictionaries address. *)

val block_size : 'a t -> int
val blocks_per_disk : 'a t -> int
val model : 'a t -> model
val stats : 'a t -> Stats.t

val replicas : 'a t -> int
(** Copies stored per logical block (1 = unreplicated). *)

val spares : 'a t -> int
(** Hot-spare disks available to {!scrub} repair. *)

val physical_disks : 'a t -> int
(** [disks + spares] — the machine's real channel count. *)

val integrity : 'a t -> 'a integrity option

val trace : 'a t -> Trace.t option

val set_trace : 'a t -> Trace.t option -> unit
(** Attach or detach a round trace at run time. *)

val faults : 'a t -> Fault.spec option

val backend : 'a t -> int -> 'a Backend.t
(** The backend serving one physical disk (after fault wrapping). *)

val rounds_total : 'a t -> int
(** Parallel rounds executed by this machine since creation — the
    global round ids appearing in trace events. *)

val set_sanitize : bool -> unit
(** Turn the runtime honesty sanitizer on or off (process-global; see
    {!Sanitize}). When on, every machine cross-checks its charging on
    the fly — at most one block per disk per round, every touched
    block accounted, a request that ran without retry, failover or
    slow disk charging exactly its closed-form rounds (re-derived
    independently of the scheduler), integrity envelopes of the
    declared size, and ([read-only-view]) no image {!read_preferring}
    handed out changed before the machine's next {!read},
    {!read_preferring} or {!write} — and raises
    {!Sanitize.Sanitizer_violation} on the first discrepancy.
    Off (the default) the checks cost nothing. Results and charged
    costs are identical with the sanitizer on or off. *)

val sanitize_enabled : unit -> bool

val read : 'a t -> addr array -> 'a option array array
(** [read t addrs] fetches the requested blocks, charging the minimal
    number of parallel read rounds (plus any rounds injected faults,
    retries or replica failover cost). Answer [i] is block [addrs.(i)],
    a fresh copy the caller owns; unwritten blocks read as all-empty.
    A repeated address is transferred once, at its first position, and
    every position naming it shares that one copy. The distinct
    addresses are scheduled in the order of their first occurrence —
    the same on every machine configuration. *)

val read_one : 'a t -> addr -> 'a option array
(** [read_one t a] is [(read t [| a |]).(0)]: exactly one parallel I/O
    (more under faults or failover). *)

val replica_disk : 'a t -> addr -> int -> int
(** [replica_disk t a j] is the physical disk currently holding replica
    [j] of the logical block (following any repair-time remapping).
    A scheduler can combine this with {!disk_down} to place a read on
    the least-loaded healthy copy. [Invalid_argument] unless
    [0 <= j < replicas t]. *)

val replica_disks : 'a t -> addr -> int array -> off:int -> unit
(** [replica_disks t a dst ~off] writes {!replica_disk}[ t a j] into
    [dst.(off + j)] for every replica [j]: a block's copies in one
    call. *)

val replica_addr : 'a t -> addr -> replica:int -> addr
(** The physical address (disk and block) currently holding one
    replica of the logical block, following any repair-time
    remapping. *)

val block_number : 'a t -> addr -> int
(** [block_number t a] is [a.disk * blocks_per_disk t + a.block]: the
    logical block's index in [\[0, disks t * blocks_per_disk t)], for
    callers that keep per-block state in an array. [Invalid_argument]
    for an address out of range, as {!replica_disk} raises. *)

val block_numbers : 'a t -> addr array -> int array -> int
(** [block_numbers t addrs dst] writes {!block_number}[ t addrs.(i)]
    into [dst.(i)] for the longest prefix of [addrs] in range and
    answers its length: a plan's block numbers in one call, leaving
    the caller to raise for the first address out of range (through
    {!block_number}) at the point where it reaches it. *)

val read_preferring : 'a t -> addr array -> int array -> 'a option array array
(** [read_preferring t addrs prefs] is {!read} with the replica choice
    made by the caller: block [addrs.(i)] is served by replica
    [prefs.(i)] when that disk answers, failing over to the remaining
    replicas (in home order) otherwise, and answer [i] is that block.
    Every preference must be a valid replica
    ([0 <= j < replicas t]); then the addresses must be distinct: a
    duplicate raises [Invalid_argument] before any I/O (callers that
    plan with repeats, such as the batched query engine, map each
    distinct address to one position first). Rounds, stats and trace
    events are exactly {!read}'s of the same addresses; on an
    unreplicated machine every preference is 0.

    Unlike {!read}, the answers are not copies: each is the stored
    image itself (checksum cells stripped), or one empty block shared
    by the machine for a never-written address. They are {e read-only}
    — the caller must not write into them — and stay valid snapshots
    after later writes, which store fresh arrays. The sanitizer's
    [read-only-view] check enforces this (see {!set_sanitize}). The
    batched query engine uses this to place each fetch on the
    least-loaded healthy replica disk without copying its blocks. *)

val read_views : 'a t -> addr array -> 'a option array array
(** [read_views t addrs] is [read_preferring t addrs] with every
    preference replica 0: {!read}'s rounds, answered in positions and
    read-only. Dictionaries read a key's probe plan this way and copy
    only the blocks they edit. *)

val write : 'a t -> (addr * 'a option array) list -> unit
(** [write t blocks] stores the given blocks — all replicas of each —
    charging the parallel write rounds the scheduler used. Each array
    must have length [block_size]; duplicate addresses are an error.
    Each block is stored as one fresh image (a copy, or its sealed
    envelope) that all its replicas share, so the caller keeps its
    arrays.
    The write succeeds as long as at least one replica of every block
    lands. *)

val write_one : 'a t -> addr -> 'a option array -> unit

val add_write_listener : 'a t -> (addr -> unit) -> unit
(** Register a callback invoked with the logical address of every
    block whose stored bits change: counted writes (including journal
    replay, which applies through {!write}), uncounted {!poke}s, and
    scrub-repair rewrites. {!Cache} registers one to stay coherent
    with writers that bypass it. Listeners run synchronously, must
    not touch the machine, and cannot be removed — attach them to
    objects that live as long as the machine. *)

val rounds_for : 'a t -> addr list -> int
(** Number of parallel I/Os {!read} would charge for these addresses
    (after coalescing duplicates) on a healthy unreplicated machine,
    without performing the access: the closed form, counted on the
    distinct addresses without the read path's code. On a faulty or
    degraded machine this is the lower bound: retries, straggling and
    failover can only add rounds. *)

val peek : 'a t -> addr -> 'a option array
(** Uncounted, fault-free read of the first intact replica — tests
    and invariant checks only. *)

val poke : 'a t -> addr -> 'a option array -> unit
(** Uncounted, fault-free write (of every replica, sealed) — tests
    and bulk initialisation only. *)

val barrier : 'a t -> unit
(** Durability barrier on every disk: returns once all preceding
    writes are on stable storage (fsync/msync on real-I/O backends, a
    no-op in memory). Uncounted — PDM rounds model block transfers,
    not flushes. The journal issues this at its commit points. *)

val allocated_blocks : 'a t -> int
(** Number of {e physical} blocks ever written (space usage — an
    r-replicated block counts r times). *)

val capacity_items : 'a t -> int
(** D × blocks_per_disk × B (logical payload capacity). *)

val iter_allocated : 'a t -> (addr -> 'a option array -> unit) -> unit
(** Uncounted iteration over written logical blocks (first intact
    replica of each; do not mutate) — used by verification code and
    rebuild bulk readers that account for their I/O separately. *)

(** {2 Failure, damage and repair} *)

val kill_disk : 'a t -> int -> unit
(** Kill a physical disk at run time: its contents are gone (even
    [peek] finds nothing), reads answer Lost and fail over to
    replicas, writes to it are skipped (the block survives on its
    other replicas). Unlike a {!Fault}-failed disk, the platter data
    is destroyed — repair must re-replicate from survivors. *)

val disk_down : 'a t -> int -> bool
(** Health cache: has this machine observed the disk dead? ([true]
    immediately after {!kill_disk}; a {!Fault}-failed disk turns
    [true] the first time a transfer finds it lost.) *)

val disks_down : 'a t -> bool array -> unit
(** [disks_down t dst] copies the health cache into [dst]:
    [dst.(d) = disk_down t d] for every physical disk [d], in one call
    ([dst] has at least {!physical_disks} entries). *)

val damage_stored : 'a t -> addr -> replica:int -> unit
(** Corrupt the stored bits of one replica in place (tests and
    experiments: latent sector rot, as opposed to {!Fault}'s wire
    corruption). Undetectable unless the machine has an [?integrity]
    envelope. No-op on a never-written or destroyed block. *)

val remapped_replicas : 'a t -> int
(** Replicas living away from their home address after repair. *)

type scrub_report = {
  scanned_blocks : int;  (** Logical blocks examined. *)
  intact_replicas : int;  (** Replicas read back and verified. *)
  corrupt_replicas : int;  (** Replicas failing their checksum. *)
  missing_replicas : int;  (** Replicas on dead disks or unreadable. *)
  repaired_replicas : int;  (** Bad replicas rewritten and verified. *)
  remapped_replicas : int;  (** … of which moved to a spare disk. *)
  unrepairable_replicas : int;
      (** Bad replicas with nowhere to go (no spare left) or whose
          repair write could not be verified. *)
  lost_blocks : int;  (** Logical blocks with no intact replica. *)
  scan_rounds : int;  (** Parallel I/Os spent verifying. *)
  repair_rounds : int;  (** Parallel I/Os spent re-replicating. *)
}

val scrub : 'a t -> scrub_report
(** Sweep every allocated logical block: read all its replicas,
    verify integrity, and rewrite every bad replica from an intact
    one — in place when its disk still answers, onto a spare disk
    when it does not. All verification and repair I/O is charged
    through the normal scheduler and reported as the repair budget.
    After a scrub with enough spare capacity, every surviving block
    is back to full replication. The remap table lives in memory
    only: a machine reopened over the same disk files starts with
    every replica at its home address. *)
