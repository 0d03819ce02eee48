(** A batched concurrent query engine in front of any dictionary.

    The paper's load-balancing results are about {e batches}: P
    concurrent lookups on D disks finish in O(P/D) rounds because the
    placement spreads any batch's probes almost evenly ([Theorem 2]'s
    deterministic guarantee). The per-key dictionary APIs of
    {!Pdm_dictionary} serve one request per parallel round and cannot
    exhibit that bound. This engine supplies the missing half of the
    system: simulated clients submit lookup/insert requests into an
    admission queue; a batcher closes batches by size or round
    deadline; a planner maps each request's probe blocks to batch
    slots — one per distinct address, looked up once in an index by
    logical block number — which
    {e coalesces duplicate fetches} across the batch, consults an
    optional {!Pdm_sim.Cache}, and assigns every remaining fetch to
    the least-loaded healthy replica disk; a round executor then packs
    at most one block per disk per round, recording per-request
    latency and mean disk utilization.

    The engine never touches a dictionary's own lookup path — per-key
    {!Pdm_dictionary.One_probe_static.find} etc. charge exactly the
    I/Os they always did. Dictionaries participate through a
    {!type:dict} record whose [lookup] returns a {!type:step}
    (a probe plan with a decode continuation). {!Plans} builds that
    record, once, for each probe-plan dictionary; it lives in this
    library, so the dictionary library still does not depend on the
    engine. *)

type addr = Pdm_sim.Pdm.addr

type blocks = int option array array
(** Fetched blocks in plan positions: block [i] answers address [i] of
    the step's plan, also when the plan names one address twice. They
    are what {!Pdm_sim.Pdm.read_preferring} returns: the machine's
    stored images, not copies, shared between the requests of one
    batch. Continuations must treat them as read-only; under the
    sanitizer, a write into one raises [Sanitizer_violation] (check
    [read-only-view]) at the machine's next counted request. *)

type step =
  | Done of Bytes.t option  (** The answer. *)
  | Fetch of addr array * (blocks -> step)
      (** Probe these blocks, then continue decoding. The continuation
          receives one block per address, in plan order, and may itself
          return another [Fetch] — e.g. the cascade's second-round
          level read. An empty plan continues at once. *)

type dict = {
  name : string;
  machine : int Pdm_sim.Pdm.t;
  lookup : int -> step;
  insert : (int -> Bytes.t -> unit) option;
      (** [None] for static structures. Updates (inserts and deletes)
          run serialized at the front of each batch (their machine
          rounds are charged to the engine clock), so a batch's
          lookups observe its updates. *)
  delete : (int -> bool) option;
      (** [None] for structures without removal. Returns whether the
          key was present. Serialized with inserts at the front of
          each batch, in submission order. *)
}

type request = Lookup of int | Insert of int * Bytes.t | Delete of int

val request_key : request -> int

type config = {
  max_batch : int;        (** close a batch at this many requests *)
  deadline_rounds : int;  (** … or when the oldest has waited this long *)
  cache_blocks : int;     (** LRU blocks in front of the machine; 0 = none *)
}

val default_config : config
(** [{ max_batch = 64; deadline_rounds = 4; cache_blocks = 0 }] *)

type outcome = {
  id : int;                (** ticket from {!submit} *)
  request : request;
  value : Bytes.t option;
      (** lookup answer; [None] for inserts; for deletes, the empty
          value when the key was present and removed, [None] when it
          was absent *)
  submitted : int;         (** engine round at admission *)
  completed : int;         (** engine round when served *)
}

val latency : outcome -> int
(** Rounds from admission to answer — queueing included. *)

exception Request_failed of { id : int; key : int; error : exn }
(** A structured storage error ({!Pdm_sim.Backend.Disk_failed},
    [Corrupt_block], [Retries_exhausted]) surfaced while serving
    request [id]; [error] is the underlying exception. Requests of the
    interrupted batch that were not yet completed are dropped. *)

val deleted_value : bool -> Bytes.t option
(** How delete outcomes encode their found/not-found bit in
    [outcome.value]: [Some Bytes.empty] for a removed key, [None] for
    an absent one. *)

type t

val create : ?config:config -> dict -> t
(** If [config.cache_blocks > 0] the engine owns a
    {!Pdm_sim.Cache.t} on the dictionary's machine (write-invalidated
    by the machine's listener hook, so journal replay and scrub repair
    stay coherent). *)

val dict : t -> dict
val config : t -> config

val submit : t -> request -> int
(** Admit a request, returning its ticket. Runs batches immediately
    when the queue reaches [max_batch]. *)

val pump : t -> unit
(** Run batches while one is due (size or deadline). *)

val drain : t -> unit
(** Run batches until the queue is empty, deadline or not. *)

val idle_round : t -> unit
(** One client-less round: advances the engine clock (aging queued
    requests toward the deadline), then {!pump}s. The duty-cycle knob
    of the [serve] CLI. *)

val take_outcomes : t -> outcome list
(** Completed requests since the last call, sorted by ticket. *)

val run : t -> request list -> (outcome, exn) result list
(** Submit [requests] in order, {!drain}, and answer each in request
    order. A {!Request_failed} yields [Error] carrying it for every
    request it left unanswered (requests completed before it, such as
    the failed batch's updates, stay [Ok]); the engine is then idle and
    the next [run] answers only its own requests. Other exceptions
    propagate. The one submit/drain/answer loop of every shard server. *)

val round : t -> int
(** The engine clock: fetch rounds + insert rounds + idle rounds. *)

val queue_length : t -> int

type stats = {
  rounds : int;           (** = {!round} *)
  fetch_rounds : int;     (** machine rounds spent on batched fetches *)
  insert_rounds : int;    (** machine rounds spent on serialized inserts *)
  blocks_fetched : int;
  requests_served : int;
  batches : int;
  coalesced : int;        (** duplicate block fetches avoided *)
  cache_hits : int;       (** probes served by the engine's cache *)
  total_latency : int;
  max_latency : int;
}

val stats : t -> stats

val mean_utilization : t -> float
(** Mean blocks per executor round (each ≤ D by construction: one
    block per disk per round); compare against D for bandwidth. *)
