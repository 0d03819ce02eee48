(** Uniform closures over every dictionary, for experiments that drive
    many structures through identical workloads (E14 real-time
    percentiles, soak tests). Each constructor builds the structure on
    its own machine at a common (universe, capacity, block size)
    scale; deletions are [None] where unsupported. *)

type t = {
  name : string;
  deterministic : bool;
  find : int -> Bytes.t option;
  insert : int -> Bytes.t -> unit;
  delete : (int -> bool) option;
  size : unit -> int;
  stats : Pdm_sim.Stats.t;
  value_bytes : int;  (** payload size this instance stores *)
}

type scale = {
  universe : int;
  capacity : int;
  block_words : int;
  seed : int;
}

val default_scale : scale
(** universe 2²², capacity 1000, B = 64 words, seed 42. *)

(** Constructors below taking [?factory] pass it to {!Pdm_sim.Pdm.create}
    so the structure's machine can run on a real-I/O storage backend
    (see {!Pdm_io.Store.factory}); omitted, storage is in memory. *)

val basic : ?scale:scale -> ?factory:int Pdm_sim.Backend.factory -> unit -> t
val small_block : ?scale:scale -> unit -> t
val cascade_b : ?scale:scale -> unit -> t
val parallel_instances : ?scale:scale -> unit -> t
val fragmented :
  ?scale:scale -> ?factory:int Pdm_sim.Backend.factory -> unit -> t
val cascade : ?scale:scale -> ?factory:int Pdm_sim.Backend.factory -> unit -> t
val one_probe_dynamic :
  ?scale:scale -> ?factory:int Pdm_sim.Backend.factory -> unit -> t
val global_rebuild : ?scale:scale -> unit -> t
val hash_table :
  ?scale:scale -> ?utilization:float -> ?value_bytes:int ->
  ?factory:int Pdm_sim.Backend.factory -> unit -> t
val cuckoo :
  ?scale:scale -> ?utilization:float -> ?value_bytes:int ->
  ?factory:int Pdm_sim.Backend.factory -> unit -> t
val two_level : ?scale:scale -> unit -> t
val btree : ?scale:scale -> ?factory:int Pdm_sim.Backend.factory -> unit -> t

val all : ?scale:scale -> unit -> t list
(** Every structure at moderate settings. *)

(** {2 Engine adapters}

    Probe-plan views of the dictionaries for the batched query engine
    ({!Pdm_engine.Engine}). [engine_dict] is the dictionary's
    {!Pdm_engine.Plans} plan; [direct_find] is the unchanged per-key
    path so experiments can check the engine's answers against it. *)

type engine_adapter = {
  engine_dict : Pdm_engine.Engine.dict;
  direct_find : int -> Bytes.t option;
}

val engine_one_probe_static :
  ?scale:scale -> ?replicas:int -> ?spares:int -> ?degree:int ->
  ?factory:int Pdm_sim.Backend.factory ->
  data:(int * Bytes.t) array -> unit -> engine_adapter
(** Section 4.2 case (b) on [degree] (default 16) disks; static, so
    [insert = None]. *)

val engine_one_probe_dynamic :
  ?scale:scale -> ?replicas:int -> ?spares:int ->
  ?factory:int Pdm_sim.Backend.factory -> unit -> engine_adapter
(** Section 6 exploration: one-probe plans, engine-served inserts. *)

val engine_cascade :
  ?scale:scale -> ?replicas:int -> ?spares:int ->
  ?factory:int Pdm_sim.Backend.factory -> unit -> engine_adapter
(** Section 4.3: a two-step plan (membership + A₁, then the landing
    level) — exercises the engine's multi-round continuations. *)
