(* The four traffic mixes, their inputs, and the answers a correct
   daemon gives. Inputs are a pure function of (workload, seed, op
   count): Sim_gen draws a 2048-key population and the op stream from
   the seed, and the daemon only ever sees the generated frames. *)

module Sim_gen = Pdm_simtest.Sim_gen
module Sim_model = Pdm_simtest.Sim_model
module Trace = Pdm_workload.Trace
module Wire = Pdm_server.Wire

type loop =
  | Closed of int  (** frames kept outstanding *)
  | Open of float  (** ops per second, each op due on a fixed schedule *)

type t = {
  name : string;
  loop : loop;
  frame_ops : int;  (** ops per frame; > 1 sends [Wire.Batch] frames *)
  dist : Sim_gen.dist;
  lookup_fraction : float;
  delete_fraction : float;  (** of the non-lookup ops *)
  nominal_rate : float;
      (** ops per second this machine sustains; a run of S seconds
          issues S × this many ops, so the op stream depends only on
          the seed and S *)
  on_file : bool;
      (** in-process on file-backed disks instead of over TCP to the
          daemon's memory-backed disks *)
}

let point_read =
  { name = "point_read"; loop = Closed 4; frame_ops = 1; dist = Sim_gen.Uniform;
    lookup_fraction = 0.95; delete_fraction = 0.0; nominal_rate = 25000.0;
    on_file = false }

let batch_read =
  { name = "batch_read"; loop = Closed 2; frame_ops = 64;
    dist = Sim_gen.Zipf_skew 1.1; lookup_fraction = 0.95;
    delete_fraction = 0.0; nominal_rate = 31000.0; on_file = false }

let write_mix =
  { name = "write_mix"; loop = Open 4000.0; frame_ops = 1;
    dist = Sim_gen.Uniform; lookup_fraction = 0.5; delete_fraction = 0.2;
    nominal_rate = 4000.0; on_file = false }

let file_batch_read =
  { batch_read with name = "file_batch_read"; loop = Closed 1;
    nominal_rate = 27000.0; on_file = true }

let all = [ point_read; batch_read; write_mix; file_batch_read ]

let find name = List.find_opt (fun w -> w.name = name) all

(* 2048 keys, at most half of the daemon's 4096-key capacity, so no
   write mix can overflow a shard. *)
let key_count = 2048

let spec w ~seed ~count =
  { Sim_gen.seed; universe = Shard_stack.config.universe; key_count; count;
    dist = w.dist; value_bytes = Shard_stack.config.value_bytes;
    lookup_fraction = w.lookup_fraction; delete_fraction = w.delete_fraction;
    static = false }

let op_count w ~seconds ~scale =
  let target = int_of_float (w.nominal_rate *. seconds *. scale) in
  max w.frame_ops (target / w.frame_ops * w.frame_ops)

let wire_op = function
  | Trace.Lookup k -> Wire.Get k
  | Trace.Insert (k, v) -> Wire.Insert (k, v)
  | Trace.Delete k -> Wire.Delete k

(* The timed phase's op stream, kept flat: the GC never scans it, and
   insert payloads are rebuilt on demand (Sim_gen.value_at is what
   Sim_gen.ops stores). Frame [f] is ops [f * frame_ops ..]. *)
type inputs = {
  spec : Sim_gen.spec;
  frame_ops : int;
  keys : int array;
  kinds : Bytes.t;  (** 'g' get, 'i' insert, 'd' delete *)
}

let inputs w ~seed ~count =
  let spec = spec w ~seed ~count in
  let ops = Sim_gen.ops spec in
  { spec; frame_ops = w.frame_ops;
    keys =
      Array.map
        (function Trace.Lookup k | Trace.Insert (k, _) | Trace.Delete k -> k)
        ops;
    kinds =
      Bytes.init (Array.length ops) (fun i ->
          match ops.(i) with
          | Trace.Lookup _ -> 'g'
          | Trace.Insert _ -> 'i'
          | Trace.Delete _ -> 'd') }

let frame_count t = Array.length t.keys / t.frame_ops

let op t i =
  let k = t.keys.(i) in
  match Bytes.get t.kinds i with
  | 'i' -> Trace.Insert (k, Sim_gen.value_at t.spec ~index:i k)
  | 'd' -> Trace.Delete k
  | _ -> Trace.Lookup k

let frame t f =
  List.init t.frame_ops (fun j -> wire_op (op t ((f * t.frame_ops) + j)))

(* The whole population, as 64-insert batch frames. *)
let preload w ~seed =
  let data = Sim_gen.initial_data { (spec w ~seed ~count:0) with static = true } in
  ( data,
    Array.init (Array.length data / 64) (fun f ->
        List.init 64 (fun i ->
            let k, v = data.((f * 64) + i) in
            Wire.Insert (k, v))) )

(* [f frame answers] for every frame, with what a correct daemon
   answers for each of its ops after the preload. A frame's ops reach
   each shard as one engine batch, and Engine runs a batch's updates
   first, in order, then its lookups; keys live on one shard each, so
   applying each frame's updates before its lookups reproduces that. *)
let iter_expected ~data t f =
  let model = Sim_model.of_data data in
  let out = Array.make t.frame_ops Wire.Absent in
  for frame = 0 to frame_count t - 1 do
    let base = frame * t.frame_ops in
    let answer j =
      out.(j) <-
        (match Sim_model.apply model (op t (base + j)) with
         | `Found (Some v) -> Wire.Found v
         | `Found None -> Wire.Absent
         | `Inserted -> Wire.Inserted
         | `Deleted present -> Wire.Deleted present)
    in
    let lookup j = Bytes.get t.kinds (base + j) = 'g' in
    for j = 0 to t.frame_ops - 1 do if not (lookup j) then answer j done;
    for j = 0 to t.frame_ops - 1 do if lookup j then answer j done;
    f frame out
  done
