(* Spans of the traced replay, kept in preallocated arrays (doubled if
   they fill) so recording one costs two clock reads and a few stores.
   The arrays are Bigarrays: the GC never scans them, so a million
   spans add no marking work to the replays they time. Parents come
   from a span stack: a span opened while another is open is its
   child, which is how the dictionary closures and backend transfers
   that run inside [Engine.drain] nest under it without the engine
   knowing. *)

type name =
  | Frame
  | Encode_request
  | Decode_request
  | Route
  | Job
  | Submit
  | Drain
  | Probe_addresses
  | Find_in
  | Insert
  | Delete
  | Backend_read
  | Backend_write
  | Encode_reply
  | Decode_reply

let all =
  [ Frame; Encode_request; Decode_request; Route; Job; Submit; Drain;
    Probe_addresses; Find_in; Insert; Delete; Backend_read; Backend_write;
    Encode_reply; Decode_reply ]

let label = function
  | Frame -> "frame"
  | Encode_request -> "wire.encode_request"
  | Decode_request -> "wire.decode_request"
  | Route -> "placement.route"
  | Job -> "data_plane.job"
  | Submit -> "engine.submit"
  | Drain -> "engine.drain"
  | Probe_addresses -> "opd.probe_addresses"
  | Find_in -> "opd.find_in"
  | Insert -> "opd.insert"
  | Delete -> "opd.delete"
  | Backend_read -> "backend.read"
  | Backend_write -> "backend.write"
  | Encode_reply -> "wire.encode_reply"
  | Decode_reply -> "wire.decode_reply"

module A = Bigarray.Array1

type ints = (int, Bigarray.int_elt, Bigarray.c_layout) A.t

type t = {
  mutable names : ints;  (** index in [all] *)
  mutable starts : ints;
  mutable stops : ints;
  mutable parents : ints;
  mutable frames : ints;
  stack : int array;
  mutable depth : int;
  mutable count : int;
  mutable frame : int;
}

let max_depth = 16

let ints n : ints = A.create Bigarray.int Bigarray.c_layout n

let create ~capacity =
  { names = ints capacity; starts = ints capacity; stops = ints capacity;
    parents = ints capacity; frames = ints capacity;
    stack = Array.make max_depth (-1); depth = 0; count = 0; frame = 0 }

(* Position in [all]. *)
let index = function
  | Frame -> 0
  | Encode_request -> 1
  | Decode_request -> 2
  | Route -> 3
  | Job -> 4
  | Submit -> 5
  | Drain -> 6
  | Probe_addresses -> 7
  | Find_in -> 8
  | Insert -> 9
  | Delete -> 10
  | Backend_read -> 11
  | Backend_write -> 12
  | Encode_reply -> 13
  | Decode_reply -> 14

let set_frame t id = t.frame <- id

(* Forget every span (the preload's), keeping the arrays. *)
let reset t =
  t.count <- 0;
  t.depth <- 0;
  t.frame <- 0

let grow t =
  let double a =
    let b = ints (2 * max 1024 (A.dim a)) in
    A.blit a (A.sub b 0 (A.dim a));
    b
  in
  t.names <- double t.names;
  t.starts <- double t.starts;
  t.stops <- double t.stops;
  t.parents <- double t.parents;
  t.frames <- double t.frames

let enter t name =
  let i = t.count in
  if i = A.dim t.names then grow t;
  t.names.{i} <- index name;
  t.parents.{i} <- (if t.depth = 0 then -1 else t.stack.(t.depth - 1));
  t.frames.{i} <- t.frame;
  t.stack.(t.depth) <- i;
  t.depth <- t.depth + 1;
  t.count <- i + 1;
  t.starts.{i} <- Host.now_ns ();
  i

let leave t i =
  t.stops.{i} <- Host.now_ns ();
  t.depth <- t.depth - 1

(* [f] under a span when tracing, bare otherwise. *)
let within spans name f =
  match spans with
  | None -> f ()
  | Some t -> (
    let i = enter t name in
    match f () with
    | v ->
      leave t i;
      v
    | exception e ->
      leave t i;
      raise e)

type total = { calls : int; total_ns : int; self_ns : int }

(* Per-name totals. Self time is a span's duration minus the time its
   direct children cover. Also returns the nanoseconds the direct
   children of [Frame] spans cover, for the coverage ratio. *)
let totals t =
  let dur i = t.stops.{i} - t.starts.{i} in
  let child = Array.make t.count 0 in
  for i = 0 to t.count - 1 do
    let p = t.parents.{i} in
    if p >= 0 then child.(p) <- child.(p) + dur i
  done;
  let acc = Array.make (List.length all) { calls = 0; total_ns = 0; self_ns = 0 } in
  let frame_children = ref 0 in
  for i = 0 to t.count - 1 do
    let n = t.names.{i} in
    let a = acc.(n) in
    acc.(n) <-
      { calls = a.calls + 1; total_ns = a.total_ns + dur i;
        self_ns = a.self_ns + dur i - child.(i) };
    if n = index Frame then frame_children := !frame_children + child.(i)
  done;
  ((fun name -> acc.(index name)), !frame_children)

(* [{"names": [...], "spans": [[name, start_ns, end_ns, parent, frame],
   ...]}], times relative to the first span; a name is its index in
   "names". *)
let write_json t path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let t0 = if t.count = 0 then 0 else t.starts.{0} in
      output_string oc "{\"names\": [";
      output_string oc
        (String.concat ", " (List.map (fun n -> "\"" ^ label n ^ "\"") all));
      output_string oc "],\n \"spans\": [";
      for i = 0 to t.count - 1 do
        if i > 0 then output_string oc ",\n  ";
        Printf.fprintf oc "[%d, %d, %d, %d, %d]" t.names.{i} (t.starts.{i} - t0)
          (t.stops.{i} - t0) t.parents.{i} t.frames.{i}
      done;
      output_string oc "]}\n")
