(* pdm-bench: end-to-end and per-layer numbers for pdm-serve.

     pdm_bench --workload NAME|all --seed N --seconds S --trace 0|1
               [--out FILE] [--spans DIR] [--scale F] [--expect FILE]

   Each workload starts the daemon (or, for file_batch_read, the
   benchmark's copy of its stack on file-backed disks) and preloads
   2048 keys [setups] times; the first one serves the timed phase.
   Every answer is checked against Sim_model. With --trace 1 the first
   50k ops are then replayed in-process twice, once with spans and once
   without, and both replays must reproduce the daemon's per-shard
   ledgers and answer digest exactly. Every metric is printed as
   "workload.metric value unit"; the last line of stdout is one JSON
   object. See README.md. *)

module Wire = Pdm_server.Wire
module Json = Pdm_simtest.Sim_json
module W = Workloads

(* --- statistics --------------------------------------------------- *)

(* Nearest-rank percentile of an unsorted array. *)
let percentile a q =
  let s = Array.copy a in
  Array.sort compare s;
  let n = Array.length s in
  if n = 0 then 0
  else s.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Timing metrics are taken per window of consecutive frames and
   reported as the median over windows: a stall of the shared machine
   that spans fewer than half the windows moves none of them. Windows
   hold at least 1000 frames each, so a window's p99 has ten samples
   beyond it. [windows n] is the (first, last) frame of each. *)
let windows n =
  let w = max 1 (min 20 (n / 1000)) in
  List.init w (fun j -> (j * n / w, ((j + 1) * n / w) - 1))

(* Median over windows of each window's [q] quantile of [a]. *)
let windowed_percentile ws a q =
  median
    (List.map
       (fun (lo, hi) -> float_of_int (percentile (Array.sub a lo (hi - lo + 1)) q))
       ws)

(* Median over windows of each window's ops per second. *)
let windowed_rate ws ~frame_ops ~start_ns ~stop_ns =
  median
    (List.map
       (fun (lo, hi) ->
         float_of_int ((hi - lo + 1) * frame_ops)
         /. (float_of_int (stop_ns.(hi) - start_ns.(lo)) /. 1e9))
       ws)

let us ns = float_of_int ns /. 1000.0
let secs ns = float_of_int ns /. 1e9
let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* Digest of the answers of the first [frames] frames. *)
let digest answers ~frames =
  Array.sub answers 0 frames |> Array.to_list |> String.concat ""
  |> Digest.string |> Digest.to_hex

(* --- one timed phase ---------------------------------------------- *)

type phase = {
  answers : string array;  (** per frame, see Answers *)
  start_ns : int array;  (** per frame: when it was sent *)
  stop_ns : int array;  (** per frame: when its answer arrived *)
  latency_ns : int array;  (** per frame *)
  late_ns : int array;  (** per frame *)
  elapsed_ns : int;
  before : Wire.shard_stat list;  (** ledgers when the phase starts *)
  after : Wire.shard_stat list;
  at_pause : Wire.shard_stat list;  (** after the first k frames *)
  wire_bytes : int;  (** request + reply bytes, in-process with the wire codec *)
}

type daemon = { pid : int; out : Unix.file_descr; conn : Tcp_load.conn }

let read_port out =
  let buf = Bytes.create 256 and line = Buffer.create 64 in
  let rec go () =
    if not (Host.readable out ~timeout_s:Tcp_load.stall_s) then
      failwith "pdm-serve did not start listening";
    let n = Host.read out buf in
    if n = 0 then failwith "pdm-serve exited before listening";
    Buffer.add_subbytes line buf 0 n;
    let s = Buffer.contents line in
    match String.index_opt s '\n' with
    | Some i -> Scanf.sscanf (String.sub s 0 i) "pdm-serve listening on %d" Fun.id
    | None -> go ()
  in
  go ()

let start_daemon ~serve ~preload () =
  let t0 = Host.now_ns () in
  let pid, out = Host.spawn serve Shard_stack.daemon_args in
  let conn = Tcp_load.connect ~port:(read_port out) in
  Array.iter
    (fun ops ->
      match Tcp_load.call conn (Wire.Batch ops) with
      | Wire.Results rs
        when List.length rs = List.length ops
             && List.for_all (( = ) Wire.Inserted) rs -> ()
      | _ -> failwith "preload: unexpected reply")
    preload;
  ({ pid; out; conn }, secs (Host.now_ns () - t0))

(* The daemon's stdout stays open until it has exited, so its farewell
   line never meets a closed pipe. *)
let stop_daemon d =
  Tcp_load.close d.conn;
  let clean = Host.terminate d.pid in
  Host.close d.out;
  if not clean then failwith "pdm-serve did not drain and exit 0 on SIGTERM"

let start_stack ~on_file ~spans ~wire ~preload () =
  let t0 = Host.now_ns () in
  let stack = Shard_stack.create ~on_file spans in
  Array.iteri
    (fun f ops ->
      let results, _ = Shard_stack.serve_frame stack ~wire ~rid:(f + 1) ops in
      if not (List.for_all (function Ok Wire.Inserted -> true | _ -> false) results)
      then failwith "preload: an insert failed")
    preload;
  (stack, secs (Host.now_ns () - t0))

(* Set-up time is the median of [setups] set-ups, so one slow start
   does not move it. The first serves the timed phase; the others are
   made and torn down after it, so no earlier stack shares the phase's
   process or memory. *)
let setups = 15

let setup_median first start stop =
  median
    (first
    :: List.init (setups - 1) (fun _ ->
           let handle, s = start () in
           stop handle;
           s))

let over_tcp d ~(w : W.t) ~inputs ~pause_at =
  let before = Tcp_load.stats d.conn in
  let r =
    Tcp_load.drive d.conn ~loop:w.loop ~ops:w.frame_ops
      ~count:(W.frame_count inputs) ~frame:(W.frame inputs) ~pause_at
  in
  let after = Tcp_load.stats d.conn in
  { answers = r.answers; start_ns = r.sent_ns; stop_ns = r.done_ns;
    latency_ns = r.latency_ns; late_ns = r.late_ns; elapsed_ns = r.elapsed_ns;
    before; after; at_pause = Option.value r.stats_at_pause ~default:after;
    wire_bytes = 0 }

(* An in-process run: frames back to back through one stack, a closed
   loop with one frame outstanding. [advance] runs it up to a frame
   bound, so two runs can take turns (see [replay_pair]); the phase's
   arrays are filled in place and its totals set by [finish]. *)
type cursor = {
  stack : Shard_stack.t;
  wire : bool;
  frame : int -> Wire.op list;
  expected : string array;  (** per frame, the model's answers *)
  pause_at : int option;
  p : phase;
  mutable next : int;
  mutable busy_ns : int;
  mutable bytes : int;
  mutable paused : Wire.shard_stat list option;
}

let cursor stack ~wire ~frame ~expected ~count ~pause_at =
  let ints () = Array.make count 0 in
  { stack; wire; frame; expected; pause_at; next = 0; busy_ns = 0; bytes = 0;
    paused = None;
    p =
      { answers = Array.make count ""; start_ns = ints (); stop_ns = ints ();
        latency_ns = ints (); late_ns = ints (); elapsed_ns = 0;
        before = Shard_stack.shard_stats stack; after = []; at_pause = [];
        wire_bytes = 0 } }

let advance c ~upto =
  let spans = Shard_stack.spans c.stack in
  let t0 = Host.now_ns () in
  let prev = ref t0 in
  for f = c.next to upto - 1 do
    if c.pause_at = Some f then c.paused <- Some (Shard_stack.shard_stats c.stack);
    Option.iter (fun s -> Span_log.set_frame s f) spans;
    let ops = c.frame f in
    let start = Host.now_ns () in
    let results, n =
      Span_log.within spans Frame (fun () ->
          Shard_stack.serve_frame c.stack ~wire:c.wire ~rid:(f + 1) ops)
    in
    let stop = Host.now_ns () in
    let got =
      Answers.of_results
        (List.map (Result.map_error (fun _ -> Answers.unavailable)) results)
    in
    (* A right answer is stored as the expected string it equals, so
       the run keeps no answers of its own and this process's memory
       growth is the stack's. *)
    c.p.answers.(f) <- (if got = c.expected.(f) then c.expected.(f) else got);
    c.p.start_ns.(f) <- start;
    c.p.stop_ns.(f) <- stop;
    c.p.latency_ns.(f) <- stop - start;
    c.p.late_ns.(f) <- start - !prev;
    prev := stop;
    c.bytes <- c.bytes + n
  done;
  c.next <- upto;
  c.busy_ns <- c.busy_ns + (Host.now_ns () - t0)

let finish c =
  let after = Shard_stack.shard_stats c.stack in
  { c.p with elapsed_ns = c.busy_ns; after;
    at_pause = Option.value c.paused ~default:after; wire_bytes = c.bytes }

let in_process stack ~wire ~frame ~expected ~count ~pause_at =
  let c = cursor stack ~wire ~frame ~expected ~count ~pause_at in
  advance c ~upto:count;
  finish c

(* --- a workload --------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string }

type outcome = {
  workload : W.t;
  ops : int;
  metrics : metric list;  (** the BENCHMARK.json set for this trace mode *)
  extras : metric list;  (** printed and written to --out only *)
  attempted : int;
  failed : int;
  on_time : bool;  (** the open-loop generator kept to its schedule *)
  correct : bool;  (** right answers, replays agree, and [on_time] *)
}

type opts = {
  seed : int;
  seconds : float;
  scale : float;
  trace : bool;
  serve : string;
  spans_dir : string option;
}

let m name value unit_ = { name; value; unit_ }

(* The traced replay covers the first 50k ops of the timed phase. *)
let replay_ops = 50_000

let ledger_sum f before after =
  List.fold_left2
    (fun acc (b : Wire.shard_stat) a -> acc + f a - f b)
    0 before after

(* Replay the first [k] frames in-process on two fresh stacks built like
   the daemon's, one plain and one with spans. They take turns every
   ~256 ops, so both see the same machine and the ratio of their times
   measures tracing rather than the machine's mood. *)
let replay_pair ~(w : W.t) ~preload ~inputs ~expected ~k =
  let wire = not w.on_file in
  let make spans =
    fst (start_stack ~on_file:w.on_file ~spans ~wire ~preload ())
  in
  let plain = make None in
  let log = Span_log.create ~capacity:((k * w.frame_ops * 32) + 100_000) in
  let traced = make (Some log) in
  Span_log.reset log;
  let c0 = Shard_stack.counters traced in
  let frame = W.frame inputs in
  let cp = cursor plain ~wire ~frame ~expected ~count:k ~pause_at:None
  and ct = cursor traced ~wire ~frame ~expected ~count:k ~pause_at:None in
  let block = max 1 (256 / w.frame_ops) in
  while cp.next < k do
    let upto = min k (cp.next + block) in
    advance cp ~upto;
    advance ct ~upto
  done;
  let c1 = Shard_stack.counters traced in
  (finish cp, finish ct, c0, c1, log)

let run_workload opts (w : W.t) =
  let count = W.op_count w ~seconds:opts.seconds ~scale:opts.scale in
  let inputs = W.inputs w ~seed:opts.seed ~count in
  let data, preload = W.preload w ~seed:opts.seed in
  let n = W.frame_count inputs in
  let k =
    if not opts.trace then n
    else
      let ops = int_of_float (float_of_int replay_ops *. opts.scale) in
      min n (max 1 (ops / w.frame_ops))
  in
  let pause_at = if k < n then Some k else None in
  let expected = Array.make n "" in
  W.iter_expected ~data inputs (fun f want ->
      expected.(f) <-
        Answers.of_results (Array.to_list (Array.map Result.ok want)));
  let phase, setup_s, peak_rss_mb =
    if w.on_file then begin
      let start () =
        start_stack ~on_file:true ~spans:None ~wire:false ~preload ()
      in
      (* The stack shares this process with the inputs and the expected
         answers, so its memory is this process's peak from just before
         the stack is built, less the resident set at that moment. *)
      Gc.compact ();
      Host.reset_peak_rss ();
      let base_mb = Host.status_mb "VmRSS" 0 in
      let stack, s = start () in
      let phase =
        in_process stack ~wire:false ~frame:(W.frame inputs) ~expected ~count:n
          ~pause_at
      in
      let rss = Host.peak_rss_mb 0 -. base_mb in
      (* A dropped stack's disk files close when the GC finalises
         them; collect each at once, so set-ups do not pile up open
         files. *)
      (phase, setup_median s start (fun _ -> Gc.full_major ()), rss)
    end
    else begin
      let start = start_daemon ~serve:opts.serve ~preload in
      let d, s = start () in
      let phase = over_tcp d ~w ~inputs ~pause_at in
      let rss = Host.peak_rss_mb d.pid in
      stop_daemon d;
      (phase, setup_median s start stop_daemon, rss)
    end
  in
  (* Every answer against the model. *)
  let ops = n * w.frame_ops in
  let tally = Hashtbl.create 8 in
  let count_of kind = Option.value ~default:0 (Hashtbl.find_opt tally kind) in
  let bump kind = Hashtbl.replace tally kind (1 + count_of kind) in
  Array.iteri
    (fun f want ->
      let got = phase.answers.(f) in
      if got <> want then
        List.iter2
          (fun g w ->
            match Answers.failure_name g.[0] with
            | Some kind -> bump kind
            | None -> if g <> w then bump "wrong")
          (Answers.tokens got) (Answers.tokens want))
    expected;
  let failed = Hashtbl.fold (fun _ c acc -> acc + c) tally 0 in
  let completed = ops - failed + count_of "wrong" in
  let ws = windows n in
  let ops_per_s =
    windowed_rate ws ~frame_ops:w.frame_ops ~start_ns:phase.start_ns
      ~stop_ns:phase.stop_ns
  in
  let p50 = windowed_percentile ws phase.latency_ns 0.50 /. 1000.0
  and p99 = windowed_percentile ws phase.latency_ns 0.99 /. 1000.0
  and late_p99 = windowed_percentile ws phase.late_ns 0.99 /. 1000.0 in
  (* An open loop measures the daemon only while the generator keeps to
     its schedule: a run whose sends lag by more than a tenth of its p99
     measured the generator and is invalid. A run of fewer than 1000
     frames (the smoke test's) has no p99 to compare with. *)
  let on_time =
    match w.loop with
    | W.Open _ when n >= 1000 ->
      let ok = late_p99 <= 0.1 *. p99 in
      if not ok then
        Printf.eprintf
          "%s: the generator ran late (late p99 %.1f us > 10%% of p99 %.1f us); \
           the run is invalid\n%!"
          w.name late_p99 p99;
      ok
    | W.Open _ | W.Closed _ -> true
  in
  let e2e =
    [ m "ops_per_s" ops_per_s "op/s";
      m "p50_us" p50 "us";
      m "p99_us" p99 "us";
      m "rounds_per_op"
        (ratio (ledger_sum (fun s -> s.Wire.rounds) phase.before phase.after) ops)
        "round/op";
      m "ios_per_op"
        (ratio (ledger_sum (fun s -> s.Wire.fetched) phase.before phase.after) ops)
        "block/op";
      m "setup_s" setup_s "s";
      m "peak_rss_mb" peak_rss_mb "MiB" ]
  in
  let e2e_extras =
    [ m "fail_frac" (ratio failed ops) "ratio";
      m "gen.late_p99_us" late_p99 "us";
      m "latency_samples" (float_of_int n) "frame";
      m "windows" (float_of_int (List.length ws)) "count";
      m "mean_ops_per_s" (float_of_int completed /. secs phase.elapsed_ns) "op/s";
      m "ops" (float_of_int ops) "op";
      m "elapsed_s" (secs phase.elapsed_ns) "s" ]
  in
  let metrics, extras, cross_ok =
    if not opts.trace then (e2e, e2e_extras, true)
    else begin
      let untraced, traced, c0, c1, log = replay_pair ~w ~preload ~inputs ~expected ~k in
      let want_digest = digest phase.answers ~frames:k in
      let check what (p : phase) =
        let ok_ledgers = p.after = phase.at_pause in
        let ok_digest = digest p.answers ~frames:k = want_digest in
        if not (ok_ledgers && ok_digest) then
          Printf.eprintf
            "%s: the %s replay diverged from the timed run (ledgers %s, \
             answer digest %s)\n%!"
            w.name what
            (if ok_ledgers then "equal" else "differ")
            (if ok_digest then "equal" else "differs");
        ok_ledgers && ok_digest
      in
      let cross_ok = check "untraced" untraced && check "traced" traced in
      Option.iter
        (fun dir ->
          if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
          Span_log.write_json log (Filename.concat dir (w.name ^ ".spans.json")))
        opts.spans_dir;
      let get, frame_children = Span_log.totals log in
      let total name = (get name).Span_log.total_ns
      and self name = (get name).Span_log.self_ns
      and calls name = (get name).Span_log.calls in
      let k_ops = k * w.frame_ops in
      let e0 = c0.Shard_stack.engine_stats
      and e1 = c1.Shard_stack.engine_stats in
      let de f = f e1 - f e0 in
      (* mean span time in µs: per op, or per call of another span *)
      let per_op ns = us ns /. float_of_int k_ops in
      let per_call ns name = us ns /. float_of_int (max 1 (calls name)) in
      let wire_ns =
        List.fold_left (fun acc n -> acc + total n) 0
          [ Encode_request; Decode_request; Encode_reply; Decode_reply ]
      in
      let untraced_p50 = us (percentile untraced.latency_ns 0.50) in
      let per_layer =
        [ m "gen.late_p99_us" late_p99 "us";
          m "wire.codec_us_per_frame" (us wire_ns /. float_of_int k) "us";
          m "wire.bytes_per_op" (ratio traced.wire_bytes k_ops) "byte/op";
          m "server.residual_p50_us" (p50 -. untraced_p50) "us";
          m "server.busy_replies" (float_of_int (count_of "busy")) "count";
          m "placement.route_us_per_op" (per_op (total Route)) "us";
          m "data_plane.jobs_per_frame" (ratio (calls Job) k) "job/frame";
          m "data_plane.execute_us_per_job" (per_call (total Job) Job) "us";
          m "engine.self_us_per_op" (per_op (self Submit + self Drain)) "us";
          m "engine.coalesced_per_op"
            (ratio (de (fun e -> e.coalesced)) k_ops) "block/op";
          m "engine.blocks_per_fetch_round"
            (ratio (de (fun e -> e.blocks_fetched)) (de (fun e -> e.fetch_rounds)))
            "block/round";
          m "engine.fetch_rounds_per_op"
            (ratio (de (fun e -> e.fetch_rounds)) k_ops) "round/op";
          m "engine.insert_rounds_per_op"
            (ratio (de (fun e -> e.insert_rounds)) k_ops) "round/op";
          m "opd.plan_us_per_lookup"
            (per_call (total Probe_addresses) Probe_addresses) "us";
          m "opd.decode_us_per_lookup" (per_call (total Find_in) Find_in) "us";
          m "opd.update_self_us"
            (us (self Insert + self Delete)
             /. float_of_int (max 1 (calls Insert + calls Delete)))
            "us";
          m "pdm.read_blocks_per_op"
            (ratio (c1.block_reads - c0.block_reads) k_ops) "block/op";
          m "pdm.write_blocks_per_op"
            (ratio (c1.block_writes - c0.block_writes) k_ops) "block/op";
          m "backend.read_us_per_block"
            (per_call (total Backend_read) Backend_read) "us";
          m "backend.write_us_per_block"
            (per_call (total Backend_write) Backend_write) "us";
          m "backend.share_pct"
            (100.0 *. ratio (total Backend_read + total Backend_write) (total Frame))
            "%";
          m "trace.overhead_pct"
            (100.0
             *. ((float_of_int traced.elapsed_ns /. float_of_int untraced.elapsed_ns)
                 -. 1.0))
            "%";
          m "trace.coverage_pct" (100.0 *. ratio frame_children (total Frame)) "%" ]
      in
      let extras =
        [ m "trace.replayed_ops" (float_of_int k_ops) "op";
          m "trace.spans" (float_of_int log.Span_log.count) "span";
          m "trace.cross_check" (if cross_ok then 1.0 else 0.0) "bool" ]
      in
      (per_layer, extras, cross_ok)
    end
  in
  { workload = w; ops; metrics; extras; attempted = ops; failed; on_time;
    correct = count_of "wrong" = 0 && count_of "malformed" = 0 && cross_ok && on_time }

(* A run whose generator fell behind measured the host's stall, not the
   daemon, so it is run again, up to [attempts] times in all; the
   number of runs dropped is reported. *)
let attempts = 3

let run_valid opts w =
  let rec go i =
    let o = run_workload opts w in
    if o.on_time || i = attempts then
      { o with extras = o.extras @ [ m "gen.dropped_runs" (float_of_int (i - 1)) "run" ] }
    else begin
      Printf.eprintf "%s: running it again (%d of %d)\n%!" w.W.name (i + 1) attempts;
      go (i + 1)
    end
  in
  go 1

(* --- output ------------------------------------------------------- *)

let metric_json ms =
  Json.Obj
    (List.map
       (fun x ->
         (x.name, Json.Obj [ ("value", Float x.value); ("unit", String x.unit_) ]))
       ms)

let loop_json = function
  | W.Closed k -> Json.String (Printf.sprintf "closed, %d frames outstanding" k)
  | W.Open r -> Json.String (Printf.sprintf "open, %g op/s" r)

let write_out path opts outcomes =
  let j =
    Json.Obj
      [ ("seed", Int opts.seed); ("seconds", Float opts.seconds);
        ("scale", Float opts.scale); ("trace", Bool opts.trace);
        ( "workloads",
          List
            (List.map
               (fun o ->
                 Json.Obj
                   [ ("name", String o.workload.W.name);
                     ("loop", loop_json o.workload.loop);
                     ("frame_ops", Int o.workload.frame_ops);
                     ("on_file", Bool o.workload.on_file);
                     ("ops", Int o.ops);
                     ("correct", Bool o.correct);
                     ("failed", Int o.failed);
                     ("metrics", metric_json (o.metrics @ o.extras)) ])
               outcomes) ) ]
  in
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      output_string oc (Json.to_string j);
      output_char oc '\n')

(* The smoke test's checks against BENCHMARK.json: the same workloads,
   and for each exactly the metric names and units listed for this
   trace mode. *)
let check_expected path ~trace outcomes =
  let j =
    let ic = open_in_bin path in
    Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
        match Json.of_string (really_input_string ic (in_channel_length ic)) with
        | Ok j -> j
        | Error e -> failwith (path ^ ": " ^ e))
  in
  let field k o =
    Option.value ~default:"" (Option.bind (Json.member k o) Json.get_string)
  in
  let listed key =
    Option.value ~default:[] (Option.bind (Json.member key j) Json.get_list)
    |> List.map (fun o -> (field "name" o, field "unit" o))
    |> List.sort compare
  in
  let want_metrics = listed (if trace then "per_layer" else "end_to_end") in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun p -> problems := p :: !problems) fmt in
  if List.sort compare (List.map (fun o -> o.workload.W.name) outcomes)
     <> List.map fst (listed "workloads")
  then problem "workload names differ from BENCHMARK.json";
  List.iter
    (fun o ->
      let name = o.workload.W.name in
      let got = List.map (fun x -> (x.name, x.unit_)) o.metrics in
      if List.sort compare got <> want_metrics then
        problem "%s: metric names or units differ from BENCHMARK.json" name;
      if o.failed > 0 then problem "%s: fail_frac is not 0 (%d failed)" name o.failed;
      if not o.correct then
        problem "%s: wrong answers, a failed cross-check or a late generator" name)
    outcomes;
  List.iter (fun p -> Printf.eprintf "pdm-bench: %s\n" p) (List.rev !problems);
  !problems = []

let main workload seed seconds trace out spans_dir scale serve expect =
  let workloads =
    if workload = "all" then Ok W.all
    else match W.find workload with
      | Some w -> Ok [ w ]
      | None ->
        Error (Printf.sprintf "unknown workload %S (%s or all)" workload
                 (String.concat ", " (List.map (fun (w : W.t) -> w.name) W.all)))
  in
  match workloads with
  | Error msg -> `Error (false, msg)
  | Ok _ when trace <> 0 && trace <> 1 -> `Error (false, "--trace takes 0 or 1")
  | Ok _ when seconds <= 0.0 || scale <= 0.0 ->
    `Error (false, "--seconds and --scale must be > 0")
  | Ok _ when not (Sys.file_exists serve) ->
    `Error (false, Printf.sprintf "no daemon at %s; run dune build first" serve)
  | Ok workloads ->
    let opts = { seed; seconds; scale; trace = trace = 1; serve; spans_dir } in
    let outcomes = List.map (run_valid opts) workloads in
    Option.iter (fun path -> write_out path opts outcomes) out;
    let prefix o =
      if List.length outcomes > 1 then o.workload.W.name ^ "." else ""
    in
    let sum f = List.fold_left (fun a o -> a + f o) 0 outcomes in
    List.iter
      (fun o ->
        List.iter
          (fun x ->
            Printf.printf "%s.%s %s %s\n" o.workload.W.name x.name
              (Json.to_string (Float x.value)) x.unit_)
          (o.metrics @ o.extras))
      outcomes;
    let correct = List.for_all (fun o -> o.correct) outcomes in
    let result =
      Json.Obj
        [ ("correct", Bool correct);
          ("attempted", Int (sum (fun o -> o.attempted)));
          ("failed", Int (sum (fun o -> o.failed)));
          ( "metrics",
            metric_json
              (List.concat_map
                 (fun o ->
                   List.map (fun x -> { x with name = prefix o ^ x.name }) o.metrics)
                 outcomes) ) ]
    in
    print_endline (Json.to_string result);
    let expected_ok =
      match expect with
      | None -> true
      | Some path -> check_expected path ~trace:opts.trace outcomes
    in
    if correct && expected_ok then `Ok () else exit 1

open Cmdliner

let cmd =
  let workload =
    Arg.(value & opt string "all"
         & info [ "workload" ] ~docv:"NAME"
             ~doc:"point_read, batch_read, write_mix, file_batch_read or all.")
  and seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Workload seed.")
  and seconds =
    Arg.(value & opt float 15.0
         & info [ "seconds" ] ~docv:"S"
             ~doc:"Length of the timed phase: S seconds' worth of ops at each \
                   workload's nominal rate.")
  and trace =
    Arg.(value & opt int 0
         & info [ "trace" ] ~docv:"0|1"
             ~doc:"1: report the per-layer metrics of an in-process traced \
                   replay and cross-check it against the run; 0: report the \
                   end-to-end metrics.")
  and out =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"FILE"
             ~doc:"Also write every number as JSON to FILE.")
  and spans_dir =
    Arg.(value & opt (some string) None
         & info [ "spans" ] ~docv:"DIR"
             ~doc:"With --trace 1, write each workload's spans as JSON into DIR.")
  and scale =
    Arg.(value & opt float 1.0
         & info [ "scale" ] ~docv:"F" ~doc:"Scale op counts and the replay length.")
  and serve =
    Arg.(value & opt string "_build/default/bin/pdm_serve.exe"
         & info [ "serve" ] ~docv:"PATH" ~doc:"The pdm-serve executable.")
  and expect =
    Arg.(value & opt (some string) None
         & info [ "expect" ] ~docv:"FILE"
             ~doc:"Exit 1 unless the workloads and metric names and units \
                   match this BENCHMARK.json and nothing failed.")
  in
  Cmd.v
    (Cmd.info "pdm-bench" ~doc:"end-to-end and per-layer benchmark of pdm-serve")
    Term.(ret (const main $ workload $ seed $ seconds $ trace $ out $ spans_dir
               $ scale $ serve $ expect))

let () = exit (Cmd.eval cmd)
