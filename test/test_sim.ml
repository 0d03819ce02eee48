(* Tests for the deterministic simulation-testing subsystem: the
   seeded workload generator, the pure model, the differential runner,
   crash-schedule exploration, shrinking, and repro replay — plus the
   streaming Trace JSONL reader and the shared payload module the sim
   generator reuses. *)

module J = Pdm_simtest.Sim_json
module Gen = Pdm_simtest.Sim_gen
module Model = Pdm_simtest.Sim_model
module Config = Pdm_simtest.Sim_config
module Schedule = Pdm_simtest.Sim_schedule
module Run = Pdm_simtest.Sim_run
module Shrink = Pdm_simtest.Sim_shrink
module Explore = Pdm_simtest.Sim_explore
module Repro = Pdm_simtest.Sim_repro
module W = Pdm_workload.Trace
module Payload = Pdm_workload.Payload
module Iotrace = Pdm_sim.Trace
module Pdm = Pdm_sim.Pdm

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

(* --- generator --- *)

let test_gen_deterministic () =
  let spec = { Gen.default with Gen.seed = 17; count = 200 } in
  checkb "same seed, same stream" true (Gen.ops spec = Gen.ops spec);
  let other = Gen.ops { spec with Gen.seed = 18 } in
  checkb "different seed, different stream" false (Gen.ops spec = other);
  check "count honored" 200 (Array.length (Gen.ops spec))

let test_gen_static_lookups_only () =
  let spec = { Gen.default with Gen.static = true; count = 120 } in
  Array.iter
    (function
      | W.Lookup _ -> ()
      | W.Insert _ | W.Delete _ -> Alcotest.fail "static stream must not mutate")
    (Gen.ops spec);
  checkb "static pre-load non-empty" true
    (Array.length (Gen.initial_data spec) > 0);
  check "dynamic pre-load empty" 0
    (Array.length (Gen.initial_data { spec with Gen.static = false }))

let test_gen_dist_roundtrip () =
  List.iter
    (fun d ->
      match Gen.dist_of_string (Gen.dist_to_string d) with
      | Some d' -> checkb "dist roundtrip" true (d = d')
      | None -> Alcotest.fail "dist string did not parse back")
    [ Gen.Uniform; Gen.Zipf_skew 1.25; Gen.Adversarial ];
  checkb "garbage rejected" true (Gen.dist_of_string "pareto" = None)

let test_gen_adversarial_hot_set () =
  let spec =
    { Gen.default with Gen.dist = Gen.Adversarial; count = 400; seed = 3 }
  in
  let keys = Gen.keys spec in
  let hot = Array.sub keys 0 (min 8 (Array.length keys)) in
  let on_hot = ref 0 in
  Array.iter
    (fun op ->
      let k =
        match op with W.Lookup k | W.Insert (k, _) | W.Delete k -> k
      in
      if Array.mem k hot then incr on_hot)
    (Gen.ops spec);
  checkb "adversarial stream hammers the hot set" true
    (!on_hot > 400 * 6 / 10)

(* --- model --- *)

let test_model_semantics () =
  let m = Model.create () in
  checkb "empty find" true (Model.find m 1 = None);
  checkb "insert answer" true (Model.apply m (W.Insert (1, Bytes.of_string "aa")) = `Inserted);
  checkb "find after insert" true (Model.find m 1 = Some (Bytes.of_string "aa"));
  checkb "delete present" true (Model.apply m (W.Delete 1) = `Deleted true);
  checkb "delete absent" true (Model.apply m (W.Delete 1) = `Deleted false);
  checkb "mutates insert" true (Model.mutates m (W.Insert (2, Bytes.empty)));
  checkb "mutates absent delete" false (Model.mutates m (W.Delete 9));
  (* only applied ops mark keys as touched — mutates is a pure probe *)
  ignore (Model.apply m (W.Lookup 9));
  check "touched keys" 2 (List.length (Model.touched_keys m))

(* --- schedule / config serialization --- *)

let test_schedule_roundtrip () =
  let sched =
    [ Schedule.Kill { at = 3; disk = 2 };
      Schedule.Crash { at = 7; point = Pdm_sim.Journal.During_apply 2 };
      Schedule.Damage { at = 3; nth = 11 }; Schedule.Scrub { at = 9 } ]
  in
  (match Schedule.of_json (Schedule.to_json sched) with
   | Ok back ->
     checkb "schedule JSON roundtrip (canonical)" true
       (back = Schedule.canonical sched)
   | Error m -> Alcotest.fail m);
  List.iter
    (fun p ->
      match Schedule.point_of_string (Schedule.point_to_string p) with
      | Some p' -> checkb "crash point roundtrip" true (p = p')
      | None -> Alcotest.fail "crash point did not parse back")
    (Schedule.all_points ~max_partial:3)

let test_config_roundtrip () =
  let cfg =
    { (Config.default Config.Dynamic_cascade) with
      Config.journaled = true; replicas = 2; spares = 1; seed = 9 }
  in
  match Config.of_json (Config.to_json cfg) with
  | Ok back -> checkb "config JSON roundtrip" true (back = cfg)
  | Error m -> Alcotest.fail m

let test_config_validate () =
  let bad =
    { (Config.default Config.Basic) with Config.journaled = true }
  in
  checkb "journal on basic rejected" true (Config.validate bad <> Ok ());
  let bad2 =
    { (Config.default Config.One_probe_dynamic) with Config.cache_blocks = 8 }
  in
  checkb "cache without engine rejected" true (Config.validate bad2 <> Ok ())

(* --- differential runs (clean) --- *)

let clean_run cfg count =
  let r =
    Run.run cfg [] (Gen.ops_seq (Config.gen_spec ~count cfg))
  in
  (match r.Run.divergences with
   | [] -> ()
   | { Run.kind; detail; at } :: _ ->
     Alcotest.fail (Printf.sprintf "divergence at %d [%s]: %s" at kind detail));
  check "all ops ran" count r.Run.ops_run

let test_run_basic_clean () = clean_run (Config.default Config.Basic) 64

let test_run_basic_faulty_clean () =
  clean_run
    { (Config.default Config.Basic) with
      Config.transient = 0.08; straggle = 3; seed = 2 }
    64

let test_run_basic_replicated_clean () =
  clean_run
    { (Config.default Config.Basic) with
      Config.replicas = 2; spares = 1; integrity = true; seed = 4 }
    64

let test_run_static_engine_clean () =
  clean_run
    { (Config.default Config.One_probe_static) with
      Config.engine = true; cache_blocks = 16; seed = 5 }
    64

let test_run_dynamic_journal_clean () =
  clean_run
    { (Config.default Config.One_probe_dynamic) with
      Config.journaled = true; seed = 6 }
    64

let test_run_cascade_journal_clean () =
  clean_run
    { (Config.default Config.Dynamic_cascade) with
      Config.journaled = true; seed = 7 }
    64

(* --- crash exploration --- *)

let test_explore_journaled_clean () =
  let cfg =
    { (Config.default Config.Dynamic_cascade) with
      Config.journaled = true; seed = 11 }
  in
  let o = Explore.explore ~budget:160 ~count:48 cfg in
  checkb "crash schedules enumerated" true (o.Explore.total_space > 100);
  check "no divergences" o.Explore.explored o.Explore.clean;
  checkb "nothing shrunk" true (o.Explore.shrunk = None)

let test_explore_crash_targets () =
  let ops =
    [| W.Insert (1, Bytes.empty); W.Lookup 1; W.Delete 1; W.Delete 1 |]
  in
  (* insert mutates, lookup never, first delete hits, second misses *)
  checkb "mutating indices" true (Explore.mutating_indices ops = [ 0; 2 ])

let test_explore_catches_buggy_adapter () =
  let cfg =
    { (Config.default Config.Dynamic_cascade) with
      Config.journaled = true; buggy = true; seed = 13 }
  in
  let o = Explore.explore ~budget:200 ~count:48 cfg in
  checkb "buggy adapter caught" true (o.Explore.divergent <> []);
  match o.Explore.shrunk with
  | None -> Alcotest.fail "buggy adapter failure did not shrink"
  | Some s ->
    checkb "shrunk to <= 20 ops" true (Array.length s.Shrink.ops <= 20);
    checkb "shrunk schedule non-empty" true (s.Shrink.schedule <> []);
    checkb "shrunk case still fails" false (Run.ok s.Shrink.report);
    (* the repro must replay bit-identically *)
    let path = Filename.temp_file "pdm_sim_buggy" ".jsonl" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Repro.write ~path s.Shrink.report ~ops:s.Shrink.ops;
        match Repro.replay ~path with
        | Ok (_, _, bit_identical) ->
          checkb "repro replays bit-identically" true bit_identical
        | Error m -> Alcotest.fail m)

let test_shrink_remap () =
  let ops =
    [| W.Insert (1, Bytes.empty); W.Lookup 1; W.Insert (2, Bytes.empty) |]
  in
  let sched =
    [ Schedule.Crash { at = 0; point = Pdm_sim.Journal.After_log };
      Schedule.Crash { at = 2; point = Pdm_sim.Journal.After_commit } ]
  in
  let ops', sched' = Shrink.remap [| false; true; true |] ops sched in
  check "ops remapped" 2 (Array.length ops');
  checkb "event on dropped op removed, survivor re-pinned" true
    (sched' = [ Schedule.Crash { at = 1; point = Pdm_sim.Journal.After_commit } ])

(* --- repro corpus --- *)

(* resolved at module load, before alcotest chdirs into its log dir;
   dune's (deps (glob_files repros/*.jsonl)) stages the corpus here *)
let repros_dir = Filename.concat (Sys.getcwd ()) "repros"

let test_repro_corpus () =
  let files =
    Sys.readdir repros_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".jsonl")
    |> List.sort compare
  in
  checkb "corpus present" true (List.length files >= 3);
  List.iter
    (fun f ->
      let path = Filename.concat repros_dir f in
      match Repro.replay ~path with
      | Error m -> Alcotest.fail (f ^ ": " ^ m)
      | Ok (header, report, bit_identical) ->
        if header.Repro.expected = [] then
          checkb (f ^ " replays clean") true (Run.ok report)
        else checkb (f ^ " replays bit-identically") true bit_identical)
    files

let test_repro_roundtrip () =
  let cfg =
    { (Config.default Config.One_probe_dynamic) with
      Config.journaled = true; seed = 21 }
  in
  let ops = Gen.ops (Config.gen_spec ~count:24 cfg) in
  let r = Run.run cfg [] (Array.to_seq ops) in
  let path = Filename.temp_file "pdm_sim_clean" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Repro.write ~path r ~ops;
      match Repro.load ~path with
      | Error m -> Alcotest.fail m
      | Ok (header, ops') ->
        checkb "config survives" true (header.Repro.config = cfg);
        checkb "ops survive" true (ops' = ops);
        check "expected empty on a clean run" 0
          (List.length header.Repro.expected))

(* --- satellite: streaming Trace JSONL reader --- *)

let test_trace_fold_streaming () =
  let trace = Iotrace.create ~capacity:64 () in
  let m =
    Pdm.create ~trace ~disks:4 ~block_size:8 ~blocks_per_disk:8 ()
  in
  for b = 0 to 7 do
    Pdm.write m
      (List.init 4 (fun d ->
           ({ Pdm.disk = d; block = b }, Array.make 8 (Some (d + b)))))
  done;
  ignore (Pdm.read m (Array.init 4 (fun d -> { Pdm.disk = d; block = 0 })));
  let path = Filename.temp_file "pdm_sim_trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Iotrace.export_jsonl trace path;
      let eager = Iotrace.load_jsonl path in
      let folded =
        List.rev
          (Iotrace.fold_jsonl path ~init:[] ~f:(fun acc e -> e :: acc))
      in
      checkb "fold_jsonl sees what load_jsonl sees" true (folded = eager);
      let count = ref 0 in
      Iotrace.iter_jsonl path (fun _ -> incr count);
      check "iter_jsonl event count" (List.length eager) !count)

(* --- satellite: shared payload module --- *)

let test_payload_shared () =
  (* the experiments' golden outputs depend on these exact bytes *)
  checkb "experiments payload = workload payload" true
    (Pdm_experiments.Common.sigma_payload ~sigma_bits:64 123
     = Payload.sigma_payload ~seed:99 ~sigma_bits:64 123);
  checkb "value_bytes_of length" true
    (Bytes.length (Payload.value_bytes_of 8 42) = 8);
  checkb "payload deterministic" true
    (Payload.value_bytes_of ~seed:5 16 7 = Payload.value_bytes_of ~seed:5 16 7);
  checkb "payload seed matters" false
    (Payload.value_bytes_of ~seed:5 16 7 = Payload.value_bytes_of ~seed:6 16 7)

(* --- json helper --- *)

let test_json_roundtrip () =
  let j =
    J.Obj
      [ ("a", J.Int (-3)); ("b", J.String "x\"y\n"); ("c", J.List [ J.Bool true; J.Null ]);
        ("d", J.Float 0.25) ]
  in
  (match J.of_string (J.to_string j) with
   | Ok j' -> checkb "json roundtrip" true (j = j')
   | Error m -> Alcotest.fail m);
  checks "hex roundtrip" "deadbeef"
    (J.hex_of_bytes
       (match J.bytes_of_hex "deadbeef" with
        | Some b -> b
        | None -> Alcotest.fail "hex did not parse"))

(* --- property: any seed's workload stays differential-clean --- *)

let prop_differential_clean =
  QCheck.Test.make ~name:"differential run clean on any generator seed"
    ~count:12
    QCheck.(int_bound 10_000)
    (fun seed ->
      let cfg = { (Config.default Config.Basic) with Config.seed } in
      let r = Run.run cfg [] (Gen.ops_seq (Config.gen_spec ~count:32 cfg)) in
      Run.ok r)

let prop_gen_keys_in_universe =
  QCheck.Test.make ~name:"generated keys stay inside the universe" ~count:40
    QCheck.(pair (int_bound 1_000) (int_range 1 60))
    (fun (seed, key_count) ->
      let spec = { Gen.default with Gen.seed; key_count; count = 64 } in
      Array.for_all
        (fun op ->
          let k =
            match op with W.Lookup k | W.Insert (k, _) | W.Delete k -> k
          in
          k >= 0 && k < spec.Gen.universe)
        (Gen.ops spec))

let suite =
  [ ( "sim",
      [ Alcotest.test_case "generator determinism" `Quick
          test_gen_deterministic;
        Alcotest.test_case "static stream is lookups-only" `Quick
          test_gen_static_lookups_only;
        Alcotest.test_case "distribution names roundtrip" `Quick
          test_gen_dist_roundtrip;
        Alcotest.test_case "adversarial stream has a hot set" `Quick
          test_gen_adversarial_hot_set;
        Alcotest.test_case "reference model semantics" `Quick
          test_model_semantics;
        Alcotest.test_case "schedule JSON roundtrip" `Quick
          test_schedule_roundtrip;
        Alcotest.test_case "config JSON roundtrip" `Quick
          test_config_roundtrip;
        Alcotest.test_case "config validation" `Quick test_config_validate;
        Alcotest.test_case "differential: basic" `Quick test_run_basic_clean;
        Alcotest.test_case "differential: basic under faults" `Quick
          test_run_basic_faulty_clean;
        Alcotest.test_case "differential: basic r2+integrity" `Quick
          test_run_basic_replicated_clean;
        Alcotest.test_case "differential: static via engine+cache" `Quick
          test_run_static_engine_clean;
        Alcotest.test_case "differential: dynamic journaled" `Quick
          test_run_dynamic_journal_clean;
        Alcotest.test_case "differential: cascade journaled" `Quick
          test_run_cascade_journal_clean;
        Alcotest.test_case "explore: journaled cascade stays clean" `Slow
          test_explore_journaled_clean;
        Alcotest.test_case "explore: crash targets" `Quick
          test_explore_crash_targets;
        Alcotest.test_case "explore: catches + shrinks the buggy adapter"
          `Slow test_explore_catches_buggy_adapter;
        Alcotest.test_case "shrink: schedule remapping" `Quick
          test_shrink_remap;
        Alcotest.test_case "repro corpus replays" `Slow test_repro_corpus;
        Alcotest.test_case "repro file roundtrip" `Quick test_repro_roundtrip;
        Alcotest.test_case "trace fold_jsonl streams the same events" `Quick
          test_trace_fold_streaming;
        Alcotest.test_case "shared payload module" `Quick test_payload_shared;
        Alcotest.test_case "sim json roundtrip" `Quick test_json_roundtrip ]
      @ List.map QCheck_alcotest.to_alcotest
          [ prop_differential_clean; prop_gen_keys_in_universe ] ) ]
