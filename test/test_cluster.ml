(* Tests for the sharded placement tier: topology algebra, the
   weighted-rendezvous placement properties (determinism across
   process-independent rebuilds, failure-domain spread, weight
   proportionality), migration plan minimality, the cluster front end
   (routing, scatter-gather, failover, journaled migrations with
   injected crashes), and the sim harness's cluster configs. *)

module Topology = Pdm_cluster.Topology
module Placement = Pdm_cluster.Placement
module Migration = Pdm_cluster.Migration
module Cluster = Pdm_cluster.Cluster
module Journal = Pdm_sim.Journal
module Config = Pdm_simtest.Sim_config
module Gen = Pdm_simtest.Sim_gen
module Run = Pdm_simtest.Sim_run
module Explore = Pdm_simtest.Sim_explore
module J = Pdm_simtest.Sim_json
module Payload = Pdm_workload.Payload

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let value_of k = Payload.value_bytes_of 8 k

(* --- topology --- *)

let test_topology_algebra () =
  let t = Topology.standard ~shards:4 in
  check "count" 4 (Topology.count t);
  check "version" 0 (Topology.version t);
  check "total weight" 4 (Topology.total_weight t);
  check "racks" 2 (List.length (Topology.racks t));
  let t2 =
    Topology.add_shard t { Topology.id = 9; weight = 2; host = 9; rack = 4 }
  in
  check "added" 5 (Topology.count t2);
  check "version bumped" 1 (Topology.version t2);
  check "weight updated" 6 (Topology.total_weight t2);
  checkb "original untouched" true (Topology.count t = 4);
  let t3 = Topology.reweight t2 9 ~weight:5 in
  check "reweighted total" 9 (Topology.total_weight t3);
  check "reweight bumps version" 2 (Topology.version t3);
  let t4 = Topology.remove_shard t3 0 in
  check "removed" 4 (Topology.count t4);
  checkb "gone" true (Topology.find t4 0 = None);
  (* invalid constructions *)
  let rejects f = match f () with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  checkb "duplicate id rejected" true
    (rejects (fun () ->
         Topology.make
           [ { Topology.id = 1; weight = 1; host = 0; rack = 0 };
             { Topology.id = 1; weight = 1; host = 1; rack = 0 } ]));
  checkb "zero weight rejected" true
    (rejects (fun () ->
         Topology.make [ { Topology.id = 0; weight = 0; host = 0; rack = 0 } ]));
  checkb "empty rejected" true (rejects (fun () -> Topology.make []));
  checkb "removing last shard rejected" true
    (rejects (fun () ->
         Topology.remove_shard (Topology.standard ~shards:1) 0));
  checkb "adding existing id rejected" true
    (rejects (fun () ->
         Topology.add_shard t { Topology.id = 2; weight = 1; host = 7; rack = 7 }))

let test_topology_spec_roundtrip () =
  let t =
    Topology.make
      [ { Topology.id = 0; weight = 2; host = 0; rack = 0 };
        { Topology.id = 3; weight = 1; host = 1; rack = 0 };
        { Topology.id = 7; weight = 4; host = 2; rack = 1 } ]
  in
  (match Topology.of_spec_string (Topology.spec_string t) with
   | Ok t' ->
     checkb "shards survive" true (Topology.shards t' = Topology.shards t)
   | Error m -> Alcotest.fail m);
  checkb "garbage rejected" true
    (match Topology.of_spec_string "1:2:3" with Error _ -> true | Ok _ -> false);
  checkb "bad int rejected" true
    (match Topology.of_spec_string "a:0:0:1" with
     | Error _ -> true
     | Ok _ -> false)

(* --- placement properties (qcheck) --- *)

(* arbitrary small topologies: 2..10 shards, weights 1..4, two hosts
   per rack by default but occasionally denser racks *)
let topo_gen =
  QCheck.Gen.(
    let* n = int_range 2 10 in
    let* dense = bool in
    let* weights = array_size (return n) (int_range 1 4) in
    return
      (Topology.make
         (List.init n (fun i ->
              { Topology.id = i; weight = weights.(i); host = i;
                rack = (if dense then i / 3 else i / 2) }))))

let topo_arb =
  QCheck.make
    ~print:(fun t -> Topology.spec_string t)
    topo_gen

let prop_placement_deterministic =
  QCheck.Test.make ~name:"placement survives spec-string rebuild" ~count:200
    QCheck.(triple topo_arb (int_bound 1_000_000) (int_bound 1000))
    (fun (topo, seed, key) ->
      let r = min 3 (Topology.count topo) in
      let direct = Placement.replicas topo ~seed ~r key in
      match Topology.of_spec_string (Topology.spec_string topo) with
      | Error _ -> false
      | Ok topo' -> Placement.replicas topo' ~seed ~r key = direct)

let prop_replicas_distinct_domains =
  QCheck.Test.make ~name:"replicas spread across failure domains" ~count:200
    QCheck.(triple topo_arb (int_bound 1_000_000) (int_bound 1000))
    (fun (topo, seed, key) ->
      let r = min 3 (Topology.count topo) in
      let ids = Placement.replicas topo ~seed ~r key in
      let shards =
        List.filter_map (fun id -> Topology.find topo id) ids
      in
      let distinct l = List.sort_uniq compare l in
      let ids_distinct = List.length (distinct ids) = List.length ids in
      let racks = List.map (fun (s : Topology.shard) -> s.rack) shards in
      let rack_count = List.length (Topology.racks topo) in
      (* as many distinct racks as r and the topology allow *)
      let racks_ok =
        List.length (distinct racks) >= min r rack_count
      in
      List.length ids = r && ids_distinct && racks_ok)

let prop_weight_ratios =
  QCheck.Test.make ~name:"weight ratios respected within tolerance" ~count:8
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      (* 2:1 weighted shards; per-unit-weight load must be flat *)
      let topo =
        Topology.make
          (List.init 6 (fun i ->
               { Topology.id = i; weight = (if i < 3 then 2 else 1);
                 host = i; rack = i / 2 }))
      in
      let total_weight = Topology.total_weight topo in
      let n = 20_000 in
      let counts = Array.make 6 0 in
      for key = 0 to n - 1 do
        let p = Placement.primary topo ~seed key in
        counts.(p) <- counts.(p) + 1
      done;
      List.for_all
        (fun (s : Topology.shard) ->
          let expected = float_of_int (n * s.weight) /. float_of_int total_weight in
          let got = float_of_int counts.(s.id) in
          abs_float (got -. expected) /. expected < 0.10)
        (Topology.shards topo))

(* Topologies of 1-16 shards with sparse ids, weights 1-4, and racks
   and hosts drawn from small ranges, so shards share them. *)
let shared_topo_gen =
  QCheck.Gen.(
    let* ids =
      map (List.sort_uniq compare) (list_size (int_range 1 16) (int_bound 40))
    in
    let shard id =
      map3
        (fun weight rack host -> { Topology.id; weight; rack; host })
        (int_range 1 4) (int_bound 3) (int_bound 5)
    in
    map Topology.make (flatten_l (List.map shard ids)))

let prop_primary_heads_ranking =
  QCheck.Test.make ~name:"primary = head of rank and of replicas" ~count:300
    QCheck.(
      triple
        (make ~print:Topology.spec_string shared_topo_gen)
        (int_bound 1_000_000) (int_bound 1_000_000))
    (fun (topo, seed, key) ->
      let p = Placement.primary topo ~seed key in
      p = (List.hd (Placement.rank topo ~seed key)).Topology.id
      && p = List.hd (Placement.replicas topo ~seed ~r:1 key))

(* --- migration plans --- *)

let test_migration_minimal_movement () =
  let seed = 11 and s = 5 in
  let topo = Topology.standard ~shards:s in
  let keys = List.init 5000 (fun i -> i * 7) in
  let grown =
    Topology.add_shard topo
      { Topology.id = s; weight = 1; host = s; rack = s / 2 }
  in
  let plan =
    Migration.plan ~old_topology:topo ~new_topology:grown ~seed ~replicas:1
      ~keys
  in
  check "keys considered" 5000 plan.Migration.keys_considered;
  let moved = Migration.moved_keys plan in
  let optimal = 5000 / (s + 1) in
  checkb "moves at least something" true (moved > 0);
  checkb
    (Printf.sprintf "moved %d <= 1.5x optimal %d" moved optimal)
    true
    (float_of_int moved <= 1.5 *. float_of_int optimal);
  (* rendezvous minimality: every move lands on the new shard, and
     untouched keys keep their placement *)
  List.iter
    (fun (m : Migration.move) ->
      checkb "move targets the new shard" true (List.mem s m.to_shards))
    plan.Migration.moves;
  let moved_set = List.map (fun (m : Migration.move) -> m.key) plan.Migration.moves in
  List.iter
    (fun k ->
      if not (List.mem k moved_set) then
        checkb "untouched key placement unchanged" true
          (Placement.replicas topo ~seed ~r:1 k
           = Placement.replicas grown ~seed ~r:1 k))
    (List.filteri (fun i _ -> i mod 97 = 0) keys)

(* --- cluster end-to-end --- *)

let small_config ~journaled ~replicas =
  { Cluster.default_config with
    Cluster.replicas; shard_capacity = 256; universe = 1 lsl 14;
    journaled; seed = 7 }

let populate c n =
  for k = 0 to n - 1 do
    Cluster.insert c (k * 3) (value_of (k * 3))
  done

let sweep_ok c n =
  let ok = ref true in
  for k = 0 to n - 1 do
    (match Cluster.find c (k * 3) with
     | Some v -> if not (Bytes.equal v (value_of (k * 3))) then ok := false
     | None -> ok := false);
    if Cluster.find c ((k * 3) + 1) <> None then ok := false
  done;
  !ok

let test_cluster_basic_ops () =
  let c =
    Cluster.create
      ~config:(small_config ~journaled:false ~replicas:2)
      (Topology.standard ~shards:4)
  in
  populate c 120;
  check "size" 120 (Cluster.size c);
  checkb "all present, absent absent" true (sweep_ok c 120);
  (* batched scatter-gather agrees with direct reads, duplicates and
     misses included *)
  let keys = [ 0; 3; 3; 6; 1; 300; 9; 0 ] in
  let batched = Cluster.find_batch c keys in
  let direct = List.map (Cluster.find c) keys in
  checkb "batch = direct" true (batched = direct);
  check "batch answer arity" (List.length keys) (List.length batched);
  (* the batch cost honest rounds on the slowest shard *)
  let st = Cluster.stats c in
  checkb "batch rounds charged" true (st.Cluster.batch_rounds > 0);
  checkb "every shard holds keys" true
    (List.for_all (fun (_, n) -> n > 0) (Cluster.shard_sizes c));
  (* r=2: every key is stored twice across the shards *)
  check "copies = 2N"
    (2 * 120)
    (List.fold_left (fun acc (_, n) -> acc + n) 0 (Cluster.shard_sizes c));
  (* delete removes every copy *)
  checkb "delete reports presence" true (Cluster.delete c 0);
  checkb "delete of absent" false (Cluster.delete c 0);
  checkb "deleted gone" true (Cluster.find c 0 = None);
  check "size after delete" 119 (Cluster.size c)

let test_cluster_kill_shard_availability () =
  let c =
    Cluster.create
      ~config:(small_config ~journaled:false ~replicas:2)
      (Topology.standard ~shards:6)
  in
  populate c 200;
  Cluster.kill_shard c 3;
  checkb "shard down" true (Cluster.shard_down c 3);
  (* 100% availability: every key still answers correctly via its
     surviving replica *)
  checkb "all keys survive one shard kill" true (sweep_ok c 200);
  let st = Cluster.stats c in
  checkb "failovers counted" true (st.Cluster.failovers > 0);
  (* batched path fails over too *)
  let keys = List.init 200 (fun k -> k * 3) in
  let batched = Cluster.find_batch c keys in
  checkb "batched failover" true
    (List.for_all2
       (fun k v ->
         match v with Some b -> Bytes.equal b (value_of k) | None -> false)
       keys batched);
  (* updates keep working degraded: the dead shard just misses copies *)
  Cluster.insert c 601 (value_of 601);
  checkb "degraded insert readable" true
    (Cluster.find c 601 = Some (value_of 601))

let test_cluster_add_shard_migration () =
  let c =
    Cluster.create
      ~config:(small_config ~journaled:false ~replicas:1)
      (Topology.standard ~shards:4)
  in
  let n = 400 in
  populate c n;
  let report =
    Cluster.add_shard c { Topology.id = 4; weight = 1; host = 4; rack = 2 }
  in
  let optimal = n / 5 in
  checkb
    (Printf.sprintf "moved %d <= 1.5x optimal %d" report.Cluster.moved_keys
       optimal)
    true
    (float_of_int report.Cluster.moved_keys <= 1.5 *. float_of_int optimal);
  checkb "migration reads = moved keys" true
    (report.Cluster.reads = report.Cluster.moved_keys);
  checkb "migration charged rounds" true (report.Cluster.rounds > 0);
  checkb "all keys correct after growth" true (sweep_ok c n);
  checkb "new shard took keys" true
    (match List.assoc_opt 4 (Cluster.shard_sizes c) with
     | Some k -> k > 0
     | None -> false);
  (* remove it again: keys drain back, nothing lost *)
  let report2 = Cluster.remove_shard c 4 in
  checkb "drain moved the same keys" true
    (report2.Cluster.moved_keys = report.Cluster.moved_keys);
  checkb "all keys correct after drain" true (sweep_ok c n);
  checkb "shard state dropped" true
    (not (List.mem 4 (Cluster.shard_ids c)));
  (* reweight shifts load toward the heavier shard *)
  let before = List.assoc 0 (Cluster.shard_sizes c) in
  let r3 = Cluster.reweight c 0 ~weight:3 in
  checkb "reweight moved keys" true (r3.Cluster.moved_keys > 0);
  checkb "reweight correct" true (sweep_ok c n);
  checkb "shard 0 grew" true (List.assoc 0 (Cluster.shard_sizes c) > before)

let test_cluster_client_crash_visibility () =
  (* an armed crash on an update decides its visibility exactly as the
     journal protocol promises, replicated across shards *)
  List.iter
    (fun (point, survives, expect) ->
      let c =
        Cluster.create
          ~config:(small_config ~journaled:true ~replicas:2)
          (Topology.standard ~shards:3)
      in
      populate c 40;
      Cluster.set_crash c (Some point);
      (match Cluster.insert c 999 (value_of 999) with
       | () -> Alcotest.fail "armed crash did not fire"
       | exception Journal.Crashed -> ());
      let got = Cluster.recover c in
      checkb "recovery outcome matches journal promise" true
        (match (expect, got) with
         | `Clean, `Clean | `Discarded, `Discarded | `Replayed, `Replayed _ ->
           true
         | _ -> false);
      checkb "second recovery clean" true (Cluster.recover c = `Clean);
      checkb
        (Printf.sprintf "visibility matches protocol (%b)" survives)
        true
        (Cluster.find c 999 = (if survives then Some (value_of 999) else None));
      checkb "other keys untouched" true (sweep_ok c 40))
    [ (* pre-commit points leave the header empty (data blocks without
         a commit record are invisible), so recovery reports Clean *)
      (Journal.Before_log, false, `Clean);
      (Journal.After_log, false, `Clean);
      (Journal.After_commit, true, `Replayed);
      (* After_apply fires before the header clear: the committed log
         is still there and recovery (idempotently) replays it *)
      (Journal.After_apply, true, `Replayed) ]

let test_cluster_migration_crash_recovery () =
  (* crash injected into a migration move: lookups fall back to the
     old placement until recover re-executes the plan *)
  let crashes = ref 0 in
  List.iter
    (fun point ->
      List.iter
        (fun move_idx ->
          let c =
            Cluster.create
              ~config:(small_config ~journaled:true ~replicas:1)
              (Topology.standard ~shards:3)
          in
          let n = 60 in
          populate c n;
          (match
             Cluster.add_shard c ~crash:(move_idx, point)
               { Topology.id = 3; weight = 1; host = 3; rack = 1 }
           with
           | (_ : Cluster.migration_report) -> ()
             (* move_idx past the plan or the armed write skipped:
                migration completed *)
           | exception Journal.Crashed ->
             incr crashes;
             checkb "in flight" true (Cluster.migration_in_flight c);
             (* availability during the wreckage: every key answers
                via new home or old-placement fallback *)
             checkb "mid-crash sweep" true (sweep_ok c n);
             let st = Cluster.stats c in
             checkb "fallback used" true (st.Cluster.fallback_hits > 0);
             (match Cluster.recover c with
              | `Clean | `Discarded | `Replayed _ -> ());
             checkb "not in flight after recover" true
               (not (Cluster.migration_in_flight c)));
          checkb "post-recovery sweep" true (sweep_ok c n);
          checkb "second recover clean" true (Cluster.recover c = `Clean))
        [ 0; 3 ])
    [ Journal.Before_log; Journal.After_commit; Journal.After_apply ];
  checkb "crashes actually fired" true (!crashes >= 4)

let test_cluster_trace_shards () =
  let c =
    Cluster.create
      ~config:
        { (small_config ~journaled:false ~replicas:2) with
          Cluster.trace_rounds = 512 }
      (Topology.standard ~shards:3)
  in
  populate c 30;
  let evs = Cluster.trace_events c in
  checkb "traced" true (evs <> []);
  let shards =
    List.sort_uniq compare
      (List.map (fun (e : Pdm_sim.Trace.event) -> e.shard) evs)
  in
  check "all shards traced" 3 (List.length shards);
  (* shard-tagged JSONL round-trips *)
  List.iter
    (fun (e : Pdm_sim.Trace.event) ->
      checkb "event round-trips" true
        (Pdm_sim.Trace.event_of_json (Pdm_sim.Trace.event_to_json e) = Some e))
    (List.filteri (fun i _ -> i mod 17 = 0) evs)

(* --- sim harness cluster configs --- *)

let cluster_cfg =
  { (Config.default Config.Cluster) with
    Config.journaled = true; replicas = 2; capacity = 48; seed = 5 }

let test_sim_cluster_clean_run () =
  let ops = Gen.ops (Config.gen_spec ~count:96 cluster_cfg) in
  let r = Run.run cluster_cfg [] (Array.to_seq ops) in
  checkb "clean cluster run" true (Run.ok r);
  (* with a migration in the middle of the stream *)
  let cfg = { cluster_cfg with Config.migrate_at = 40 } in
  let r = Run.run cfg [] (Array.to_seq ops) in
  checkb "clean run across a live migration" true (Run.ok r);
  (* and with a shard kill *)
  let r =
    Run.run cfg
      [ Pdm_simtest.Sim_schedule.Kill { at = 10; disk = 1 } ]
      (Array.to_seq ops)
  in
  checkb "clean run across shard kill + migration" true (Run.ok r)

let test_sim_cluster_explore () =
  let out = Explore.explore ~budget:60 ~count:48 cluster_cfg in
  checkb "schedules explored" true (out.Explore.explored >= 30);
  check "no divergences" 0 (List.length out.Explore.divergent);
  check "all clean" out.Explore.explored out.Explore.clean

let test_sim_cluster_config_json () =
  (* new fields round-trip *)
  let cfg = { cluster_cfg with Config.migrate_at = 12 } in
  (match Config.of_json (Config.to_json cfg) with
   | Ok cfg' -> checkb "cluster config round-trips" true (cfg' = cfg)
   | Error m -> Alcotest.fail m);
  (* a pre-cluster config object (no shards/migrate_at fields) still
     parses, defaulting both *)
  let old = Config.default Config.One_probe_dynamic in
  let stripped =
    match Config.to_json old with
    | J.Obj fields ->
      J.Obj
        (List.filter
           (fun (k, _) -> k <> "shards" && k <> "migrate_at")
           fields)
    | j -> j
  in
  (match Config.of_json stripped with
   | Ok cfg' -> checkb "old repro config parses" true (cfg' = old)
   | Error m -> Alcotest.fail m);
  (* validation: the cluster knobs are rejected elsewhere *)
  checkb "shards on non-cluster rejected" true
    (match
       Config.validate { old with Config.shards = 3 }
     with
     | Error _ -> true
     | Ok () -> false);
  checkb "replicas > shards rejected" true
    (match Config.validate { cluster_cfg with Config.replicas = 9 } with
     | Error _ -> true
     | Ok () -> false);
  checkb "describe mentions topology" true
    (String.length (Config.describe { cluster_cfg with Config.migrate_at = 3 })
     > String.length "cluster")

let suite =
  [ ( "cluster",
      [ Alcotest.test_case "topology algebra" `Quick test_topology_algebra;
        Alcotest.test_case "topology spec roundtrip" `Quick
          test_topology_spec_roundtrip;
        Alcotest.test_case "migration minimal movement" `Quick
          test_migration_minimal_movement;
        Alcotest.test_case "basic ops + scatter-gather" `Quick
          test_cluster_basic_ops;
        Alcotest.test_case "kill-shard availability" `Quick
          test_cluster_kill_shard_availability;
        Alcotest.test_case "add/remove/reweight migrations" `Quick
          test_cluster_add_shard_migration;
        Alcotest.test_case "client crash visibility" `Quick
          test_cluster_client_crash_visibility;
        Alcotest.test_case "migration crash recovery" `Quick
          test_cluster_migration_crash_recovery;
        Alcotest.test_case "per-shard trace tags" `Quick
          test_cluster_trace_shards;
        Alcotest.test_case "sim clean runs" `Quick test_sim_cluster_clean_run;
        Alcotest.test_case "sim crash exploration" `Quick
          test_sim_cluster_explore;
        Alcotest.test_case "sim config json compat" `Quick
          test_sim_cluster_config_json ]
      @ List.map QCheck_alcotest.to_alcotest
          [ prop_placement_deterministic; prop_replicas_distinct_domains;
            prop_weight_ratios; prop_primary_heads_ranking ] ) ]
