(* Tests for the batched concurrent query engine: duplicate
   coalescing, round packing (one block per disk per round, with the
   sequential fallback when everything lands on one disk),
   replica-aware scheduling, structured failures carrying request ids,
   batch semantics, the Pdm.read_preferring primitive, and the cache
   coherence hooks the engine relies on. *)

open Pdm_sim
module Engine = Pdm_engine.Engine
module Adapters = Pdm_experiments.Adapters
module Engine_exp = Pdm_experiments.Engine_exp
module Trace = Pdm_workload.Trace
module Prng = Pdm_util.Prng
module Sampling = Pdm_util.Sampling
module Checksum = Pdm_dictionary.Codec.Checksum

let tc = Alcotest.test_case
let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let block_of t xs =
  let b = Array.make (Pdm.block_size t) None in
  List.iteri (fun i x -> b.(i) <- Some x) xs;
  b

(* A synthetic dictionary over a raw machine: key [k] probes the
   addresses [plan k]; the answer sums the blocks' first words, so a
   wrong or missing block changes the value. Every block of the
   machine holds [100 * disk + block]. *)
let decode_plan plan k =
  List.fold_left
    (fun acc (a : Pdm.addr) -> acc + (100 * a.Pdm.disk) + a.Pdm.block)
    0 (plan k)

let synthetic ?(replicas = 1) ?(spares = 0) ?(disks = 8) ?(blocks = 8) ?faults
    ~plan () =
  let m =
    Pdm.create ?faults ~replicas ~spares ~disks ~block_size:4
      ~blocks_per_disk:blocks ()
  in
  for d = 0 to disks - 1 do
    for b = 0 to blocks - 1 do
      let a = { Pdm.disk = d; block = b } and block = block_of m [ (100 * d) + b ] in
      (* a faulty machine is filled uncounted: no fault shows before
         the first lookup *)
      if faults = None then Pdm.write_one m a block else Pdm.poke m a block
    done
  done;
  let decode bs =
    Array.fold_left
      (fun acc arr -> match arr.(0) with Some v -> acc + v | None -> acc)
      0 bs
  in
  let lookup k =
    Engine.Fetch
      ( Array.of_list (plan k),
        fun bs -> Engine.Done (Some (Bytes.of_string (string_of_int (decode bs)))) )
  in
  ( m,
    { Engine.name = "synthetic"; machine = m; lookup; insert = None;
      delete = None },
    fun k -> Bytes.of_string (string_of_int (decode_plan plan k)) )

let one_batch_config q =
  { Engine.max_batch = q; deadline_rounds = 1_000_000; cache_blocks = 0 }

let run_keys ?config dict keys =
  let config =
    match config with Some c -> c | None -> one_batch_config (List.length keys)
  in
  let eng = Engine.create ~config dict in
  List.iter (fun k -> ignore (Engine.submit eng (Engine.Lookup k))) keys;
  Engine.drain eng;
  (eng, Engine.take_outcomes eng)

(* --- coalescing --- *)

let test_all_same_key_coalesces () =
  (* 32 identical lookups: the 8 probe blocks are fetched once, in one
     round (one per disk), every other instance is coalesced. *)
  let plan _ = List.init 8 (fun d -> { Pdm.disk = d; block = 0 }) in
  let _, dict, expect = synthetic ~plan () in
  let keys = List.init 32 (fun _ -> 5) in
  let eng, outs = run_keys dict keys in
  let s = Engine.stats eng in
  check "served" 32 s.Engine.requests_served;
  check "blocks fetched once" 8 s.Engine.blocks_fetched;
  check "31 duplicates x 8 blocks coalesced" (31 * 8) s.Engine.coalesced;
  check "one parallel round" 1 s.Engine.rounds;
  List.iter
    (fun (o : Engine.outcome) ->
      Alcotest.(check (option bytes)) "answer" (Some (expect 5)) o.Engine.value)
    outs

let test_one_disk_sequential_fallback () =
  (* Every probe lands on disk 0: the executor degrades to one block
     per round — never more rounds than distinct blocks. *)
  let blocks = 4 in
  let plan k = [ { Pdm.disk = 0; block = k mod blocks } ] in
  let _, dict, expect = synthetic ~blocks ~plan () in
  let keys = List.init 16 (fun i -> i) in
  let eng, outs = run_keys dict keys in
  let s = Engine.stats eng in
  check "distinct blocks fetched" blocks s.Engine.blocks_fetched;
  check "coalesced the rest" (16 - blocks) s.Engine.coalesced;
  check "sequential fallback: one round per block" blocks s.Engine.rounds;
  List.iter
    (fun (o : Engine.outcome) ->
      Alcotest.(check (option bytes)) "answer"
        (Some (expect (Engine.request_key o.Engine.request)))
        o.Engine.value)
    outs

let test_zipf_batch_on_real_dictionary () =
  let n = 256 and queries = 256 in
  let universe = 1 lsl 18 in
  let scale = { Adapters.default_scale with universe; capacity = n; seed = 3 } in
  let members, _ =
    Sampling.disjoint_pair (Prng.create 3) ~universe ~count:n
  in
  let data =
    Array.map (fun k -> (k, Pdm_experiments.Common.value_bytes_of 8 k)) members
  in
  let ad = Adapters.engine_one_probe_static ~scale ~degree:8 ~data () in
  let ops =
    Trace.zipf_lookups ~rng:(Prng.create 17) ~keys:members ~count:queries
      ~s:1.2
  in
  let keys =
    Array.to_list ops
    |> List.filter_map (function Trace.Lookup k -> Some k | _ -> None)
  in
  let eng, outs = run_keys ad.Adapters.engine_dict keys in
  let s = Engine.stats eng in
  let disks = Pdm.disks ad.Adapters.engine_dict.Engine.machine in
  checkb "skew coalesces heavily" true (s.Engine.coalesced > queries);
  checkb "rounds well under Q" true
    (s.Engine.rounds <= (queries / disks * 5 / 4) + 1);
  checkb "utilization above half of D" true
    (Engine.mean_utilization eng >= 0.5 *. float_of_int disks);
  List.iter2
    (fun k (o : Engine.outcome) ->
      Alcotest.(check (option bytes)) "matches direct path"
        (ad.Adapters.direct_find k) o.Engine.value)
    keys outs

(* --- replica-aware scheduling --- *)

let test_replicas_split_hot_disk () =
  (* All 8 probed blocks live on logical disk 0; with r = 2 their
     second replicas sit on disk 1, so the least-loaded assignment
     halves the rounds. *)
  let blocks = 8 in
  let plan k = [ { Pdm.disk = 0; block = k mod blocks } ] in
  let _, dict, expect = synthetic ~replicas:2 ~disks:4 ~blocks ~plan () in
  let keys = List.init blocks (fun i -> i) in
  let eng, outs = run_keys dict keys in
  let s = Engine.stats eng in
  check "blocks" blocks s.Engine.blocks_fetched;
  check "two replica disks halve the rounds" (blocks / 2) s.Engine.rounds;
  List.iter
    (fun (o : Engine.outcome) ->
      Alcotest.(check (option bytes)) "answer"
        (Some (expect (Engine.request_key o.Engine.request)))
        o.Engine.value)
    outs

let test_killed_disk_failover_within_2x () =
  let blocks = 8 in
  let plan k = [ { Pdm.disk = 0; block = k mod blocks } ] in
  let m, dict, expect = synthetic ~replicas:2 ~disks:4 ~blocks ~plan () in
  Pdm.kill_disk m 0;
  let keys = List.init blocks (fun i -> i) in
  let eng, outs = run_keys dict keys in
  let s = Engine.stats eng in
  checkb "completes within 2x the healthy rounds" true
    (s.Engine.rounds <= 2 * (blocks / 2));
  List.iter
    (fun (o : Engine.outcome) ->
      Alcotest.(check (option bytes)) "answer survives the kill"
        (Some (expect (Engine.request_key o.Engine.request)))
        o.Engine.value)
    outs

let test_unreplicated_failure_carries_request_id () =
  let plan _ = [ { Pdm.disk = 2; block = 0 } ] in
  let m, dict, _ = synthetic ~disks:4 ~plan () in
  Pdm.kill_disk m 2;
  let eng =
    Engine.create
      ~config:{ Engine.max_batch = 1; deadline_rounds = 0; cache_blocks = 0 }
      dict
  in
  (match Engine.submit eng (Engine.Lookup 7) with
   | _ -> Alcotest.fail "expected Request_failed"
   | exception Engine.Request_failed { id; key; error } ->
     check "request id" 0 id;
     check "key" 7 key;
     checkb "structured payload" true (Backend.describe error <> None))

(* --- batch semantics --- *)

let test_deadline_closes_batch () =
  let plan _ = [ { Pdm.disk = 0; block = 0 } ] in
  let _, dict, _ = synthetic ~plan () in
  let eng =
    Engine.create
      ~config:{ Engine.max_batch = 100; deadline_rounds = 2; cache_blocks = 0 }
      dict
  in
  ignore (Engine.submit eng (Engine.Lookup 1));
  ignore (Engine.submit eng (Engine.Lookup 2));
  check "still queued" 2 (Engine.queue_length eng);
  Engine.idle_round eng;
  check "deadline not reached" 2 (Engine.queue_length eng);
  Engine.idle_round eng;
  check "deadline fired" 0 (Engine.queue_length eng);
  let outs = Engine.take_outcomes eng in
  check "both served" 2 (List.length outs);
  check "one batch" 1 (Engine.stats eng).Engine.batches;
  List.iter
    (fun (o : Engine.outcome) ->
      checkb "latency counts queueing" true (Engine.latency o >= 2))
    outs

let test_insert_visible_to_same_batch_lookup () =
  let scale =
    { Adapters.default_scale with universe = 1 lsl 18; capacity = 64; seed = 5 }
  in
  let ad = Adapters.engine_cascade ~scale () in
  let eng =
    Engine.create ~config:(one_batch_config 4) ad.Adapters.engine_dict
  in
  let v = Pdm_experiments.Common.value_bytes_of 8 1234 in
  (* Lookup submitted before the insert — inserts still run first. *)
  ignore (Engine.submit eng (Engine.Lookup 1234));
  ignore (Engine.submit eng (Engine.Insert (1234, v)));
  Engine.drain eng;
  match Engine.take_outcomes eng with
  | [ lookup; insert ] ->
    checkb "lookup sees the batch's insert" true
      (lookup.Engine.value = Some v);
    checkb "insert acked" true (insert.Engine.value = None);
    checkb "insert rounds charged" true
      ((Engine.stats eng).Engine.insert_rounds > 0)
  | outs -> Alcotest.failf "expected 2 outcomes, got %d" (List.length outs)

let test_cascade_two_phase_through_engine () =
  let n = 64 in
  let scale =
    { Adapters.default_scale with universe = 1 lsl 18; capacity = n; seed = 7 }
  in
  let ad = Adapters.engine_cascade ~scale () in
  let members, absent =
    Sampling.disjoint_pair (Prng.create 7) ~universe:(1 lsl 18) ~count:n
  in
  let ins = Option.get ad.Adapters.engine_dict.Engine.insert in
  Array.iter
    (fun k -> ins k (Pdm_experiments.Common.value_bytes_of 8 k))
    members;
  let keys = Array.to_list members @ Array.to_list (Array.sub absent 0 16) in
  let eng, outs = run_keys ad.Adapters.engine_dict keys in
  ignore eng;
  List.iter2
    (fun k (o : Engine.outcome) ->
      Alcotest.(check (option bytes)) "cascade via engine = direct"
        (ad.Adapters.direct_find k) o.Engine.value)
    keys outs

(* --- Pdm.read_preferring --- *)

let test_read_preferring_uses_requested_replica () =
  let m : int Pdm.t =
    Pdm.create ~replicas:2 ~disks:4 ~block_size:4 ~blocks_per_disk:8 ()
  in
  let a = { Pdm.disk = 0; block = 3 } in
  Pdm.write_one m a (block_of m [ 42 ]);
  Alcotest.(check (list int)) "replica disks" [ 0; 1 ]
    (List.init 2 (Pdm.replica_disk m a));
  Stats.reset (Pdm.stats m);
  (match Pdm.read_preferring m [| a |] [| 1 |] with
   | [| arr |] -> Alcotest.(check (option int)) "value" (Some 42) arr.(0)
   | _ -> Alcotest.fail "one block expected");
  let snap = Stats.snapshot (Pdm.stats m) in
  check "served by replica disk 1" 1 (Stats.disk_totals snap).(1);
  check "disk 0 untouched" 0 (Stats.disk_totals snap).(0)

let test_read_preferring_fails_over () =
  let m : int Pdm.t =
    Pdm.create ~replicas:2 ~disks:4 ~block_size:4 ~blocks_per_disk:8 ()
  in
  let a = { Pdm.disk = 0; block = 1 } in
  Pdm.write_one m a (block_of m [ 9 ]);
  Pdm.kill_disk m 1;
  (match Pdm.read_preferring m [| a |] [| 1 |] with
   | [| arr |] ->
     Alcotest.(check (option int)) "failover to replica 0" (Some 9) arr.(0)
   | _ -> Alcotest.fail "one block expected");
  Alcotest.check_raises "replica out of range"
    (Invalid_argument "Pdm.read_preferring: replica out of range") (fun () ->
      ignore (Pdm.read_preferring m [| a |] [| 2 |]))

(* A repeated address is rejected before any I/O; distinct addresses
   sharing a disk are answered in their positions. *)
let test_read_preferring_rejects_duplicates () =
  let m : int Pdm.t =
    Pdm.create ~replicas:2 ~disks:4 ~block_size:4 ~blocks_per_disk:8 ()
  in
  let a = { Pdm.disk = 2; block = 0 } and b = { Pdm.disk = 2; block = 5 } in
  let c = { Pdm.disk = 3; block = 0 } in
  Pdm.write_one m a (block_of m [ 5 ]);
  Pdm.write_one m b (block_of m [ 6 ]);
  Pdm.write_one m c (block_of m [ 7 ]);
  let before = Pdm.rounds_total m in
  Alcotest.check_raises "a repeated address"
    (Invalid_argument "Pdm.read_preferring: duplicate address") (fun () ->
      ignore (Pdm.read_preferring m [| a; c; b; a |] [| 0; 1; 0; 1 |]));
  check "no I/O" before (Pdm.rounds_total m);
  let first = Array.map (fun arr -> arr.(0)) in
  Alcotest.(check (array (option int))) "block i answers address i"
    [| Some 6; Some 7; Some 5 |]
    (first (Pdm.read_preferring m [| b; c; a |] [| 0; 1; 1 |]))

let test_read_preferring_validates_duplicates () =
  (* Every preference must be a valid replica, a repeated address's
     included: the range check comes before the duplicate check. *)
  let m : int Pdm.t =
    Pdm.create ~replicas:2 ~disks:4 ~block_size:4 ~blocks_per_disk:8 ()
  in
  let a = { Pdm.disk = 1; block = 2 } in
  Alcotest.check_raises "a duplicate's preference is validated"
    (Invalid_argument "Pdm.read_preferring: replica out of range") (fun () ->
      ignore (Pdm.read_preferring m [| a; a |] [| 0; 5 |]))

(* --- the read-only-view sanitizer check --- *)

(* A two-step synthetic plan: key [k] fetches two blocks, then a third;
   the answer sums the three blocks' first words. With [scribble] the
   first continuation writes into the blocks it was handed. *)
let two_step_dict ~scribble =
  let first k =
    [ { Pdm.disk = k mod 8; block = k mod 8 };
      { Pdm.disk = (k + 3) mod 8; block = 0 } ]
  in
  let second k = [ { Pdm.disk = (k + 5) mod 8; block = k mod 4 } ] in
  let m, dict, _ = synthetic ~plan:first () in
  let sum bs =
    Array.fold_left
      (fun acc arr -> match arr.(0) with Some v -> acc + v | None -> acc)
      0 bs
  in
  let lookup k =
    Engine.Fetch
      ( Array.of_list (first k),
        fun bs ->
          if scribble then Array.iter (fun arr -> arr.(0) <- None) bs;
          let s = sum bs in
          Engine.Fetch
            ( Array.of_list (second k),
              fun bs2 ->
                Engine.Done (Some (Bytes.of_string (string_of_int (s + sum bs2))))
            ) )
  in
  (m, { dict with Engine.lookup })

let test_sanitizer_catches_written_view () =
  let _, dict = two_step_dict ~scribble:true in
  let eng = Engine.create ~config:(one_batch_config 1) dict in
  match
    Sanitize.with_sanitize true (fun () -> Engine.run eng [ Engine.Lookup 1 ])
  with
  | _ -> Alcotest.fail "expected a read-only-view violation"
  | exception Sanitize.Sanitizer_violation v ->
    Alcotest.(check string) "check" "read-only-view" v.Sanitize.check

(* A caller that only writes after a view was written into is still
   caught: the machine's next write runs the check. *)
let test_sanitizer_write_checks_views () =
  let m : int Pdm.t = Pdm.create ~disks:4 ~block_size:4 ~blocks_per_disk:8 () in
  let a = { Pdm.disk = 1; block = 2 } and b = { Pdm.disk = 2; block = 3 } in
  Pdm.write_one m a (block_of m [ 1 ]);
  match
    Sanitize.with_sanitize true (fun () ->
        let view = (Pdm.read_views m [| a |]).(0) in
        view.(0) <- Some 99;
        Pdm.write_one m b (block_of m [ 2 ]))
  with
  | () -> Alcotest.fail "expected a read-only-view violation"
  | exception Sanitize.Sanitizer_violation v ->
    Alcotest.(check string) "check" "read-only-view" v.Sanitize.check

let test_sanitizer_view_check_is_transparent () =
  let run sanitize =
    let m, dict = two_step_dict ~scribble:false in
    let tr = Pdm_sim.Trace.create () in
    Pdm.set_trace m (Some tr);
    let eng = Engine.create ~config:(one_batch_config 5) dict in
    let requests = List.init 12 (fun k -> Engine.Lookup k) in
    let answers =
      Sanitize.with_sanitize sanitize (fun () -> Engine.run eng requests)
    in
    ( List.map
        (function
          | Ok (o : Engine.outcome) -> o.Engine.value
          | Error _ -> Alcotest.fail "lookup failed")
        answers,
      Engine.round eng,
      Pdm.rounds_total m,
      Pdm_sim.Trace.events tr )
  in
  let off_answers, off_rounds, off_machine, off_trace = run false in
  let on_answers, on_rounds, on_machine, on_trace = run true in
  Alcotest.(check (list (option bytes))) "answers" off_answers on_answers;
  check "engine rounds" off_rounds on_rounds;
  check "machine rounds" off_machine on_machine;
  checkb "trace events" true (off_trace = on_trace);
  Alcotest.(check (option bytes)) "answer of key 3"
    (Some (Bytes.of_string (string_of_int (303 + 600 + 3))))
    (List.nth on_answers 3)

(* --- cache coherence with writers that bypass the cache --- *)

let test_cache_sees_direct_writes () =
  let m : int Pdm.t =
    Pdm.create ~disks:4 ~block_size:4 ~blocks_per_disk:8 ()
  in
  let c = Cache.create m ~capacity_blocks:4 in
  let a = { Pdm.disk = 1; block = 2 } in
  Pdm.write_one m a (block_of m [ 1 ]);
  Alcotest.(check (option int)) "first read" (Some 1)
    (Cache.read c [| a |]).(0).(0);
  (* A writer that bypasses the cache (second handle, journal replay,
     repair): the listener must drop the stale copy. *)
  Pdm.write_one m a (block_of m [ 2 ]);
  Alcotest.(check (option int)) "write invalidates" (Some 2)
    (Cache.read c [| a |]).(0).(0);
  Pdm.poke m a (block_of m [ 3 ]);
  Alcotest.(check (option int)) "poke invalidates" (Some 3)
    (Cache.read c [| a |]).(0).(0);
  check "every re-read was a miss" 3 (Cache.misses c)

let test_cache_coherent_after_journal_replay () =
  let m : int Pdm.t =
    Pdm.create ~disks:4 ~block_size:8 ~blocks_per_disk:8 ()
  in
  let j = Journal.create m ~block_offset:4 ~capacity_blocks:8 in
  let c = Cache.create m ~capacity_blocks:4 in
  let a = { Pdm.disk = 0; block = 0 } in
  Pdm.write_one m a (block_of m [ 10 ]);
  Alcotest.(check (option int)) "cached old value" (Some 10)
    (Cache.read c [| a |]).(0).(0);
  (* Committed but unapplied batch; recovery replays it through
     Pdm.write, which must invalidate the cached copy. *)
  (try Journal.log_and_apply j ~crash:Journal.After_commit [ (a, block_of m [ 11 ]) ]
   with Journal.Crashed -> ());
  (match Journal.recover m ~block_offset:4 ~capacity_blocks:8 with
   | `Replayed _ -> ()
   | `Clean | `Discarded -> Alcotest.fail "expected a replay");
  Alcotest.(check (option int)) "replayed value visible" (Some 11)
    (Cache.read c [| a |]).(0).(0)

let test_cache_coherent_after_scrub_repair () =
  let m : int Pdm.t =
    Pdm.create ~replicas:2 ~integrity:Checksum.integrity ~disks:4
      ~block_size:8 ~blocks_per_disk:8 ()
  in
  let c = Cache.create m ~capacity_blocks:8 in
  let a = { Pdm.disk = 0; block = 0 } in
  let b = { Pdm.disk = 1; block = 0 } in
  Pdm.write_one m a (block_of m [ 21 ]);
  Pdm.write_one m b (block_of m [ 22 ]);
  ignore (Cache.read c [| a; b |]);
  check "both resident" 2 (Cache.resident c);
  Pdm.damage_stored m a ~replica:0;
  let r = Pdm.scrub m in
  checkb "scrub repaired the rot" true (r.Pdm.repaired_replicas >= 1);
  checkb "repaired block dropped from cache" true
    (Cache.find_cached c a = None);
  checkb "untouched block still resident" true
    (Cache.find_cached c b <> None);
  Alcotest.(check (option int)) "re-read sees repaired data" (Some 21)
    (Cache.read c [| a |]).(0).(0)

(* --- the E18 experiment itself, at test scale --- *)

let test_engine_experiment_small () =
  let r =
    Engine_exp.run ~universe:(1 lsl 18) ~n:256 ~queries:512 ~degree:16
      ~seed:11 ()
  in
  checkb "within 1.25 ceil(Q/D) rounds" true r.Engine_exp.within_bound;
  checkb "identical answers" true r.Engine_exp.answers_match;
  checkb "utilization >= 0.8 D" true r.Engine_exp.utilization_ok;
  checkb "degraded within 2x" true r.Engine_exp.degraded_within_2x;
  checkb "degraded answers identical" true r.Engine_exp.degraded_match;
  checkb "beats unbatched" true
    (r.Engine_exp.engine_rounds < r.Engine_exp.unbatched_rounds)

(* Deletes run with the batch's updates, before its lookups, and
   encode their found/not-found bit through [Engine.deleted_value]. *)
let test_delete_through_engine () =
  let scale =
    { Adapters.default_scale with universe = 1 lsl 18; capacity = 64; seed = 11 }
  in
  let ad = Adapters.engine_cascade ~scale () in
  let eng =
    Engine.create ~config:(one_batch_config 8) ad.Adapters.engine_dict
  in
  let v = Pdm_experiments.Common.value_bytes_of 8 42 in
  ignore (Engine.submit eng (Engine.Insert (42, v)));
  Engine.drain eng;
  ignore (Engine.take_outcomes eng);
  ignore (Engine.submit eng (Engine.Lookup 42));
  ignore (Engine.submit eng (Engine.Delete 42));
  ignore (Engine.submit eng (Engine.Delete 43));
  Engine.drain eng;
  (match Engine.take_outcomes eng with
   | [ lookup; del_present; del_absent ] ->
     checkb "same-batch lookup sees the delete" true
       (lookup.Engine.value = None);
     checkb "delete of a present key" true
       (del_present.Engine.value = Engine.deleted_value true);
     checkb "delete of an absent key" true
       (del_absent.Engine.value = Engine.deleted_value false);
     checkb "direct find agrees" true (ad.Adapters.direct_find 42 = None)
   | outs -> Alcotest.failf "expected 3 outcomes, got %d" (List.length outs));
  checkb "deleted_value present" true
    (Engine.deleted_value true = Some Bytes.empty);
  checkb "deleted_value absent" true (Engine.deleted_value false = None)

(* Engine.run answers every request it was given, in request order: a
   storage failure is an [Error] for each request it left unanswered,
   and the next run answers only its own requests. *)
let test_run_failure_contract () =
  let plan k = [ { Pdm.disk = k mod 4; block = 0 } ] in
  let m, dict, expect = synthetic ~disks:4 ~plan () in
  Pdm.kill_disk m 2;
  let eng = Engine.create ~config:(one_batch_config 2) dict in
  let lookups = List.map (fun k -> Engine.Lookup k) in
  let answered k = function
    | Ok (o : Engine.outcome) ->
      check "request order" k (Engine.request_key o.Engine.request);
      Alcotest.(check (option bytes)) "answer" (Some (expect k)) o.Engine.value
    | Error e -> Alcotest.failf "key %d: %s" k (Printexc.to_string e)
  in
  (match Engine.run eng (lookups [ 0; 1; 2; 3 ]) with
   | [ a0; a1; Error e2; Error e3 ] ->
     answered 0 a0;
     answered 1 a1;
     checkb "one failure for both" true (e2 == e3);
     (match e2 with
      | Engine.Request_failed { key; error; _ } ->
        check "attributed to the request on the dead disk" 2 key;
        checkb "structured payload" true (Backend.describe error <> None)
      | e -> Alcotest.failf "expected Request_failed, got %s"
               (Printexc.to_string e))
   | rs -> Alcotest.failf "expected Ok, Ok, Error, Error (%d answers)"
             (List.length rs));
  check "nothing left queued" 0 (Engine.queue_length eng);
  match Engine.run eng (lookups [ 1; 3 ]) with
  | [ a1; a3 ] -> answered 1 a1; answered 3 a3
  | rs -> Alcotest.failf "expected exactly 2 answers, got %d" (List.length rs)

(* The engine's accounting is bounded: 10 000 more one-lookup batches,
   outcomes taken each time, leave its reachable heap unchanged. *)
let test_accounting_is_bounded () =
  let plan k = [ { Pdm.disk = k mod 4; block = 0 } ] in
  let _, dict, _ = synthetic ~disks:4 ~blocks:1 ~plan () in
  let eng = Engine.create ~config:(one_batch_config 1) dict in
  let serve n =
    for k = 1 to n do
      ignore (Engine.submit eng (Engine.Lookup k));
      ignore (Engine.take_outcomes eng)
    done
  in
  serve 100;
  let words = Obj.reachable_words (Obj.repr eng) in
  serve 10_000;
  check "reachable words" words (Obj.reachable_words (Obj.repr eng))

(* --- round packing against a reference greedy (qcheck) --- *)

(* The packing rules, written out with lists. The batch's wanted
   blocks are the distinct plan addresses in first-seen order (oldest
   request first), each owned by the first request that wants it. Each
   round walks the pending blocks in order:
   - candidates are the healthy replicas, in replica order;
   - the one with the least cumulative load wins, the first on a tie;
   - a block with no healthy replica is issued anyway, on replica 0;
   - a block whose healthy replicas are all used this round is
     deferred, keeping its order.
   Loads advance after the round. A round that issues a block with no
   healthy replica fails; the answer is then the rounds before it and
   that round's issued [(addr, owner)] list. *)
let reference_packing m ~down ~load plans =
  let wanted =
    List.concat (List.mapi (fun i p -> List.map (fun a -> (a, i)) p) plans)
    |> List.fold_left
         (fun acc (a, i) -> if List.mem_assoc a acc then acc else (a, i) :: acc)
         []
    |> List.rev
  in
  let rec go pending acc =
    if pending = [] then (List.rev acc, None)
    else begin
      let used = Array.make (Pdm.physical_disks m) false in
      let issue = ref [] and defer = ref [] and unhealthy = ref false in
      List.iter
        (fun (a, i) ->
          let reps = List.init (Pdm.replicas m) (fun j -> (j, Pdm.replica_disk m a j)) in
          match List.filter (fun (_, d) -> not (down d)) reps with
          | [] ->
            unhealthy := true;
            issue := (a, i, snd (List.hd reps)) :: !issue
          | healthy -> (
            match List.filter (fun (_, d) -> not used.(d)) healthy with
            | [] -> defer := (a, i) :: !defer
            | first :: rest ->
              let _, d =
                List.fold_left
                  (fun (bj, bd) (j, d) ->
                    if load.(d) < load.(bd) then (j, d) else (bj, bd))
                  first rest
              in
              used.(d) <- true;
              issue := (a, i, d) :: !issue))
        pending;
      let issue = List.rev !issue in
      if !unhealthy then
        (List.rev acc, Some (List.map (fun (a, i, _) -> (a, i)) issue))
      else begin
        let per_disk = Array.make (Pdm.physical_disks m) 0 in
        List.iter
          (fun (_, _, d) ->
            per_disk.(d) <- per_disk.(d) + 1;
            load.(d) <- load.(d) + 1)
          issue;
        go (List.rev !defer) (per_disk :: acc)
      end
    end
  in
  go wanted []

type packing_case = {
  p_disks : int;
  p_replicas : int;
  p_spares : int;
  p_blocks : int;
  p_warm : Pdm.addr list list;  (* warm-up batch: makes the loads uneven *)
  p_killed : int list;          (* killed after the warm-up *)
  p_plans : Pdm.addr list list; (* the measured batch *)
}

let packing_gen =
  QCheck.Gen.(
    let* disks = int_range 2 16 in
    let* replicas = int_range 1 (min 3 disks) in
    let* spares = int_range 0 1 in
    let* blocks = int_range 1 4 in
    (* a hot disk 0 puts several plan blocks on one disk *)
    let disk = frequency [ (3, int_bound (disks - 1)); (1, return 0) ] in
    let addr =
      map2 (fun d b -> { Pdm.disk = d; block = b }) disk (int_bound (blocks - 1))
    in
    let plans n = list_size (int_range 1 n) (list_size (int_range 1 6) addr) in
    let* warm = plans 8 in
    let* killed =
      frequency
        [ (2, return []); (3, list_size (int_range 1 2) (int_bound (disks - 1))) ]
    in
    let* plans = plans 24 in
    return
      { p_disks = disks; p_replicas = replicas; p_spares = spares;
        p_blocks = blocks; p_warm = warm; p_killed = killed; p_plans = plans })

(* One daemon lookup's plan: a block on every one of the 15 disks, in
   a random order. *)
let daemon_plan blocks =
  QCheck.Gen.(
    let* disks = shuffle_l (List.init 15 Fun.id) in
    flatten_l
      (List.map
         (fun d -> map (fun b -> { Pdm.disk = d; block = b }) (int_bound (blocks - 1)))
         disks))

(* Daemon-shaped batches: 15 disks, 2 replicas, 1 spare and 16-64
   lookups, so most rounds take every disk and close early. Two
   adjacent dead disks leave the blocks of the first with no healthy
   replica, at random places in the pending order. *)
let daemon_packing_gen =
  QCheck.Gen.(
    let* blocks = int_range 2 8 in
    let* warm = list_size (int_range 0 4) (daemon_plan blocks) in
    let* killed =
      frequency
        [ (2, return []);
          (1, map (fun d -> [ d ]) (int_bound 14));
          (2, map (fun d -> [ d; (d + 1) mod 15 ]) (int_bound 14)) ]
    in
    let* plans = list_size (int_range 16 64) (daemon_plan blocks) in
    return
      { p_disks = 15; p_replicas = 2; p_spares = 1; p_blocks = blocks;
        p_warm = warm; p_killed = killed; p_plans = plans })

let packing_arb gen =
  let addrs p =
    String.concat " "
      (List.map (fun (a : Pdm.addr) -> Printf.sprintf "%d.%d" a.disk a.block) p)
  in
  let plans ps = String.concat " | " (List.map addrs ps) in
  QCheck.make gen ~print:(fun c ->
      Printf.sprintf
        "disks %d replicas %d spares %d blocks %d killed [%s]\n\
         warm-up: %s\nplans: %s"
        c.p_disks c.p_replicas c.p_spares c.p_blocks
        (String.concat ";" (List.map string_of_int c.p_killed))
        (plans c.p_warm) (plans c.p_plans))

(* The engine's rounds, as the machine's trace records them, and the
   request any failure is pinned on, are the reference greedy's. A
   failing round's own scheduler passes are the machine's business:
   only the rounds before it are compared, and the failing disk is the
   one the machine's error names. *)
let packing_matches_reference c =
  let all = Array.of_list (c.p_warm @ c.p_plans) in
  let warm_n = List.length c.p_warm in
  let m, dict, _ =
    synthetic ~replicas:c.p_replicas ~spares:c.p_spares ~disks:c.p_disks
      ~blocks:c.p_blocks ~plan:(fun k -> all.(k)) ()
  in
  let tr = Pdm_sim.Trace.create () in
  Pdm.set_trace m (Some tr);
  let eng = Engine.create ~config:(one_batch_config (Array.length all)) dict in
  let read_rounds () =
    List.filter_map
      (fun (e : Pdm_sim.Trace.event) ->
        if e.op = Pdm_sim.Trace.Read then Some e.per_disk else None)
      (Pdm_sim.Trace.events tr)
  in
  (* the batch runs at its last submit when it fills the engine *)
  let batch lo n =
    match
      for k = lo to lo + n - 1 do
        ignore (Engine.submit eng (Engine.Lookup k))
      done;
      Engine.drain eng
    with
    | () -> None
    | exception Engine.Request_failed { id; key; error } ->
      Some (id, key, error)
  in
  let load = Array.make (Pdm.physical_disks m) 0 in
  let warm_ref, warm_fail =
    reference_packing m ~down:(fun _ -> false) ~load c.p_warm
  in
  if warm_fail <> None then QCheck.Test.fail_report "warm-up cannot fail";
  if batch 0 warm_n <> None then QCheck.Test.fail_report "warm-up failed";
  if read_rounds () <> warm_ref then
    QCheck.Test.fail_report "warm-up rounds differ";
  Pdm_sim.Trace.clear tr;
  List.iter (Pdm.kill_disk m) c.p_killed;
  let expect, expect_fail =
    reference_packing m ~down:(fun d -> List.mem d c.p_killed) ~load
      c.p_plans
  in
  let rec is_prefix xs ys =
    match (xs, ys) with
    | [], _ -> true
    | x :: xs, y :: ys -> x = y && is_prefix xs ys
    | _ :: _, [] -> false
  in
  match (batch warm_n (List.length c.p_plans), expect_fail) with
  | None, None ->
    read_rounds () = expect || QCheck.Test.fail_report "rounds differ"
  | Some (id, key, error), Some issued ->
    let failing =
      match error with
      | Backend.Disk_failed e -> e.Backend.disk
      | _ -> QCheck.Test.fail_report "expected Disk_failed"
    in
    let culprit =
      match
        List.find_opt
          (fun (a, _) ->
            List.mem failing (List.init (Pdm.replicas m) (Pdm.replica_disk m a)))
          issued
      with
      | Some (_, i) -> i
      | None -> snd (List.hd issued)
    in
    if not (is_prefix expect (read_rounds ())) then
      QCheck.Test.fail_report "rounds before the failure differ";
    (id = warm_n + culprit && key = warm_n + culprit)
    || QCheck.Test.fail_reportf "failure pinned on %d (key %d), want %d"
         id key (warm_n + culprit)
  | None, Some _ -> QCheck.Test.fail_report "expected a failure"
  | Some (id, _, _), None ->
    QCheck.Test.fail_reportf "unexpected failure of %d" id

let prop_packing_matches_reference =
  QCheck.Test.make ~name:"round packing = reference greedy" ~count:300
    (packing_arb packing_gen) packing_matches_reference

let prop_daemon_packing_matches_reference =
  QCheck.Test.make ~name:"round packing = reference greedy, daemon-shaped"
    ~count:200 (packing_arb daemon_packing_gen) packing_matches_reference

(* --- the batch executor against the list-based one it replaced --- *)

(* The list-based executor, as it stood before plans became positional:
   a step's blocks come back as an [(addr * block) list], a batch keeps
   its fetched blocks in an address table that [settle] maps every
   step's addresses through on every pass, and a [seen] table marks the
   blocks planned this pass. Only the calls into [Pdm] follow its
   current signatures. It serves lookups only, from a plan given as
   lists. *)
module Reference = struct
  module Addr_tbl = Hashtbl.Make (struct
    type t = Pdm.addr

    let equal (a : t) (b : t) = a.disk = b.disk && a.block = b.block
    let hash (a : t) = (a.block * 65_599) + a.disk
  end)

  type blocks = (Pdm.addr * int option array) list

  type step = Done of Bytes.t option | Fetch of Pdm.addr list * (blocks -> step)

  type pending = { id : int; key : int; submitted : int }

  type t = {
    m : int Pdm.t;
    lookup : int -> step;
    cfg : Engine.config;
    cache : int Cache.t option;
    queue : pending Queue.t;
    mutable next_id : int;
    mutable round : int;
    mutable outcomes : (int * Bytes.t option * int * int) list;
    disk_load : int array;
    mutable served : int;
    mutable batches : int;
    mutable fetch_rounds : int;
    mutable blocks_fetched : int;
    mutable coalesced : int;
    mutable cache_hits : int;
    mutable total_latency : int;
    mutable max_latency : int;
  }

  let create cfg m lookup =
    { m; lookup; cfg;
      cache =
        (if cfg.Engine.cache_blocks > 0 then
           Some (Cache.create m ~capacity_blocks:cfg.Engine.cache_blocks)
         else None);
      queue = Queue.create (); next_id = 0; round = 0; outcomes = [];
      disk_load = Array.make (Pdm.physical_disks m) 0;
      served = 0; batches = 0; fetch_rounds = 0; blocks_fetched = 0;
      coalesced = 0; cache_hits = 0; total_latency = 0; max_latency = 0 }

  let stats t =
    { Engine.rounds = t.round; fetch_rounds = t.fetch_rounds;
      insert_rounds = 0; blocks_fetched = t.blocks_fetched;
      requests_served = t.served; batches = t.batches;
      coalesced = t.coalesced; cache_hits = t.cache_hits;
      total_latency = t.total_latency; max_latency = t.max_latency }

  let complete t p value =
    let lat = t.round - p.submitted in
    t.served <- t.served + 1;
    t.total_latency <- t.total_latency + lat;
    if lat > t.max_latency then t.max_latency <- lat;
    t.outcomes <- (p.id, value, p.submitted, t.round) :: t.outcomes

  let rec settle tbl st =
    match st with
    | Done _ -> st
    | Fetch (addrs, k) -> (
      match List.map (fun a -> (a, Addr_tbl.find tbl a)) addrs with
      | blocks -> settle tbl (k blocks)
      | exception Not_found -> st)

  let fetch_all t tbl (wanted : (Pdm.addr * pending) array) =
    let m = t.m in
    let n = Array.length wanted in
    let r = Pdm.replicas m in
    let reps = Array.make (n * r) 0 in
    Array.iteri
      (fun i (a, _) ->
        for j = 0 to r - 1 do
          reps.((i * r) + j) <- Pdm.replica_disk m a j
        done)
      wanted;
    let pending = Array.init n Fun.id and issued = Array.make n 0 in
    let used = Array.make (Array.length t.disk_load) (-1) in
    let npending = ref n and round = ref 0 in
    while !npending > 0 do
      let nissued = ref 0 and ndeferred = ref 0 in
      for x = 0 to !npending - 1 do
        let i = pending.(x) in
        let best = ref (-1) and healthy = ref false in
        for s = i * r to (i * r) + r - 1 do
          let d = reps.(s) in
          if not (Pdm.disk_down m d) then begin
            healthy := true;
            if
              used.(d) <> !round
              && (!best < 0 || t.disk_load.(d) < t.disk_load.(reps.(!best)))
            then best := s
          end
        done;
        if not !healthy then begin
          issued.(!nissued) <- i * r;
          incr nissued
        end
        else if !best < 0 then begin
          pending.(!ndeferred) <- i;
          incr ndeferred
        end
        else begin
          used.(reps.(!best)) <- !round;
          issued.(!nissued) <- !best;
          incr nissued
        end
      done;
      let assignment = ref [] in
      for c = !nissued - 1 downto 0 do
        let s = issued.(c) in
        assignment := (fst wanted.(s / r), s mod r) :: !assignment
      done;
      let before = Pdm.rounds_total m in
      let fetched =
        try
          let addrs = List.map fst !assignment in
          let blocks =
            Pdm.read_preferring m (Array.of_list addrs)
              (Array.of_list (List.map snd !assignment))
          in
          List.mapi (fun c a -> (a, blocks.(c))) addrs
        with e -> (
          match Backend.describe e with
          | None -> raise e
          | Some _ ->
            let failing_disk =
              match e with
              | Backend.Disk_failed err | Backend.Corrupt_block err ->
                err.Backend.disk
              | Backend.Retries_exhausted { disk; _ } -> disk
              | _ -> -1
            in
            let on_failing_disk c =
              let base = issued.(c) / r * r in
              let rec has j =
                j < r && (reps.(base + j) = failing_disk || has (j + 1))
              in
              has 0
            in
            let rec culprit c =
              if c >= !nissued then 0 else if on_failing_disk c then c
              else culprit (c + 1)
            in
            let p = snd wanted.(issued.(culprit 0) / r) in
            raise (Engine.Request_failed { id = p.id; key = p.key; error = e }))
      in
      let delta = max 1 (Pdm.rounds_total m - before) in
      t.round <- t.round + delta;
      t.fetch_rounds <- t.fetch_rounds + delta;
      for c = 0 to !nissued - 1 do
        let d = reps.(issued.(c)) in
        t.disk_load.(d) <- t.disk_load.(d) + 1
      done;
      List.iter
        (fun (a, data) ->
          t.blocks_fetched <- t.blocks_fetched + 1;
          Addr_tbl.replace tbl a data;
          match t.cache with
          | Some c -> Cache.note_fetched c a data
          | None -> ())
        fetched;
      npending := !ndeferred;
      incr round
    done

  let run_batch t batch =
    t.batches <- t.batches + 1;
    let tbl = Addr_tbl.create 64 and seen = Addr_tbl.create 64 in
    let inflight = List.map (fun p -> (p, ref (t.lookup p.key))) batch in
    let rec pass inflight =
      let still =
        List.filter
          (fun (p, str) ->
            match settle tbl !str with
            | Done v ->
              complete t p v;
              false
            | st ->
              str := st;
              true)
          inflight
      in
      if still <> [] then begin
        Addr_tbl.clear seen;
        let wanted = ref [] in
        List.iter
          (fun (p, str) ->
            match !str with
            | Done _ -> ()
            | Fetch (addrs, _) ->
              List.iter
                (fun a ->
                  if Addr_tbl.mem tbl a || Addr_tbl.mem seen a then
                    t.coalesced <- t.coalesced + 1
                  else
                    let cached =
                      match t.cache with
                      | Some c -> Cache.find_cached c a
                      | None -> None
                    in
                    match cached with
                    | Some data ->
                      Addr_tbl.replace tbl a data;
                      t.cache_hits <- t.cache_hits + 1
                    | None ->
                      Addr_tbl.add seen a ();
                      wanted := (a, p) :: !wanted)
                addrs)
          still;
        if !wanted <> [] then fetch_all t tbl (Array.of_list (List.rev !wanted));
        pass still
      end
    in
    pass inflight

  let take_batch t =
    let rec go n acc =
      if n = 0 || Queue.is_empty t.queue then List.rev acc
      else go (n - 1) (Queue.pop t.queue :: acc)
    in
    go t.cfg.Engine.max_batch []

  let due t =
    Queue.length t.queue >= t.cfg.Engine.max_batch
    || (not (Queue.is_empty t.queue))
       && t.round - (Queue.peek t.queue).submitted >= t.cfg.Engine.deadline_rounds

  let submit t key =
    Queue.add { id = t.next_id; key; submitted = t.round } t.queue;
    t.next_id <- t.next_id + 1;
    while due t do
      run_batch t (take_batch t)
    done

  let drain t =
    while not (Queue.is_empty t.queue) do
      run_batch t (take_batch t)
    done

  (* [Engine.run]'s contract over lookups of [keys]. *)
  let run t keys =
    let first = t.next_id in
    let failure =
      match
        List.iter (submit t) keys;
        drain t
      with
      | () -> None
      | exception (Engine.Request_failed _ as e) -> Some e
    in
    let outcomes = t.outcomes in
    t.outcomes <- [];
    List.mapi
      (fun i _ ->
        match List.find_opt (fun (id, _, _, _) -> id = first + i) outcomes with
        | Some o -> Ok o
        | None -> (
          match failure with
          | Some e -> Error e
          | None -> invalid_arg "Reference.run: a request went unanswered"))
      keys
end

type diff_case = {
  d_disks : int;
  d_replicas : int;
  d_spares : int;
  d_blocks : int;
  d_config : Engine.config;
  d_warm : Pdm.addr list list list;  (* warm-up lookups' plans: steps *)
  d_killed : int list;               (* killed after the warm-up *)
  d_fail : int list;                 (* failed under the fault spec: down once read *)
  d_plans : Pdm.addr list list list; (* the measured lookups' plans *)
}

let diff_gen =
  QCheck.Gen.(
    let* disks = int_range 2 16 in
    let* replicas = int_range 1 (min 3 disks) in
    let* spares = int_range 0 1 in
    let* blocks = int_range 1 4 in
    let disk = frequency [ (3, int_bound (disks - 1)); (1, return 0) ] in
    let addr =
      map2 (fun d b -> { Pdm.disk = d; block = b }) disk (int_bound (blocks - 1))
    in
    let step = list_size (int_range 0 6) addr in
    let part first =
      map
        (fun keep -> List.filteri (fun i _ -> List.nth keep i) first)
        (list_repeat (List.length first) bool)
    in
    (* one step, none, or a second step whose addresses the first
       fetched fully, partly or not at all *)
    let plan =
      let* first = step in
      frequency
        [ (4, return [ first ]);
          (1, return []);
          (1, map (fun s -> [ first; s ]) (part first));
          (1, map2 (fun s extra -> [ first; s @ extra ]) (part first) step);
          (1, map (fun s -> [ first; s ]) step) ]
    in
    let plans n = list_size (int_range 1 n) plan in
    let* warm = plans 8 in
    let* killed =
      frequency
        [ (2, return []); (3, list_size (int_range 1 2) (int_bound (disks - 1))) ]
    in
    let* plans = plans 24 in
    let* max_batch = int_range 1 24 in
    let* deadline_rounds = oneofl [ 0; 2; 1_000_000 ] in
    let* cache_blocks = frequency [ (2, return 0); (1, int_range 1 8) ] in
    return
      { d_disks = disks; d_replicas = replicas; d_spares = spares;
        d_blocks = blocks;
        d_config = { Engine.max_batch; deadline_rounds; cache_blocks };
        d_warm = warm; d_killed = killed; d_fail = []; d_plans = plans })

(* Daemon-shaped lookups (see [daemon_packing_gen]), a few with a
   second step. Most draws fail a disk that the machine marks down
   only when a read meets it, so a disk goes down between two rounds
   of one fetch; a dead disk next to it leaves blocks with no healthy
   replica once it does. *)
let daemon_diff_gen =
  QCheck.Gen.(
    let* blocks = int_range 2 8 in
    let lookup =
      let* first = daemon_plan blocks in
      frequency
        [ (6, return [ first ]); (1, map (fun s -> [ first; s ]) (daemon_plan blocks)) ]
    in
    let* fail = frequency [ (1, return []); (3, map (fun d -> [ d ]) (int_bound 14)) ] in
    (* a warm-up would mostly find the failed disk before the batch *)
    let* warm =
      if fail = [] then list_size (int_range 0 4) lookup
      else frequency [ (3, return []); (1, list_size (int_range 1 2) lookup) ]
    in
    let* killed =
      match fail with
      | [ d ] ->
        frequency
          [ (2, return []);
            (1, map (fun k -> [ k ]) (int_bound 14));
            (2, oneofl [ [ (d + 1) mod 15 ]; [ (d + 14) mod 15 ] ]) ]
      | _ ->
        frequency [ (2, return []); (1, map (fun k -> [ k ]) (int_bound 14)) ]
    in
    let* plans = list_size (int_range 16 64) lookup in
    let* max_batch = int_range 16 64 in
    let* cache_blocks = frequency [ (3, return 0); (1, int_range 1 16) ] in
    return
      { d_disks = 15; d_replicas = 2; d_spares = 1; d_blocks = blocks;
        d_config = { Engine.max_batch; deadline_rounds = 1_000_000; cache_blocks };
        d_warm = warm; d_killed = killed; d_fail = fail; d_plans = plans })

let diff_arb gen =
  let addrs p =
    String.concat " "
      (List.map (fun (a : Pdm.addr) -> Printf.sprintf "%d.%d" a.disk a.block) p)
  in
  let plans ps =
    String.concat " | "
      (List.map (fun steps -> String.concat " ; " (List.map addrs steps)) ps)
  in
  let disks ds = String.concat ";" (List.map string_of_int ds) in
  QCheck.make gen ~print:(fun c ->
      Printf.sprintf
        "disks %d replicas %d spares %d blocks %d batch %d deadline %d \
         cache %d killed [%s] failed [%s]\nwarm-up: %s\nplans: %s"
        c.d_disks c.d_replicas c.d_spares c.d_blocks c.d_config.Engine.max_batch
        c.d_config.Engine.deadline_rounds c.d_config.Engine.cache_blocks
        (disks c.d_killed) (disks c.d_fail) (plans c.d_warm) (plans c.d_plans))

(* The answer folds every step's blocks in plan order, so a block
   handed to the wrong position changes it. *)
let fold_block acc (block : int option array) =
  ((acc * 31) + match block.(0) with Some v -> v | None -> -1) land 0xFFFFFF

let answer acc = Some (Bytes.of_string (string_of_int acc))

let engine_matches_reference c =
  let all = Array.of_list (c.d_warm @ c.d_plans) in
  let faults =
    if c.d_fail = [] then None else Some (Fault.spec ~fail:c.d_fail ())
  in
  let machine () =
    let m, _, _ =
      synthetic ~replicas:c.d_replicas ~spares:c.d_spares ~disks:c.d_disks
        ~blocks:c.d_blocks ?faults ~plan:(fun _ -> []) ()
    in
    let tr = Pdm_sim.Trace.create () in
    Pdm.set_trace m (Some tr);
    (m, tr)
  in
  let m, tr = machine () and rm, rtr = machine () in
  let rec engine_steps acc = function
    | [] -> Engine.Done (answer acc)
    | s :: rest ->
      Engine.Fetch
        ( Array.of_list s,
          fun bs -> engine_steps (Array.fold_left fold_block acc bs) rest )
  in
  let rec reference_steps acc = function
    | [] -> Reference.Done (answer acc)
    | s :: rest ->
      Reference.Fetch
        ( s,
          fun bs ->
            reference_steps
              (List.fold_left (fun acc (_, b) -> fold_block acc b) acc bs)
              rest )
  in
  let eng =
    Engine.create ~config:c.d_config
      { Engine.name = "diff"; machine = m;
        lookup = (fun k -> engine_steps 0 all.(k)); insert = None;
        delete = None }
  in
  let reference =
    Reference.create c.d_config rm (fun k -> reference_steps 0 all.(k))
  in
  let failure_of = function
    | Engine.Request_failed { id; key; error } ->
      Error (id, key, Backend.describe error)
    | e -> Error (-1, -1, Some (Printexc.to_string e))
  in
  let compare_run what lo n =
    let keys = List.init n (fun i -> lo + i) in
    let got =
      List.map
        (function
          | Ok (o : Engine.outcome) ->
            Ok (o.Engine.id, o.Engine.value, o.Engine.submitted,
                o.Engine.completed)
          | Error e -> failure_of e)
        (Engine.run eng (List.map (fun k -> Engine.Lookup k) keys))
    in
    let want =
      List.map
        (function Ok o -> Ok o | Error e -> failure_of e)
        (Reference.run reference keys)
    in
    let differ field = QCheck.Test.fail_reportf "%s: %s differ" what field in
    if got <> want then differ "outcomes";
    if Engine.stats eng <> Reference.stats reference then differ "stats";
    if Pdm_sim.Trace.events tr <> Pdm_sim.Trace.events rtr then
      differ "trace events";
    if Pdm.rounds_total m <> Pdm.rounds_total rm then differ "machine rounds"
  in
  let warm_n = List.length c.d_warm in
  compare_run "warm-up" 0 warm_n;
  List.iter (fun d -> Pdm.kill_disk m d; Pdm.kill_disk rm d) c.d_killed;
  compare_run "batch" warm_n (List.length c.d_plans);
  true

let prop_engine_matches_reference =
  QCheck.Test.make ~name:"batch executor = list-based reference" ~count:300
    (diff_arb diff_gen) engine_matches_reference

let prop_daemon_engine_matches_reference =
  QCheck.Test.make
    ~name:"batch executor = list-based reference, daemon-shaped" ~count:200
    (diff_arb daemon_diff_gen) engine_matches_reference

(* Beyond the reference: every answer is the plan's own, an empty plan
   settles at once, and a plan that names an address twice gets the
   block at both positions. *)
let test_positional_answers () =
  let a = { Pdm.disk = 1; block = 2 } and b = { Pdm.disk = 3; block = 0 } in
  let plans = [| []; [ [] ]; [ [ a; b; a ] ]; [ [ b ]; [ a; b ] ]; [ [ b; a ]; [] ] |] in
  let m, _, _ = synthetic ~plan:(fun _ -> []) () in
  let rec steps acc = function
    | [] -> Engine.Done (answer acc)
    | s :: rest ->
      Engine.Fetch
        (Array.of_list s, fun bs -> steps (Array.fold_left fold_block acc bs) rest)
  in
  let eng =
    Engine.create ~config:(one_batch_config 5)
      { Engine.name = "positional"; machine = m;
        lookup = (fun k -> steps 0 plans.(k)); insert = None; delete = None }
  in
  let expect k =
    answer
      (List.fold_left
         (List.fold_left (fun acc (x : Pdm.addr) ->
              fold_block acc (block_of m [ (100 * x.disk) + x.block ])))
         0 plans.(k))
  in
  List.iteri
    (fun k r ->
      match r with
      | Ok (o : Engine.outcome) ->
        Alcotest.(check (option bytes)) (Printf.sprintf "plan %d" k) (expect k)
          o.Engine.value
      | Error e -> Alcotest.failf "plan %d: %s" k (Printexc.to_string e))
    (Engine.run eng (List.init 5 (fun k -> Engine.Lookup k)));
  let s = Engine.stats eng in
  check "two distinct blocks fetched" 2 s.Engine.blocks_fetched;
  check "repeats coalesced" 4 s.Engine.coalesced

(* The slot index range-checks each address, in a lookup's first step
   or in a continuation's, with the machine's own error. Unchecked,
   block 0.8 of a machine with 8 blocks per disk would take block 1.0's
   slot. *)
let test_out_of_range_address () =
  let good = { Pdm.disk = 1; block = 0 } in
  let m, _, _ = synthetic ~plan:(fun _ -> []) () in
  List.iter
    (fun (bad, msg) ->
      let lookups =
        [| Engine.Fetch ([| good; bad |], fun _ -> Engine.Done None);
           Engine.Fetch
             ([| good |], fun _ -> Engine.Fetch ([| bad |], fun _ -> Engine.Done None)) |]
      in
      Array.iteri
        (fun k step ->
          let eng =
            Engine.create ~config:(one_batch_config 1)
              { Engine.name = "range"; machine = m; lookup = (fun _ -> step);
                insert = None; delete = None }
          in
          Alcotest.check_raises (Printf.sprintf "%s, step %d" msg (k + 1))
            (Invalid_argument msg) (fun () ->
              ignore (Engine.run eng [ Engine.Lookup 0 ])))
        lookups)
    [ ({ Pdm.disk = 8; block = 0 }, "Pdm: disk out of range");
      ({ Pdm.disk = -1; block = 0 }, "Pdm: disk out of range");
      ({ Pdm.disk = 0; block = 8 }, "Pdm: block out of range");
      ({ Pdm.disk = 2; block = -1 }, "Pdm: block out of range") ]

let suite =
  [ ("engine.coalescing",
     [ tc "all-same-key batch" `Quick test_all_same_key_coalesces;
       tc "one-disk sequential fallback" `Quick
         test_one_disk_sequential_fallback;
       tc "zipf batch on real dictionary" `Quick
         test_zipf_batch_on_real_dictionary ]);
    ("engine.replicas",
     [ tc "least-loaded splits a hot disk" `Quick test_replicas_split_hot_disk;
       QCheck_alcotest.to_alcotest prop_packing_matches_reference;
       QCheck_alcotest.to_alcotest prop_daemon_packing_matches_reference;
       QCheck_alcotest.to_alcotest prop_engine_matches_reference;
       QCheck_alcotest.to_alcotest prop_daemon_engine_matches_reference;
       tc "block i answers address i" `Quick test_positional_answers;
       tc "an address out of range is refused" `Quick
         test_out_of_range_address;
       tc "killed disk: failover within 2x" `Quick
         test_killed_disk_failover_within_2x;
       tc "r=1 failure carries request id" `Quick
         test_unreplicated_failure_carries_request_id ]);
    ("engine.batching",
     [ tc "deadline closes a batch" `Quick test_deadline_closes_batch;
       tc "insert visible to same-batch lookup" `Quick
         test_insert_visible_to_same_batch_lookup;
       tc "cascade two-phase lookups" `Quick
         test_cascade_two_phase_through_engine;
       tc "delete semantics through the engine" `Quick
         test_delete_through_engine;
       tc "run: failures answered, engine reusable" `Quick
         test_run_failure_contract;
       tc "accounting is bounded" `Quick test_accounting_is_bounded ]);
    ("pdm.read_preferring",
     [ tc "uses the requested replica" `Quick
         test_read_preferring_uses_requested_replica;
       tc "fails over and validates" `Quick test_read_preferring_fails_over;
       tc "rejects a repeated address" `Quick
         test_read_preferring_rejects_duplicates;
       tc "validates a duplicate's preference" `Quick
         test_read_preferring_validates_duplicates;
       tc "sanitizer: a written view is caught" `Quick
         test_sanitizer_catches_written_view;
       tc "sanitizer: a write runs the view check" `Quick
         test_sanitizer_write_checks_views;
       tc "sanitizer: read-only plans unchanged" `Quick
         test_sanitizer_view_check_is_transparent ]);
    ("cache.coherence",
     [ tc "direct writes and pokes invalidate" `Quick
         test_cache_sees_direct_writes;
       tc "journal replay invalidates" `Quick
         test_cache_coherent_after_journal_replay;
       tc "scrub repair invalidates" `Quick
         test_cache_coherent_after_scrub_repair ]);
    ("experiments.engine",
     [ tc "E18 at test scale" `Quick test_engine_experiment_small ]) ]
