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

let synthetic ?(replicas = 1) ?(spares = 0) ?(disks = 8) ?(blocks = 8) ~plan
    () =
  let m =
    Pdm.create ~replicas ~spares ~disks ~block_size:4 ~blocks_per_disk:blocks ()
  in
  for d = 0 to disks - 1 do
    for b = 0 to blocks - 1 do
      Pdm.write_one m { Pdm.disk = d; block = b } (block_of m [ (100 * d) + b ])
    done
  done;
  let decode bs =
    List.fold_left
      (fun acc (_, arr) -> match arr.(0) with Some v -> acc + v | None -> acc)
      0 bs
  in
  let lookup k =
    Engine.Fetch
      (plan k, fun bs -> Engine.Done (Some (Bytes.of_string (string_of_int (decode bs)))))
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
  Alcotest.(check (list int)) "replica disks" [ 0; 1 ] (Pdm.replica_disks m a);
  Stats.reset (Pdm.stats m);
  (match Pdm.read_preferring m [ (a, 1) ] with
   | [ (_, arr) ] -> Alcotest.(check (option int)) "value" (Some 42) arr.(0)
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
  (match Pdm.read_preferring m [ (a, 1) ] with
   | [ (_, arr) ] ->
     Alcotest.(check (option int)) "failover to replica 0" (Some 9) arr.(0)
   | _ -> Alcotest.fail "one block expected");
  Alcotest.check_raises "replica out of range"
    (Invalid_argument "Pdm.read_preferring: replica out of range") (fun () ->
      ignore (Pdm.read_preferring m [ (a, 2) ]))

let test_read_preferring_dedups () =
  let m : int Pdm.t =
    Pdm.create ~replicas:2 ~disks:4 ~block_size:4 ~blocks_per_disk:8 ()
  in
  let a = { Pdm.disk = 2; block = 0 } in
  Pdm.write_one m a (block_of m [ 5 ]);
  check "duplicates collapse" 1
    (List.length (Pdm.read_preferring m [ (a, 0); (a, 1) ]))

let test_read_preferring_validates_duplicates () =
  (* Only the first preference of a duplicate address serves the
     block, but every preference must still be a valid replica. *)
  let m : int Pdm.t =
    Pdm.create ~replicas:2 ~disks:4 ~block_size:4 ~blocks_per_disk:8 ()
  in
  let a = { Pdm.disk = 1; block = 2 } in
  Alcotest.check_raises "a duplicate's preference is validated"
    (Invalid_argument "Pdm.read_preferring: replica out of range") (fun () ->
      ignore (Pdm.read_preferring m [ (a, 0); (a, 5) ]))

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
    List.fold_left
      (fun acc (_, arr) -> match arr.(0) with Some v -> acc + v | None -> acc)
      0 bs
  in
  let lookup k =
    Engine.Fetch
      ( first k,
        fun bs ->
          if scribble then List.iter (fun (_, arr) -> arr.(0) <- None) bs;
          let s = sum bs in
          Engine.Fetch
            ( second k,
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
  Alcotest.(check (option int)) "first read" (Some 1) (Cache.read_one c a).(0);
  (* A writer that bypasses the cache (second handle, journal replay,
     repair): the listener must drop the stale copy. *)
  Pdm.write_one m a (block_of m [ 2 ]);
  Alcotest.(check (option int)) "write invalidates" (Some 2)
    (Cache.read_one c a).(0);
  Pdm.poke m a (block_of m [ 3 ]);
  Alcotest.(check (option int)) "poke invalidates" (Some 3)
    (Cache.read_one c a).(0);
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
    (Cache.read_one c a).(0);
  (* Committed but unapplied batch; recovery replays it through
     Pdm.write, which must invalidate the cached copy. *)
  (try Journal.log_and_apply j ~crash:Journal.After_commit [ (a, block_of m [ 11 ]) ]
   with Journal.Crashed -> ());
  (match Journal.recover m ~block_offset:4 ~capacity_blocks:8 with
   | `Replayed _ -> ()
   | `Clean | `Discarded -> Alcotest.fail "expected a replay");
  Alcotest.(check (option int)) "replayed value visible" (Some 11)
    (Cache.read_one c a).(0)

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
  ignore (Cache.read c [ a; b ]);
  check "both resident" 2 (Cache.resident c);
  Pdm.damage_stored m a ~replica:0;
  let r = Pdm.scrub m in
  checkb "scrub repaired the rot" true (r.Pdm.repaired_replicas >= 1);
  checkb "repaired block dropped from cache" true
    (Cache.find_cached c a = None);
  checkb "untouched block still resident" true
    (Cache.find_cached c b <> None);
  Alcotest.(check (option int)) "re-read sees repaired data" (Some 21)
    (Cache.read_one c a).(0)

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
          let reps = List.mapi (fun j d -> (j, d)) (Pdm.replica_disks m a) in
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

let packing_arb =
  let addrs p =
    String.concat " "
      (List.map (fun (a : Pdm.addr) -> Printf.sprintf "%d.%d" a.disk a.block) p)
  in
  let plans ps = String.concat " | " (List.map addrs ps) in
  QCheck.make packing_gen ~print:(fun c ->
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
let prop_packing_matches_reference =
  QCheck.Test.make ~name:"round packing = reference greedy" ~count:300
    packing_arb (fun c ->
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
      let batch lo n =
        for k = lo to lo + n - 1 do
          ignore (Engine.submit eng (Engine.Lookup k))
        done;
        match Engine.drain eng with
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
              (fun (a, _) -> List.mem failing (Pdm.replica_disks m a))
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
        QCheck.Test.fail_reportf "unexpected failure of %d" id)

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
       tc "dedups" `Quick test_read_preferring_dedups;
       tc "validates a duplicate's preference" `Quick
         test_read_preferring_validates_duplicates;
       tc "sanitizer: a written view is caught" `Quick
         test_sanitizer_catches_written_view;
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
