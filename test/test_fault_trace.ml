(* Tests for the disk-backend subsystem: pluggable backends, the
   deterministic fault schedule, the round scheduler's retry and
   straggler accounting, and the per-round trace ring buffer with its
   JSONL round trip. *)

open Pdm_sim
module Fault_exp = Pdm_experiments.Fault_exp
module Table = Pdm_experiments.Table

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let ios t = Stats.parallel_ios (Stats.snapshot (Pdm.stats t))

let block_of t xs =
  let b = Array.make (Pdm.block_size t) None in
  List.iteri (fun i x -> b.(i) <- Some x) xs;
  b

(* [backends d] supplies physical disk [d], through a factory that
   ignores the geometry [Pdm.create] asks for. *)
let mk ?model ?stats ?trace ?faults ?backends ?(disks = 4) ?(block_size = 8)
    ?(blocks = 16) () =
  let factory =
    Option.map (fun f ~blocks:_ ~slots:_ -> Some f) backends
  in
  Pdm.create ?model ?stats ?trace ?faults ?factory ~disks ~block_size
    ~blocks_per_disk:blocks ()

(* A backend that fails the first [flaky_attempts] read attempts of
   every block in [flaky_blocks]. *)
let flaky_backend ~disk ~blocks ~flaky_blocks ~flaky_attempts ~max_retries =
  let inner = Backend.memory ~disk ~blocks in
  { inner with
    Backend.name = "flaky";
    max_retries;
    read =
      (fun ~attempt b ->
        if List.mem b flaky_blocks && attempt < flaky_attempts then
          Backend.Transient
        else inner.Backend.read ~attempt b) }

(* --- backends --- *)

let test_memory_backend () =
  let b : int Backend.t = Backend.memory ~disk:3 ~blocks:4 in
  check "disk" 3 b.Backend.disk;
  check "blocks" 4 b.Backend.blocks;
  checkb "starts empty" true (b.Backend.read ~attempt:0 2 = Backend.Data None);
  b.Backend.write 2 [| Some 7 |];
  checkb "written" true
    (b.Backend.read ~attempt:0 2 = Backend.Data (Some [| Some 7 |]));
  checkb "peek raw" true (b.Backend.peek 2 = Some [| Some 7 |]);
  check "cost healthy" 1 b.Backend.cost

let test_custom_backend_machine () =
  (* A machine over custom backends behaves like the default one. *)
  let t : int Pdm.t =
    mk ~backends:(fun d -> Backend.memory ~disk:d ~blocks:16) ()
  in
  let a = { Pdm.disk = 1; block = 2 } in
  Pdm.write_one t a (block_of t [ 5 ]);
  Alcotest.(check (option int)) "roundtrip" (Some 5) (Pdm.read_one t a).(0);
  check "2 I/Os" 2 (ios t);
  check "allocated" 1 (Pdm.allocated_blocks t)

let test_backend_geometry_checked () =
  checkb "bad capacity rejected" true
    (try
       ignore
         (mk ~backends:(fun d -> Backend.memory ~disk:d ~blocks:3) ()
           : int Pdm.t);
       false
     with Invalid_argument _ -> true);
  checkb "bad disk index rejected" true
    (try
       ignore
         (mk ~backends:(fun _ -> Backend.memory ~disk:0 ~blocks:16) ()
           : int Pdm.t);
       false
     with Invalid_argument _ -> true)

(* --- fault schedule --- *)

let test_fault_spec_deterministic () =
  let s = Fault.spec ~seed:7 ~transient:[ (0, 0.3) ] () in
  let h1 = Fault.transient_hit s ~disk:0 ~block:5 ~attempt:0 in
  for _ = 1 to 10 do
    checkb "same decision every time" h1
      (Fault.transient_hit s ~disk:0 ~block:5 ~attempt:0)
  done;
  (* A healthy disk never fails. *)
  checkb "healthy disk" false
    (Fault.transient_hit s ~disk:1 ~block:5 ~attempt:0);
  (* At p = 0.3, among 200 (block, attempt) pairs both outcomes occur. *)
  let hits = ref 0 in
  for b = 0 to 199 do
    if Fault.transient_hit s ~disk:0 ~block:b ~attempt:0 then incr hits
  done;
  checkb "some fail" true (!hits > 20);
  checkb "most succeed" true (!hits < 120)

let test_fault_wrap () =
  let s =
    Fault.spec ~seed:1 ~max_retries:5 ~stragglers:[ (2, 4) ] ~fail:[ 3 ] ()
  in
  let mem d = Backend.memory ~disk:d ~blocks:8 in
  let straggler = Fault.wrap s (mem 2) in
  check "straggler cost" 4 straggler.Backend.cost;
  check "retry budget" 5 straggler.Backend.max_retries;
  let dead = Fault.wrap s (mem 3) in
  checkb "dead reads Lost" true (dead.Backend.read ~attempt:0 0 = Backend.Lost);
  checkb "dead write raises" true
    (try
       dead.Backend.write 0 [| Some 1 |];
       false
     with Backend.Disk_failed { disk = 3; _ } -> true);
  let healthy = Fault.wrap s (mem 0) in
  check "healthy cost" 1 healthy.Backend.cost;
  checkb "peek bypasses faults" true (dead.Backend.peek 0 = None)

let test_fault_spec_validation () =
  checkb "bad probability" true
    (try ignore (Fault.spec ~transient:[ (0, 1.5) ] ()); false
     with Invalid_argument _ -> true);
  checkb "bad straggle" true
    (try ignore (Fault.spec ~stragglers:[ (0, 0) ] ()); false
     with Invalid_argument _ -> true);
  checkb "noop spec" true (Fault.is_noop (Fault.spec ()));
  checkb "non-noop spec" false
    (Fault.is_noop (Fault.spec ~fail:[ 1 ] ()))

(* --- scheduler: retries, stragglers, failures --- *)

let test_transient_retry_charged () =
  (* Disk 0 fails the first attempt of block 0: the read must succeed
     and cost one extra round. *)
  let t : int Pdm.t =
    mk
      ~backends:(fun d ->
        if d = 0 then
          flaky_backend ~disk:0 ~blocks:16 ~flaky_blocks:[ 0 ]
            ~flaky_attempts:1 ~max_retries:3
        else Backend.memory ~disk:d ~blocks:16)
      ()
  in
  Pdm.poke t { Pdm.disk = 0; block = 0 } (block_of t [ 42 ]);
  let b = Pdm.read_one t { Pdm.disk = 0; block = 0 } in
  Alcotest.(check (option int)) "data correct" (Some 42) b.(0);
  check "1 transfer + 1 retry = 2 rounds" 2 (ios t);
  let s = Stats.snapshot (Pdm.stats t) in
  check "one block delivered" 1 s.Stats.block_reads;
  check "delivered on disk 0" 1 s.Stats.disk_reads.(0)

let test_retry_overlaps_other_disks () =
  (* The retry round on disk 0 runs while disk 1's queue continues:
     total rounds = disk 0's 2 attempts, not 3. *)
  let t : int Pdm.t =
    mk
      ~backends:(fun d ->
        if d = 0 then
          flaky_backend ~disk:0 ~blocks:16 ~flaky_blocks:[ 0 ]
            ~flaky_attempts:1 ~max_retries:3
        else Backend.memory ~disk:d ~blocks:16)
      ()
  in
  ignore
    (Pdm.read t
       [| { Pdm.disk = 0; block = 0 }; { Pdm.disk = 1; block = 0 };
         { Pdm.disk = 1; block = 1 } |]);
  check "max(2, 2) rounds" 2 (ios t)

let test_retries_exhausted () =
  let t : int Pdm.t =
    mk
      ~backends:(fun d ->
        if d = 0 then
          flaky_backend ~disk:0 ~blocks:16 ~flaky_blocks:[ 3 ]
            ~flaky_attempts:100 ~max_retries:2
        else Backend.memory ~disk:d ~blocks:16)
      ()
  in
  checkb "raises after budget" true
    (try
       ignore (Pdm.read_one t { Pdm.disk = 0; block = 3 });
       false
     with Backend.Retries_exhausted { disk = 0; block = 3; attempts = 3; _ }
       -> true)

let test_straggler_charges_k () =
  let faults = Fault.spec ~stragglers:[ (1, 3) ] () in
  let t : int Pdm.t = mk ~faults () in
  ignore (Pdm.read_one t { Pdm.disk = 1; block = 0 });
  check "3 rounds for one block" 3 (ios t);
  (* Parallel request: healthy disks hide inside the straggler's k. *)
  ignore
    (Pdm.read t
       [| { Pdm.disk = 0; block = 1 }; { Pdm.disk = 1; block = 1 };
         { Pdm.disk = 2; block = 1 } |]);
  check "3 more rounds" 6 (ios t);
  (* Writes straggle too. *)
  Pdm.write_one t { Pdm.disk = 1; block = 2 } (block_of t [ 9 ]);
  check "write charged 3" 9 (ios t)

let test_straggler_queue_serialises () =
  let faults = Fault.spec ~stragglers:[ (0, 2) ] () in
  let t : int Pdm.t = mk ~faults () in
  ignore
    (Pdm.read t (Array.init 3 (fun b -> { Pdm.disk = 0; block = b })));
  check "3 blocks x 2 rounds" 6 (ios t)

let test_failed_disk_raises () =
  let faults = Fault.spec ~fail:[ 2 ] () in
  let t : int Pdm.t = mk ~faults () in
  checkb "read raises" true
    (try
       ignore (Pdm.read_one t { Pdm.disk = 2; block = 0 });
       false
     with Backend.Disk_failed { disk = 2; _ } -> true);
  checkb "write raises" true
    (try
       Pdm.write_one t { Pdm.disk = 2; block = 0 } (block_of t [ 1 ]);
       false
     with Backend.Disk_failed { disk = 2; _ } -> true);
  (* Other disks still serve. *)
  ignore (Pdm.read_one t { Pdm.disk = 0; block = 0 });
  checkb "healthy disks fine" true (ios t >= 1)

let test_head_model_straggler () =
  let faults = Fault.spec ~stragglers:[ (0, 2) ] () in
  let t : int Pdm.t = mk ~model:Pdm.Parallel_heads ~disks:2 ~faults () in
  (* Two blocks on the slow disk, two channels: both transfers run in
     parallel, each occupying 2 rounds. *)
  ignore
    (Pdm.read t
       [| { Pdm.disk = 0; block = 0 }; { Pdm.disk = 0; block = 1 } |]);
  check "2 rounds" 2 (ios t)

(* --- faults disabled: scheduler equals closed form --- *)

let test_traced_machine_same_costs () =
  (* The same request sequence charges identical costs on the fast
     path and on the scheduler path (trace attached, no faults). *)
  let run t =
    ignore
      (Pdm.read t
         [| { Pdm.disk = 0; block = 0 }; { Pdm.disk = 0; block = 1 };
           { Pdm.disk = 1; block = 0 }; { Pdm.disk = 3; block = 7 } |]);
    Pdm.write t
      (List.init 4 (fun d -> ({ Pdm.disk = d; block = 2 }, block_of t [ d ])));
    ignore (Pdm.read_one t { Pdm.disk = 2; block = 2 });
    Stats.snapshot (Pdm.stats t)
  in
  let plain = run (mk ()) in
  let traced = run (mk ~trace:(Trace.create ()) ()) in
  check "read rounds" plain.Stats.parallel_reads traced.Stats.parallel_reads;
  check "write rounds" plain.Stats.parallel_writes traced.Stats.parallel_writes;
  check "blocks read" plain.Stats.block_reads traced.Stats.block_reads;
  Alcotest.(check (array int))
    "per-disk reads" plain.Stats.disk_reads traced.Stats.disk_reads;
  Alcotest.(check (array int))
    "per-disk writes" plain.Stats.disk_writes traced.Stats.disk_writes

(* --- dictionaries survive faults --- *)

let test_dictionary_correct_under_faults () =
  let module Basic = Pdm_dictionary.Basic_dict in
  let universe = 1 lsl 16 and n = 300 in
  let cfg =
    Basic.plan ~universe ~capacity:n ~block_words:32 ~degree:4 ~value_bytes:8
      ~seed:3 ()
  in
  let build faults =
    let machine =
      Pdm.create ?faults ~disks:4 ~block_size:32
        ~blocks_per_disk:(Basic.blocks_per_disk cfg) ()
    in
    (machine, Basic.create ~machine ~disk_offset:0 ~block_offset:0 cfg)
  in
  let payload k = Bytes.of_string (Printf.sprintf "%08d" k) in
  let faults =
    Fault.spec ~seed:11 ~max_retries:32
      ~transient:[ (0, 0.2); (3, 0.1) ]
      ~stragglers:[ (1, 2) ]
      ()
  in
  let m_clean, d_clean = build None in
  let m_faulty, d_faulty = build (Some faults) in
  for k = 0 to n - 1 do
    Basic.insert d_clean k (payload k);
    Basic.insert d_faulty k (payload k)
  done;
  (* Same answers on every lookup (hits, misses, deletes)... *)
  for k = 0 to n + 50 do
    Alcotest.(check (option string))
      (Printf.sprintf "find %d" k)
      (Option.map Bytes.to_string (Basic.find d_clean k))
      (Option.map Bytes.to_string (Basic.find d_faulty k))
  done;
  for k = 0 to 49 do
    checkb "delete agrees" (Basic.delete d_clean k) (Basic.delete d_faulty k)
  done;
  checkb "deleted gone" true (Basic.find d_faulty 0 = None);
  (* ...but the faulty run paid strictly more rounds, never fewer. *)
  checkb "no free re-reads" true (ios m_faulty > ios m_clean)

(* --- trace ring buffer + JSONL --- *)

let ev ?(shard = 0) ?(attempt = 0) ~round ~op ~per_disk ~retries ~degraded ()
    =
  { Trace.round; op; per_disk; retries; degraded; shard; attempt }

let test_ring_buffer () =
  let t = Trace.create ~capacity:3 () in
  check "empty" 0 (Trace.length t);
  for r = 1 to 5 do
    Trace.record t
      (ev ~round:r ~op:Trace.Read ~per_disk:[| r |] ~retries:0 ~degraded:false
         ())
  done;
  check "capped" 3 (Trace.length t);
  check "recorded" 5 (Trace.recorded t);
  check "dropped" 2 (Trace.dropped t);
  Alcotest.(check (list int))
    "keeps newest, oldest first" [ 3; 4; 5 ]
    (List.map (fun (e : Trace.event) -> e.round) (Trace.events t));
  Trace.clear t;
  check "cleared" 0 (Trace.length t);
  check "cleared recorded" 0 (Trace.recorded t);
  (* a shard-tagged buffer stamps its tag onto recorded events *)
  let t2 = Trace.create ~capacity:2 ~shard:7 () in
  check "buffer shard tag" 7 (Trace.shard t2);
  Trace.record t2
    (ev ~round:1 ~op:Trace.Read ~per_disk:[| 1 |] ~retries:0 ~degraded:false ());
  checkb "events stamped with buffer shard" true
    (match Trace.events t2 with
     | [ e ] -> e.Trace.shard = 7
     | _ -> false)

let test_event_json_roundtrip () =
  let e =
    ev ~shard:4 ~round:17 ~op:Trace.Write ~per_disk:[| 0; 3; 1 |] ~retries:2
      ~degraded:true ()
  in
  let line = Trace.event_to_json e in
  checkb "parses back equal" true (Trace.event_of_json line = Some e);
  (* Field order and whitespace are flexible; a line written before
     the shard tag existed (no "shard" field) parses as shard 0. *)
  checkb "reordered fields, shard defaults to 0" true
    (Trace.event_of_json
       {| { "degraded" : false , "per_disk" : [ 1 , 2 ] , "op" : "read" , "retries" : 0 , "round" : 3 } |}
    = Some
        (ev ~round:3 ~op:Trace.Read ~per_disk:[| 1; 2 |] ~retries:0
           ~degraded:false ()));
  checkb "empty per_disk" true
    (match Trace.event_of_json {|{"round":0,"op":"read","per_disk":[],"retries":0,"degraded":false}|} with
     | Some e -> e.Trace.per_disk = [||]
     | None -> false);
  checkb "garbage rejected" true (Trace.event_of_json "{nope}" = None);
  checkb "missing field rejected" true
    (Trace.event_of_json {|{"round":1,"op":"read"}|} = None);
  checkb "bad op rejected" true
    (Trace.event_of_json
       {|{"round":1,"op":"scan","per_disk":[1],"retries":0,"degraded":false}|}
    = None)

let test_jsonl_file_roundtrip_matches_stats () =
  (* Acceptance criterion: export a recorded run, re-read it, and the
     per-disk totals from the trace equal the Stats counters. *)
  let tr = Trace.create ~capacity:4096 () in
  let faults =
    Fault.spec ~seed:5 ~transient:[ (1, 0.3) ] ~stragglers:[ (2, 2) ] ()
  in
  let t : int Pdm.t = mk ~trace:tr ~faults ~disks:4 ~blocks:32 () in
  for b = 0 to 31 do
    Pdm.write t
      (List.init 4 (fun d -> ({ Pdm.disk = d; block = b }, block_of t [ d + b ])))
  done;
  let rng = Pdm_util.Prng.create 9 in
  for _ = 1 to 200 do
    let addrs =
      Array.init
        (1 + Pdm_util.Prng.int rng 6)
        (fun _ ->
          { Pdm.disk = Pdm_util.Prng.int rng 4;
            block = Pdm_util.Prng.int rng 32 })
    in
    ignore (Pdm.read t addrs)
  done;
  check "nothing dropped" 0 (Trace.dropped tr);
  let path = Filename.temp_file "pdm_trace" ".jsonl" in
  Trace.export_jsonl tr path;
  let events = Trace.load_jsonl path in
  Sys.remove path;
  check "all events re-read" (Trace.length tr) (List.length events);
  checkb "identical after round trip" true (events = Trace.events tr);
  let reads, writes = Trace.per_disk_totals events in
  let s = Stats.snapshot (Pdm.stats t) in
  Alcotest.(check (array int)) "per-disk reads match stats" s.Stats.disk_reads
    reads;
  Alcotest.(check (array int)) "per-disk writes match stats"
    s.Stats.disk_writes writes;
  (* Round count is consistent too: every recorded round is one
     charged parallel I/O. *)
  check "rounds = parallel I/Os" (Stats.parallel_ios s) (Trace.recorded tr);
  (* And degraded rounds exist, since disk 2 straggles. *)
  checkb "degradation observed" true
    (List.exists (fun (e : Trace.event) -> e.degraded) events)

let test_jsonl_malformed_rejected () =
  let path = Filename.temp_file "pdm_bad" ".jsonl" in
  let oc = open_out path in
  output_string oc
    ("{\"round\":1,\"op\":\"read\",\"per_disk\":[1],\"retries\":0,\
      \"degraded\":false}\n"
    ^ "\n" (* blank lines are skipped, not errors *)
    ^ "this is not an event\n");
  close_out oc;
  (match Trace.load_jsonl_result path with
   | Ok _ -> Alcotest.fail "malformed line accepted"
   | Error err ->
     check "failing line number" 3 err.Trace.line;
     checkb "offending text carried" true
       (err.Trace.text = "this is not an event");
     checkb "path carried" true (err.Trace.path = path);
     checkb "printable" true
       (String.length (Format.asprintf "%a" Trace.pp_parse_error err) > 0));
  checkb "exception form agrees" true
    (try
       ignore (Trace.load_jsonl path);
       false
     with Trace.Malformed_line { line = 3; _ } -> true);
  Sys.remove path;
  (* A fully well-formed file loads the same way through both APIs. *)
  let ok = Filename.temp_file "pdm_ok" ".jsonl" in
  let oc = open_out ok in
  output_string oc
    "{\"round\":2,\"op\":\"write\",\"per_disk\":[0,1],\"retries\":1,\
     \"degraded\":true}\n";
  close_out oc;
  (match Trace.load_jsonl_result ok with
   | Ok [ e ] -> check "round parsed" 2 e.Trace.round
   | Ok _ | Error _ -> Alcotest.fail "well-formed file rejected");
  Sys.remove ok

let test_describe_structured_errors () =
  (* Storage exceptions carry (disk, block, round) and [describe]
     renders all of it; unrelated exceptions are left alone. *)
  let d = Backend.Disk_failed { disk = 4; block = 9; round = 17 } in
  (match Backend.describe d with
   | None -> Alcotest.fail "Disk_failed not described"
   | Some m ->
     let contains needle =
       let n = String.length needle and h = String.length m in
       let rec go i = i + n <= h && (String.sub m i n = needle || go (i + 1)) in
       go 0
     in
     checkb "mentions disk" true (contains "4");
     checkb "mentions block" true (contains "9");
     checkb "mentions round" true (contains "17"));
  checkb "retries described" true
    (Backend.describe
       (Backend.Retries_exhausted { disk = 0; block = 1; attempts = 3; round = 2 })
    <> None);
  checkb "corruption described" true
    (Backend.describe (Backend.Corrupt_block { disk = 0; block = 1; round = 2 })
    <> None);
  checkb "other exceptions ignored" true
    (Backend.describe Not_found = None)

let test_trace_retry_events () =
  let t : int Pdm.t =
    mk
      ~trace:(Trace.create ())
      ~backends:(fun d ->
        if d = 0 then
          flaky_backend ~disk:0 ~blocks:16 ~flaky_blocks:[ 0 ]
            ~flaky_attempts:1 ~max_retries:3
        else Backend.memory ~disk:d ~blocks:16)
      ()
  in
  ignore (Pdm.read_one t { Pdm.disk = 0; block = 0 });
  let tr = Option.get (Pdm.trace t) in
  let events = Trace.events tr in
  check "two rounds traced" 2 (List.length events);
  check "one retry recorded" 1
    (List.fold_left (fun a (e : Trace.event) -> a + e.retries) 0 events);
  checkb "retry round degraded" true
    (List.exists (fun (e : Trace.event) -> e.degraded) events)

let test_set_trace_midstream () =
  let t : int Pdm.t = mk () in
  ignore (Pdm.read_one t { Pdm.disk = 0; block = 0 });
  checkb "no trace yet" true (Pdm.trace t = None);
  let tr = Trace.create () in
  Pdm.set_trace t (Some tr);
  ignore (Pdm.read_one t { Pdm.disk = 1; block = 0 });
  check "round ids continue" 2
    (match Trace.events tr with
     | [ e ] -> e.Trace.round
     | _ -> -1);
  Pdm.set_trace t None;
  ignore (Pdm.read_one t { Pdm.disk = 2; block = 0 });
  check "detached: nothing new" 1 (Trace.recorded tr)

(* --- per-disk stats --- *)

let test_stats_per_disk () =
  let t : int Pdm.t = mk ~disks:3 () in
  ignore
    (Pdm.read t
       [| { Pdm.disk = 0; block = 0 }; { Pdm.disk = 0; block = 1 };
         { Pdm.disk = 2; block = 0 } |]);
  Pdm.write_one t { Pdm.disk = 1; block = 0 } (block_of t [ 1 ]);
  let s = Stats.snapshot (Pdm.stats t) in
  Alcotest.(check (array int)) "per-disk reads" [| 2; 0; 1 |] s.Stats.disk_reads;
  Alcotest.(check (array int)) "per-disk writes" [| 0; 1; 0 |]
    s.Stats.disk_writes;
  Alcotest.(check (array int)) "totals" [| 2; 1; 1 |] (Stats.disk_totals s);
  (match Stats.occupancy s with
   | Some o ->
     check "max load" 2 o.Stats.max_load;
     Alcotest.(check (float 1e-9)) "mean load" (4.0 /. 3.0) o.Stats.mean_load
   | None -> Alcotest.fail "expected occupancy");
  let txt = Format.asprintf "%a" Stats.pp s in
  let contains hay needle =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  checkb "pp mentions disk load" true (contains txt "disk load")

let test_stats_diff_add_padding () =
  let a =
    { Stats.zero with
      Stats.disk_reads = [| 1; 2 |]; block_reads = 3 }
  in
  let b =
    { Stats.zero with
      Stats.disk_reads = [| 1; 0; 5 |]; block_reads = 6 }
  in
  let sum = Stats.add a b in
  Alcotest.(check (array int)) "add pads" [| 2; 2; 5 |] sum.Stats.disk_reads;
  let d = Stats.diff ~after:b ~before:a in
  Alcotest.(check (array int)) "diff pads" [| 0; -2; 5 |] d.Stats.disk_reads;
  checkb "zero has no disks" true (Stats.occupancy Stats.zero = None)

let test_stats_reset_clears_disks () =
  let t : int Pdm.t = mk () in
  ignore (Pdm.read_one t { Pdm.disk = 2; block = 0 });
  Stats.reset (Pdm.stats t);
  let s = Stats.snapshot (Pdm.stats t) in
  check "disk counters cleared" 0 (Array.fold_left ( + ) 0 s.Stats.disk_reads)

(* --- the fault experiment --- *)

let test_fault_experiment () =
  let r = Fault_exp.run ~n:400 ~lookups:300 ~seed:5 () in
  check "four scenarios" 4 (List.length r.Fault_exp.points);
  List.iter
    (fun (p : Fault_exp.point) ->
      checkb (p.scenario ^ " correct") true p.correct;
      checkb (p.scenario ^ " overhead >= 1") true (p.overhead >= 0.999))
    r.Fault_exp.points;
  (match r.Fault_exp.points with
   | free :: faulty ->
     check "fault-free has no retries" 0 free.Fault_exp.retries;
     checkb "some scenario degrades" true
       (List.exists (fun (p : Fault_exp.point) -> p.avg_io > free.avg_io) faulty)
   | [] -> Alcotest.fail "no points");
  let table = Fault_exp.to_table r in
  checkb "table has rows" true (List.length table.Table.rows = 4)

let suite =
  let tc = Alcotest.test_case in
  [ ("backend",
     [ tc "memory backend" `Quick test_memory_backend;
       tc "custom backends drive a machine" `Quick test_custom_backend_machine;
       tc "geometry checked" `Quick test_backend_geometry_checked ]);
    ("fault.schedule",
     [ tc "deterministic" `Quick test_fault_spec_deterministic;
       tc "wrap" `Quick test_fault_wrap;
       tc "validation" `Quick test_fault_spec_validation ]);
    ("fault.scheduler",
     [ tc "transient retry charged" `Quick test_transient_retry_charged;
       tc "retry overlaps other disks" `Quick test_retry_overlaps_other_disks;
       tc "retries exhausted" `Quick test_retries_exhausted;
       tc "straggler charges k" `Quick test_straggler_charges_k;
       tc "straggler serialises its queue" `Quick
         test_straggler_queue_serialises;
       tc "failed disk raises" `Quick test_failed_disk_raises;
       tc "head-model straggler" `Quick test_head_model_straggler;
       tc "traced machine, same costs" `Quick test_traced_machine_same_costs;
       tc "dictionary correct under faults" `Quick
         test_dictionary_correct_under_faults ]);
    ("trace",
     [ tc "ring buffer" `Quick test_ring_buffer;
       tc "event JSON roundtrip" `Quick test_event_json_roundtrip;
       tc "JSONL file roundtrip = stats" `Quick
         test_jsonl_file_roundtrip_matches_stats;
       tc "malformed JSONL rejected with context" `Quick
         test_jsonl_malformed_rejected;
       tc "structured storage errors described" `Quick
         test_describe_structured_errors;
       tc "retry events" `Quick test_trace_retry_events;
       tc "attach/detach midstream" `Quick test_set_trace_midstream ]);
    ("stats.per_disk",
     [ tc "counters and occupancy" `Quick test_stats_per_disk;
       tc "diff/add padding" `Quick test_stats_diff_add_padding;
       tc "reset clears" `Quick test_stats_reset_clears_disks ]);
    ("experiments.faults",
     [ tc "E16 runs and stays correct" `Quick test_fault_experiment ]) ]
