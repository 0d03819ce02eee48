(* Tests for the robustness subsystem: replicated placement with
   failover, the checksum envelope, disk death and scrub/repair, the
   write-ahead journal with crash injection, and the journaled
   dictionary update paths. *)

open Pdm_sim
module Codec = Pdm_dictionary.Codec
module Checksum = Pdm_dictionary.Codec.Checksum
module Basic = Pdm_dictionary.Basic_dict
module One_probe = Pdm_dictionary.One_probe_dynamic
module Cascade = Pdm_dictionary.Dynamic_cascade
module Repair_exp = Pdm_experiments.Repair_exp

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let ios t = Stats.parallel_ios (Stats.snapshot (Pdm.stats t))

let block_of t xs =
  let b = Array.make (Pdm.block_size t) None in
  List.iteri (fun i x -> b.(i) <- Some x) xs;
  b

let mk ?faults ?(replicas = 1) ?(spares = 0) ?integrity ?(disks = 4)
    ?(block_size = 8) ?(blocks = 16) () =
  Pdm.create ?faults ~replicas ~spares ?integrity ~disks ~block_size
    ~blocks_per_disk:blocks ()

(* --- replicated placement --- *)

let test_replicated_roundtrip () =
  let t : int Pdm.t = mk ~replicas:2 () in
  check "replicas" 2 (Pdm.replicas t);
  check "physical = logical" 4 (Pdm.physical_disks t);
  let a = { Pdm.disk = 1; block = 3 } in
  Pdm.write_one t a (block_of t [ 42 ]);
  check "both replicas allocated" 2 (Pdm.allocated_blocks t);
  Alcotest.(check (option int)) "reads back" (Some 42) (Pdm.read_one t a).(0)

let test_replicated_read_cost_matches_plain () =
  (* Healthy replicated reads prefer replica 0, which sits at the
     plain machine's addresses: same blocks, same rounds. *)
  let addrs =
    [ { Pdm.disk = 0; block = 0 }; { Pdm.disk = 0; block = 1 };
      { Pdm.disk = 1; block = 0 }; { Pdm.disk = 3; block = 5 } ]
  in
  let run t =
    List.iter (fun a -> Pdm.poke t a (block_of t [ a.Pdm.block ])) addrs;
    Stats.reset (Pdm.stats t);
    ignore (Pdm.read t (Array.of_list addrs));
    ios t
  in
  check "same read rounds" (run (mk ())) (run (mk ~replicas:2 ()))

let test_kill_disk_failover () =
  let t : int Pdm.t = mk ~replicas:2 () in
  let a = { Pdm.disk = 2; block = 0 } in
  Pdm.write_one t a (block_of t [ 7 ]);
  Stats.reset (Pdm.stats t);
  Pdm.kill_disk t 2;
  checkb "health cache sees it" true (Pdm.disk_down t 2);
  (* The physical platter is destroyed — though [Pdm.peek] still
     answers from the surviving replica on disk 3. *)
  checkb "platter gone" true ((Pdm.backend t 2).Backend.peek 0 = None);
  checkb "peek serves the survivor" true
    (not (Array.for_all Option.is_none (Pdm.peek t a)));
  (* Known-down disk: the read goes straight to the surviving replica
     on disk 3 — no discovery round wasted. *)
  Alcotest.(check (option int)) "failover answer" (Some 7)
    (Pdm.read_one t a).(0);
  check "one round (health cache)" 1 (ios t)

let test_degraded_discovery_bounded () =
  (* A Fault-failed disk is discovered by the first failing transfer:
     that read pays one failover pass, later reads go straight to the
     survivor. *)
  let faults = Fault.spec ~fail:[ 1 ] () in
  let t : int Pdm.t = mk ~replicas:2 ~faults () in
  let a = { Pdm.disk = 1; block = 4 } in
  Pdm.poke t a (block_of t [ 9 ]);
  checkb "not yet observed" false (Pdm.disk_down t 1);
  Alcotest.(check (option int)) "first read fails over" (Some 9)
    (Pdm.read_one t a).(0);
  let discovery = ios t in
  checkb "discovery <= 2x healthy" true (discovery <= 2);
  checkb "now observed" true (Pdm.disk_down t 1);
  Alcotest.(check (option int)) "second read" (Some 9) (Pdm.read_one t a).(0);
  check "steady state: 1 round" (discovery + 1) (ios t)

let test_write_survives_dead_replica () =
  let t : int Pdm.t = mk ~replicas:2 () in
  let a = { Pdm.disk = 0; block = 0 } in
  Pdm.kill_disk t 1;
  (* Replica 1 of disk-0 blocks lives on disk 1 — dead. The write
     still lands on replica 0. *)
  Pdm.write_one t a (block_of t [ 5 ]);
  Alcotest.(check (option int)) "survivor serves" (Some 5)
    (Pdm.read_one t a).(0);
  (* With both replica homes dead the write must raise. *)
  Pdm.kill_disk t 0;
  checkb "no replica left: raises" true
    (try
       Pdm.write_one t a (block_of t [ 6 ]);
       false
     with Backend.Disk_failed _ -> true)

let test_all_replicas_dead_raises () =
  let t : int Pdm.t = mk ~replicas:2 () in
  let a = { Pdm.disk = 0; block = 2 } in
  Pdm.write_one t a (block_of t [ 1 ]);
  Pdm.kill_disk t 0;
  Pdm.kill_disk t 1;
  checkb "read raises Disk_failed" true
    (try
       ignore (Pdm.read_one t a);
       false
     with Backend.Disk_failed _ -> true)

(* Property (satellite): killing any <= r - 1 disks leaves every
   lookup answer identical to the fault-free machine. *)
let prop_availability_under_r_minus_1_failures =
  QCheck.Test.make ~name:"<= r-1 dead disks: answers unchanged" ~count:60
    QCheck.(triple (int_range 2 3) (int_bound 999) (int_bound 9999))
    (fun (r, kill_seed, data_seed) ->
      let disks = 5 and blocks = 6 in
      let reference : int Pdm.t = mk ~disks ~blocks () in
      let t : int Pdm.t = mk ~replicas:r ~spares:1 ~disks ~blocks () in
      let rng = Pdm_util.Prng.create data_seed in
      for d = 0 to disks - 1 do
        for b = 0 to blocks - 1 do
          if Pdm_util.Prng.int rng 3 > 0 then begin
            let v = Pdm_util.Prng.int rng 1_000_000 in
            let a = { Pdm.disk = d; block = b } in
            Pdm.write_one reference a (block_of reference [ v ]);
            Pdm.write_one t a (block_of t [ v ])
          end
        done
      done;
      (* Kill r - 1 distinct disks chosen by the seed. *)
      let krng = Pdm_util.Prng.create kill_seed in
      let killed = ref [] in
      while List.length !killed < r - 1 do
        let d = Pdm_util.Prng.int krng disks in
        if not (List.mem d !killed) then begin
          Pdm.kill_disk t d;
          killed := d :: !killed
        end
      done;
      (* Every block still answers exactly as the fault-free machine:
         replicas of one logical block sit on r consecutive disks, so
         r - 1 dead disks always leave a survivor. *)
      List.for_all
        (fun a -> Pdm.read_one t a = Pdm.read_one reference a)
        (List.concat_map
           (fun d -> List.init blocks (fun b -> { Pdm.disk = d; block = b }))
           (List.init disks (fun d -> d))))

(* --- checksum envelope --- *)

let test_checksum_seal_check () =
  let payload = [| Some 3; None; Some 0; Some (-17) |] in
  let sealed = Checksum.seal payload in
  check "one extra cell" (Array.length payload + 1) (Array.length sealed);
  checkb "roundtrip" true (Checksum.check sealed = Some payload);
  (* Any single-cell change is caught... *)
  for i = 0 to Array.length sealed - 1 do
    let bad = Array.copy sealed in
    bad.(i) <- (match bad.(i) with
                | Some v -> Some (v + 1)
                | None -> Some 0);
    checkb (Printf.sprintf "cell %d change detected" i) true
      (Checksum.check bad = None)
  done;
  (* ...and so is swapping two cells (position-sensitive sum). *)
  let swapped = Array.copy sealed in
  swapped.(0) <- sealed.(2);
  swapped.(2) <- sealed.(0);
  checkb "swap detected" true (Checksum.check swapped = None);
  (* None <-> Some 0 must differ. *)
  let zeroed = Array.copy sealed in
  zeroed.(1) <- Some 0;
  checkb "None vs Some 0 detected" true (Checksum.check zeroed = None)

let test_latent_rot_failover () =
  let t : int Pdm.t = mk ~replicas:2 ~integrity:Checksum.integrity () in
  let a = { Pdm.disk = 0; block = 1 } in
  Pdm.write_one t a (block_of t [ 11; 22 ]);
  Stats.reset (Pdm.stats t);
  Pdm.damage_stored t a ~replica:0;
  (* The damaged replica fails its checksum; the read fails over. *)
  let b = Pdm.read_one t a in
  Alcotest.(check (option int)) "intact answer" (Some 11) b.(0);
  checkb "paid a failover round" true (ios t >= 2);
  (* Rot on both replicas: nothing intact left. The exception names
     the physical replica that failed last, with the current round. *)
  Pdm.damage_stored t a ~replica:1;
  checkb "raises Corrupt_block" true
    (try
       ignore (Pdm.read_one t a);
       false
     with Backend.Corrupt_block { disk; block; round } ->
       disk >= 0 && block >= 0 && round > 0)

let test_wire_corruption_retried () =
  (* Unreplicated but checksummed: wire corruption (per-attempt) is
     detected and retried until a clean attempt lands. *)
  let faults = Fault.spec ~seed:3 ~max_retries:32 ~corrupt:[ (0, 0.5) ] () in
  let t : int Pdm.t = mk ~faults ~integrity:Checksum.integrity () in
  for b = 0 to 15 do
    Pdm.poke t { Pdm.disk = 0; block = b } (block_of t [ b * 7 ])
  done;
  Stats.reset (Pdm.stats t);
  for b = 0 to 15 do
    Alcotest.(check (option int))
      (Printf.sprintf "block %d correct" b)
      (Some (b * 7))
      (Pdm.read_one t { Pdm.disk = 0; block = b }).(0)
  done;
  checkb "corruption charged retries" true (ios t > 16)

let test_corruption_undetected_without_integrity () =
  (* The same wire corruption on an envelope-free machine silently
     returns mangled data — the reason the envelope exists. *)
  let faults = Fault.spec ~seed:3 ~corrupt:[ (0, 1.0) ] () in
  let t : int Pdm.t = mk ~faults () in
  let a = { Pdm.disk = 0; block = 0 } in
  Pdm.poke t a (block_of t [ 1; 2; 3 ]);
  checkb "mangled data delivered" true
    (Pdm.read_one t a <> Pdm.peek t a)

(* --- scrub and repair --- *)

let test_scrub_repairs_rot_in_place () =
  let t : int Pdm.t = mk ~replicas:2 ~integrity:Checksum.integrity () in
  for b = 0 to 7 do
    Pdm.write_one t { Pdm.disk = 0; block = b } (block_of t [ b ])
  done;
  for b = 0 to 2 do
    Pdm.damage_stored t { Pdm.disk = 0; block = b } ~replica:0
  done;
  let r = Pdm.scrub t in
  check "scanned" 8 r.Pdm.scanned_blocks;
  check "corrupt found" 3 r.Pdm.corrupt_replicas;
  check "repaired" 3 r.Pdm.repaired_replicas;
  check "in place, not remapped" 0 r.Pdm.remapped_replicas;
  check "nothing lost" 0 r.Pdm.lost_blocks;
  checkb "scan I/O charged" true (r.Pdm.scan_rounds > 0);
  checkb "repair I/O charged" true (r.Pdm.repair_rounds > 0);
  let r2 = Pdm.scrub t in
  check "verify: all intact" 16 r2.Pdm.intact_replicas;
  check "verify: nothing to repair" 0 r2.Pdm.repaired_replicas;
  check "verify: free of repair I/O" 0 r2.Pdm.repair_rounds

let test_scrub_rereplicates_onto_spare () =
  let t : int Pdm.t =
    mk ~replicas:2 ~spares:1 ~integrity:Checksum.integrity ()
  in
  for d = 0 to 3 do
    for b = 0 to 3 do
      Pdm.write_one t { Pdm.disk = d; block = b } (block_of t [ (10 * d) + b ])
    done
  done;
  Pdm.kill_disk t 2;
  let r = Pdm.scrub t in
  (* Disk 2 held replica 0 of its own 4 blocks and replica 1 of disk
     1's 4 blocks: 8 missing replicas, all re-homed on the spare. *)
  check "missing" 8 r.Pdm.missing_replicas;
  check "repaired" 8 r.Pdm.repaired_replicas;
  check "remapped to spare" 8 r.Pdm.remapped_replicas;
  check "nothing lost" 0 r.Pdm.lost_blocks;
  check "machine-level remap count" 8 (Pdm.remapped_replicas t);
  (* Full replication restored: kill another disk, answers survive. *)
  Pdm.kill_disk t 1;
  for d = 0 to 3 do
    for b = 0 to 3 do
      Alcotest.(check (option int))
        (Printf.sprintf "disk %d block %d alive" d b)
        (Some ((10 * d) + b))
        (Pdm.read_one t { Pdm.disk = d; block = b }).(0)
    done
  done;
  let r2 = Pdm.scrub t in
  checkb "second death repairable too" true
    (r2.Pdm.lost_blocks = 0 && r2.Pdm.unrepairable_replicas = 0)

let test_scrub_without_spare_reports_unrepairable () =
  let t : int Pdm.t = mk ~replicas:2 ~spares:0 () in
  let a = { Pdm.disk = 0; block = 0 } in
  Pdm.write_one t a (block_of t [ 3 ]);
  Pdm.kill_disk t 0;
  let r = Pdm.scrub t in
  check "missing seen" 1 r.Pdm.missing_replicas;
  check "nowhere to put it" 1 r.Pdm.unrepairable_replicas;
  check "survivor keeps the block" 0 r.Pdm.lost_blocks;
  Alcotest.(check (option int)) "still readable" (Some 3)
    (Pdm.read_one t a).(0)

(* --- write-ahead journal --- *)

let jm ?(disks = 4) ?(block_size = 8) () =
  (* Each journal entry costs block_size + 2 cells, so a capacity of
     12 blocks comfortably holds the <= 6-entry batches used here. *)
  let data_rows = 8 and jcap = 12 in
  let rows = Journal.rows ~disks ~capacity_blocks:jcap in
  let t : int Pdm.t =
    Pdm.create ~disks ~block_size ~blocks_per_disk:(data_rows + rows) ()
  in
  (t, Journal.create t ~block_offset:data_rows ~capacity_blocks:jcap)

let batch t vs =
  List.mapi
    (fun i v -> ({ Pdm.disk = i mod Pdm.disks t; block = i / 4 }, block_of t [ v ]))
    vs

let applied t vs =
  List.for_all
    (fun (a, b) -> Pdm.peek t a = b)
    (batch t vs)

let untouched t vs =
  List.for_all
    (fun (a, _) -> Array.for_all Option.is_none (Pdm.peek t a))
    (batch t vs)

let test_journal_plain_apply () =
  let t, j = jm () in
  Journal.log_and_apply j (batch t [ 1; 2; 3; 4; 5 ]);
  checkb "batch applied" true (applied t [ 1; 2; 3; 4; 5 ]);
  checkb "header cleared: recovery is clean" true
    (Journal.recover t ~block_offset:(Journal.block_offset j)
       ~capacity_blocks:(Journal.capacity_blocks j)
    = `Clean);
  checkb "journal I/O counted" true (ios t > 2)

let crash_outcomes =
  [ (Journal.Before_log, `Before);
    (Journal.During_log 1, `Before);
    (Journal.After_log, `Before);
    (Journal.After_commit, `After);
    (Journal.During_apply 1, `After);
    (Journal.After_apply, `After) ]

let test_journal_crash_matrix () =
  List.iter
    (fun (point, side) ->
      let t, j = jm () in
      let vs = [ 10; 20; 30; 40; 50 ] in
      checkb "crash raised" true
        (try
           Journal.log_and_apply j ~crash:point (batch t vs);
           false
         with Journal.Crashed -> true);
      let outcome =
        Journal.recover t ~block_offset:(Journal.block_offset j)
          ~capacity_blocks:(Journal.capacity_blocks j)
      in
      match side with
      | `Before ->
        checkb "not replayed" true
          (match outcome with `Replayed _ -> false | `Clean | `Discarded -> true);
        checkb "state wholly before" true (untouched t vs)
      | `After ->
        checkb "replayed" true
          (match outcome with `Replayed 5 -> true | _ -> false);
        checkb "state wholly after" true (applied t vs))
    crash_outcomes

(* Property (satellite): recovery is idempotent — replaying twice
   leaves exactly the state of replaying once, at every crash point
   and batch shape. *)
let prop_journal_recovery_idempotent =
  QCheck.Test.make ~name:"journal recovery idempotent" ~count:60
    QCheck.(pair (int_bound 5) (list_of_size Gen.(int_range 1 6) small_nat))
    (fun (point_ix, vs) ->
      let point = fst (List.nth crash_outcomes point_ix) in
      let t, j = jm () in
      (try Journal.log_and_apply j ~crash:point (batch t vs)
       with Journal.Crashed -> ());
      let off = Journal.block_offset j in
      let cap = Journal.capacity_blocks j in
      ignore (Journal.recover t ~block_offset:off ~capacity_blocks:cap);
      let dump1 =
        List.map (fun (a, _) -> Pdm.peek t a) (batch t vs)
      in
      let second = Journal.recover t ~block_offset:off ~capacity_blocks:cap in
      let dump2 =
        List.map (fun (a, _) -> Pdm.peek t a) (batch t vs)
      in
      second = `Clean && dump1 = dump2)

let test_journal_capacity_checked () =
  let t, j = jm () in
  checkb "oversized batch rejected" true
    (try
       Journal.log_and_apply j
         (List.init 40 (fun i ->
              ({ Pdm.disk = i mod 4; block = i / 8 }, block_of t [ i ])));
       false
     with Invalid_argument _ -> true)

(* --- journaled dictionaries --- *)

let op_cfg =
  { One_probe.universe = 1 lsl 14; capacity = 120; degree = 6;
    sigma_bits = 64; levels = 3; v_factor = 3; seed = 5 }

let test_journaled_dict_same_answers () =
  let plain = One_probe.create ~block_words:32 op_cfg in
  let j = One_probe.create ~journaled:true ~block_words:32 op_cfg in
  checkb "flag" true (One_probe.journaled j && not (One_probe.journaled plain));
  let payload k = Bytes.of_string (Printf.sprintf "%08d" k) in
  for k = 0 to 99 do
    One_probe.insert plain (k * 3) (payload k);
    One_probe.insert j (k * 3) (payload k)
  done;
  for k = 0 to 49 do
    ignore (One_probe.delete plain (k * 6));
    ignore (One_probe.delete j (k * 6))
  done;
  for k = 0 to 320 do
    Alcotest.(check (option string))
      (Printf.sprintf "find %d" k)
      (Option.map Bytes.to_string (One_probe.find plain k))
      (Option.map Bytes.to_string (One_probe.find j k))
  done;
  check "sizes agree" (One_probe.size plain) (One_probe.size j);
  (* Durability is paid for in counted rounds. *)
  checkb "journal costs more I/O" true
    (ios (One_probe.machine j) > ios (One_probe.machine plain))

let test_journaled_dict_crash_recovery () =
  let payload k = Bytes.of_string (Printf.sprintf "%08d" k) in
  List.iter
    (fun (point, survives) ->
      let t = One_probe.create ~journaled:true ~block_words:32 op_cfg in
      for k = 0 to 39 do
        One_probe.insert t k (payload k)
      done;
      One_probe.set_crash t (Some point);
      checkb "insert crashes" true
        (try
           One_probe.insert t 1000 (payload 1000);
           false
         with Journal.Crashed -> true);
      ignore (One_probe.recover t);
      (* Atomicity: the interrupted insert either wholly happened or
         wholly didn't; every earlier key is untouched either way. *)
      Alcotest.(check (option string))
        "interrupted key all-or-nothing"
        (if survives then Some (Bytes.to_string (payload 1000)) else None)
        (Option.map Bytes.to_string (One_probe.find t 1000));
      check "size rebuilt from disk" (if survives then 41 else 40)
        (One_probe.size t);
      for k = 0 to 39 do
        Alcotest.(check (option string))
          (Printf.sprintf "prior key %d intact" k)
          (Some (Bytes.to_string (payload k)))
          (Option.map Bytes.to_string (One_probe.find t k))
      done;
      (* The dictionary keeps working after recovery. *)
      One_probe.insert t 2000 (payload 2000);
      checkb "insert after recovery" true (One_probe.find t 2000 <> None))
    [ (Journal.Before_log, false); (Journal.After_log, false);
      (Journal.After_commit, true); (Journal.During_apply 1, true);
      (Journal.After_apply, true) ]

let test_journaled_cascade_crash_recovery () =
  let cfg =
    { Cascade.universe = 1 lsl 14; capacity = 150; degree = 15;
      sigma_bits = 64; epsilon = 1.0; v_factor = 3; seed = 2 }
  in
  let t = Cascade.create ~journaled:true ~block_words:32 cfg in
  let payload k = Bytes.of_string (Printf.sprintf "%08d" k) in
  for k = 0 to 59 do
    Cascade.insert t k (payload k)
  done;
  Cascade.set_crash t (Some Journal.After_commit);
  checkb "crash injected" true
    (try
       Cascade.insert t 777 (payload 777);
       false
     with Journal.Crashed -> true);
  (match Cascade.recover t with
   | `Replayed _ -> ()
   | `Clean | `Discarded -> Alcotest.fail "committed batch not replayed");
  checkb "replayed insert present" true (Cascade.find t 777 <> None);
  check "size correct" 61 (Cascade.size t);
  for k = 0 to 59 do
    checkb (Printf.sprintf "key %d intact" k) true (Cascade.find t k <> None)
  done

(* --- healthy costs are the closed form --- *)

let test_healthy_cost_identity () =
  (* On healthy disks the scheduler charges exactly the closed form —
     the seed simulator's costs. *)
  let run t =
    Pdm.write t
      (List.init 4 (fun d -> ({ Pdm.disk = d; block = 0 }, block_of t [ d ])));
    ignore
      (Pdm.read t
         [| { Pdm.disk = 0; block = 0 }; { Pdm.disk = 0; block = 1 };
           { Pdm.disk = 2; block = 0 } |]);
    ignore (Pdm.read_one t { Pdm.disk = 3; block = 7 });
    Stats.snapshot (Pdm.stats t)
  in
  let plain = run (mk ()) in
  check "write rounds" 1 plain.Stats.parallel_writes;
  check "read rounds" 3 plain.Stats.parallel_reads;
  (* An idle spare disk adds a scheduler channel but changes no charge. *)
  let spared = run (mk ~spares:1 ()) in
  checkb "spare machine = plain machine" true
    (plain.Stats.parallel_reads = spared.Stats.parallel_reads
    && plain.Stats.parallel_writes = spared.Stats.parallel_writes
    && plain.Stats.disk_reads = spared.Stats.disk_reads
    && plain.Stats.disk_writes = spared.Stats.disk_writes)

(* --- the repair experiment (E17 smoke: small n, fixed seed) --- *)

let test_repair_experiment () =
  let r = Repair_exp.run ~n:800 ~lookups:400 ~seed:13 () in
  checkb "100% available in every phase" true r.Repair_exp.all_available;
  checkb "identical answers in every phase" true r.Repair_exp.all_correct;
  checkb "degraded overhead <= 2x" true r.Repair_exp.degraded_within_2x;
  checkb "kill-recovery scrub remapped onto the spare" true
    (r.Repair_exp.scrub_after_kill.Pdm.remapped_replicas > 0);
  check "verify scrub finds nothing" 0
    r.Repair_exp.scrub_verify.Pdm.repaired_replicas;
  check "verify scrub loses nothing" 0 r.Repair_exp.scrub_verify.Pdm.lost_blocks;
  checkb "repair budget reported" true (r.Repair_exp.repair_ios > 0);
  (match r.Repair_exp.phases with
   | [ healthy; _; _; repaired ] ->
     checkb "costs return to baseline" true
       (repaired.Repair_exp.avg_io <= healthy.Repair_exp.avg_io +. 1e-9)
   | _ -> Alcotest.fail "expected four phases");
  let table = Repair_exp.to_table r in
  check "table rows" 4 (List.length table.Pdm_experiments.Table.rows)

let suite =
  let tc = Alcotest.test_case in
  [ ("replication",
     [ tc "replicated roundtrip" `Quick test_replicated_roundtrip;
       tc "healthy read cost = plain" `Quick
         test_replicated_read_cost_matches_plain;
       tc "kill_disk failover" `Quick test_kill_disk_failover;
       tc "discovery bounded, then cached" `Quick
         test_degraded_discovery_bounded;
       tc "write survives dead replica" `Quick
         test_write_survives_dead_replica;
       tc "all replicas dead raises" `Quick test_all_replicas_dead_raises ]);
    ("replication.properties",
     List.map QCheck_alcotest.to_alcotest
       [ prop_availability_under_r_minus_1_failures ]);
    ("integrity",
     [ tc "seal/check envelope" `Quick test_checksum_seal_check;
       tc "latent rot fails over" `Quick test_latent_rot_failover;
       tc "wire corruption retried" `Quick test_wire_corruption_retried;
       tc "undetected without envelope" `Quick
         test_corruption_undetected_without_integrity ]);
    ("scrub",
     [ tc "repairs rot in place" `Quick test_scrub_repairs_rot_in_place;
       tc "re-replicates onto spare" `Quick test_scrub_rereplicates_onto_spare;
       tc "no spare: unrepairable reported" `Quick
         test_scrub_without_spare_reports_unrepairable ]);
    ("journal",
     [ tc "plain apply" `Quick test_journal_plain_apply;
       tc "crash matrix: all-or-nothing" `Quick test_journal_crash_matrix;
       tc "capacity checked" `Quick test_journal_capacity_checked ]);
    ("journal.properties",
     List.map QCheck_alcotest.to_alcotest
       [ prop_journal_recovery_idempotent ]);
    ("journal.dictionaries",
     [ tc "journaled one-probe: same answers" `Quick
         test_journaled_dict_same_answers;
       tc "one-probe crash recovery" `Quick
         test_journaled_dict_crash_recovery;
       tc "cascade crash recovery" `Quick
         test_journaled_cascade_crash_recovery ]);
    ("robustness.cost_identity",
     [ tc "healthy costs = closed form" `Quick test_healthy_cost_identity ]);
    ("experiments.repair",
     [ tc "E17 availability and repair" `Quick test_repair_experiment ]) ]
