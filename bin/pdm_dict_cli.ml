(* Command-line driver: run any experiment from DESIGN.md's index
   individually, or the whole suite. *)

open Cmdliner
(* pdm-lint: allow R4 — the CLI is the experiments library's front end
   and exposes every experiment driver and its sizing constants; the
   subcommand table below touches nearly all of them *)
open Pdm_experiments
module Store = Pdm_io.Store

let resolve_backend kind =
  match String.lowercase_ascii kind with
  | "mem" -> Ok None
  | k -> Result.map Option.some (Store.factory_of_string k)

let backend_conv_doc =
  "Storage backend under the machines: $(b,mem) (default, in-memory \
   disks), $(b,file) or $(b,mmap) (real files in a fresh scratch \
   directory, removed at exit). Simulated I/O counts are identical \
   across backends; only wall time changes."

(* Output format shared by the experiment runners. *)
let emit = ref Table.print

let print_table t = !emit ?out:None t

type spec = {
  id : string;
  doc : string;
  exec :
    n:int option -> block_words:int option -> seed:int option ->
    factory:int Pdm_sim.Backend.factory option -> unit;
}

let experiments =
  [ { id = "figure1"; doc = "Figure 1: dictionary comparison table (E1)";
      exec =
        (fun ~n ~block_words ~seed ~factory:_ ->
          print_table
            (Figure1.to_table (Figure1.run ?n ?block_words ?seed ()))) };
    { id = "lemma3"; doc = "Lemma 3: deterministic load balancing (E2)";
      exec =
        (fun ~n:_ ~block_words:_ ~seed ~factory:_ ->
          print_table (Load_balance.to_table (Load_balance.run ?seed ()))) };
    { id = "lemmas45"; doc = "Lemmas 4-5: unique neighbors (E3)";
      exec =
        (fun ~n:_ ~block_words:_ ~seed ~factory:_ ->
          print_table
            (Unique_neighbors.to_table (Unique_neighbors.run ?seed ()))) };
    { id = "theorem6"; doc = "Theorem 6: one-probe static dictionary (E4)";
      exec =
        (fun ~n ~block_words ~seed ~factory:_ ->
          let ns = Option.map (fun n -> [ n ]) n in
          print_table
            (One_probe_exp.to_table
               (One_probe_exp.run ?block_words ?seed ?ns ()))) };
    { id = "theorem7"; doc = "Theorem 7: dynamic cascade (E5)";
      exec =
        (fun ~n ~block_words ~seed ~factory:_ ->
          print_table
            (Dynamic_exp.to_table (Dynamic_exp.run ?n ?block_words ?seed ()))) };
    { id = "basic41"; doc = "Section 4.1 basic dictionary across B (E6)";
      exec =
        (fun ~n ~block_words:_ ~seed ~factory:_ ->
          Table.print (Basic_exp.to_table (Basic_exp.run ?n ?seed ()))) };
    { id = "btree"; doc = "B-tree vs dictionary on an FS workload (E7)";
      exec =
        (fun ~n ~block_words ~seed ~factory:_ ->
          let ns = Option.map (fun n -> [ n ]) n in
          print_table
            (Btree_compare.to_table
               (Btree_compare.run ?block_words ?seed ?ns ()))) };
    { id = "section5"; doc = "Section 5 semi-explicit expanders (E8)";
      exec =
        (fun ~n:_ ~block_words:_ ~seed ~factory:_ ->
          Table.print (Explicit_exp.to_table (Explicit_exp.run ?seed ()))) };
    { id = "rebuild"; doc = "Global rebuilding overhead (E9)";
      exec =
        (fun ~n ~block_words ~seed ~factory:_ ->
          print_table
            (Rebuild_exp.to_table
               (Rebuild_exp.run ?block_words ?seed ?operations:n ()))) };
    { id = "bandwidth"; doc = "Bandwidth per parallel I/O (E10)";
      exec =
        (fun ~n ~block_words ~seed ~factory:_ ->
          print_table
            (Bandwidth_exp.to_table (Bandwidth_exp.run ?n ?block_words ?seed ()))) };
    { id = "ablations"; doc = "Design-choice ablations (E11)";
      exec =
        (fun ~n:_ ~block_words:_ ~seed ~factory:_ ->
          List.iter print_table (Ablation_exp.to_tables (Ablation_exp.run ?seed ()))) };
    { id = "extensions"; doc = "Extension structures (E12)";
      exec =
        (fun ~n:_ ~block_words:_ ~seed ~factory:_ ->
          print_table (Extensions_exp.to_table (Extensions_exp.run ?seed ()))) };
    { id = "scale"; doc = "Worst-case bounds at scale (E13)";
      exec =
        (fun ~n ~block_words:_ ~seed ~factory:_ ->
          let ns = Option.map (fun n -> [ n ]) n in
          Table.print (Scale_exp.to_table (Scale_exp.run ?seed ?ns ()))) };
    { id = "realtime"; doc = "Latency percentiles: det. vs whp (E14)";
      exec =
        (fun ~n ~block_words:_ ~seed:_ ~factory:_ ->
          print_table
            (Realtime_exp.to_table (Realtime_exp.run ?trace_ops:n ()))) };
    { id = "caching"; doc = "LRU buffer cache: who it helps (E15)";
      exec =
        (fun ~n ~block_words:_ ~seed ~factory:_ ->
          Table.print (Cache_exp.to_table (Cache_exp.run ?n ?seed ()))) };
    { id = "faults"; doc = "Fault injection: degradation and balance (E16)";
      exec =
        (fun ~n ~block_words:_ ~seed ~factory:_ ->
          print_table (Fault_exp.to_table (Fault_exp.run ?n ?seed ()))) };
    { id = "repair"; doc = "Replication & repair: disk death survival (E17)";
      exec =
        (fun ~n ~block_words:_ ~seed ~factory:_ ->
          print_table (Repair_exp.to_table (Repair_exp.run ?n ?seed ()))) };
    { id = "engine"; doc = "Batched concurrent query engine (E18)";
      exec =
        (fun ~n ~block_words:_ ~seed ~factory:_ ->
          print_table (Engine_exp.to_table (Engine_exp.run ?n ?seed ()))) };
    { id = "cluster"; doc = "Sharded placement tier (E20)";
      exec =
        (fun ~n ~block_words:_ ~seed ~factory:_ ->
          print_table (Cluster_exp.to_table (Cluster_exp.run ?n ?seed ()))) };
    { id = "chaos"; doc = "Availability under message faults (E21)";
      exec =
        (fun ~n ~block_words:_ ~seed ~factory:_ ->
          print_table (Chaos_exp.to_table (Chaos_exp.run ?n ?seed ()))) };
    { id = "realio"; doc = "Real I/O: batched-vs-unbatched crossover (E22)";
      exec =
        (fun ~n ~block_words:_ ~seed ~factory:_ ->
          print_table (Realio_exp.to_table (Realio_exp.run ?updates:n ?seed ()))) };
    { id = "daemon"; doc = "pdm-serve daemon under chaos (E23)";
      exec =
        (fun ~n ~block_words:_ ~seed ~factory:_ ->
          print_table (Serve_exp.to_table (Serve_exp.run ?n ?seed ()))) } ]

(* Storage and cluster failures escape as exceptions with structured
   context (disk, block, round; key, retry budget); render them as
   user errors, not crashes. *)
let describe_failure e =
  match Pdm_sim.Backend.describe e with
  | Some m -> Some m
  | None -> Pdm_cluster.Cluster.describe e

let storage_guard f =
  try f () with
  | e ->
    (match describe_failure e with
     | Some m -> `Error (false, m)
     | None -> raise e)

let run_one id ~n ~block_words ~seed ~factory =
  match List.find_opt (fun s -> s.id = id) experiments with
  | Some s ->
    storage_guard (fun () ->
        s.exec ~n ~block_words ~seed ~factory;
        `Ok ())
  | None when id = "all" ->
    storage_guard (fun () ->
        List.iter (fun s -> s.exec ~n ~block_words ~seed ~factory) experiments;
        `Ok ())
  | None ->
    `Error
      (false,
       Printf.sprintf "unknown experiment %S; try one of: all %s" id
         (String.concat " " (List.map (fun s -> s.id) experiments)))

let exp_arg =
  let doc = "Experiment id (see $(b,list)), or $(b,all)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"EXPERIMENT" ~doc)

let n_arg =
  let doc = "Number of keys (experiment-specific meaning)." in
  Arg.(value & opt (some int) None & info [ "n" ] ~docv:"N" ~doc)

let block_arg =
  let doc = "Block size B in machine words." in
  Arg.(value & opt (some int) None & info [ "b"; "block-words" ] ~docv:"B" ~doc)

let seed_arg =
  let doc = "Seed for all pseudo-random choices (runs are reproducible)." in
  Arg.(value & opt (some int) None & info [ "seed" ] ~docv:"SEED" ~doc)

let verbose_arg =
  let doc = "Log internal events (rebuild hand-overs, cuckoo rehashes)." in
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc)

let setup_logs verbose =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (Some (if verbose then Logs.Debug else Logs.Warning))

let csv_arg =
  let doc = "Emit CSV instead of aligned text tables." in
  Arg.(value & flag & info [ "csv" ] ~doc)

let backend_arg =
  let doc =
    backend_conv_doc
    ^ " Experiments that build their machines through the shared \
       adapters (figure1) honor it; the realio experiment measures \
       both backends regardless."
  in
  Arg.(value & opt string "mem" & info [ "backend" ] ~docv:"KIND" ~doc)

let run_cmd =
  let doc = "run one experiment (or 'all')" in
  Cmd.v
    (Cmd.info "run" ~doc)
    Term.(
      ret
        (const (fun id n block_words seed backend csv verbose ->
             setup_logs verbose;
             if csv then emit := Table.print_csv;
             match resolve_backend backend with
             | Error m -> `Error (false, m)
             | Ok factory -> run_one id ~n ~block_words ~seed ~factory)
        $ exp_arg $ n_arg $ block_arg $ seed_arg $ backend_arg $ csv_arg
        $ verbose_arg))

let list_cmd =
  let doc = "list available experiments" in
  Cmd.v
    (Cmd.info "list" ~doc)
    Term.(
      const (fun () ->
          List.iter
            (fun s -> Printf.printf "%-10s %s\n" s.id s.doc)
            experiments)
      $ const ())

let plan_cmd =
  let doc = "print the planned on-disk geometry of each dictionary" in
  let universe_arg =
    Arg.(value & opt int (1 lsl 22) & info [ "u"; "universe" ] ~docv:"U"
           ~doc:"Key universe size.")
  in
  let capacity_arg =
    Arg.(value & opt int 10_000 & info [ "n"; "capacity" ] ~docv:"N"
           ~doc:"Capacity in keys.")
  in
  let block_arg' =
    Arg.(value & opt int 64 & info [ "b"; "block-words" ] ~docv:"B"
           ~doc:"Block size in words.")
  in
  let run universe capacity block_words =
    let module Basic = Pdm_dictionary.Basic_dict in
    let module Fragmented = Pdm_dictionary.Fragmented in
    let module Cascade = Pdm_dictionary.Dynamic_cascade in
    let module Hash = Pdm_baselines.Hash_table in
    let rows = ref [] in
    let add name disks blocks note =
      rows := [ name; string_of_int disks; string_of_int blocks; note ] :: !rows
    in
    (try
       let cfg =
         Basic.plan ~universe ~capacity ~block_words ~degree:8 ~value_bytes:8
           ~seed:0 ()
       in
       add "basic (4.1)" 8
         (Basic.blocks_per_disk cfg)
         (Printf.sprintf "v = %d one-block buckets"
            (8 * cfg.Basic.buckets_per_stripe))
     with Invalid_argument m -> add "basic (4.1)" 0 0 ("infeasible: " ^ m));
    (try
       let cfg =
         Fragmented.plan ~universe ~capacity ~block_words ~degree:8
           ~sigma_bits:128 ~seed:0 ()
       in
       add "fragmented (k=d/2)" 8
         (Fragmented.blocks_per_disk cfg)
         (Printf.sprintf "v = %d, sigma = 128 bits"
            (8 * cfg.Fragmented.buckets_per_stripe))
     with Invalid_argument m -> add "fragmented" 0 0 ("infeasible: " ^ m));
    (try
       let t =
         Cascade.create ~block_words
           { Cascade.universe; capacity; degree = 15; sigma_bits = 128;
             epsilon = 1.0; v_factor = 3; seed = 0 }
       in
       add "cascade (4.3)" 30
         (Pdm_sim.Pdm.blocks_per_disk (Cascade.machine t))
         (Printf.sprintf "%d levels, %d bits total" (Cascade.levels t)
            (Cascade.space_bits t))
     with Invalid_argument m -> add "cascade" 0 0 ("infeasible: " ^ m));
    (try
       let cfg =
         Hash.plan ~universe ~capacity ~block_words ~disks:8 ~value_bytes:8
           ~seed:0 ()
       in
       add "hash table" 8 cfg.Hash.superblocks "striped, utilization 0.5"
     with Invalid_argument m -> add "hash table" 0 0 ("infeasible: " ^ m));
    print_table
      (Table.make
         ~title:
           (Printf.sprintf "Planned geometry at u = %d, n = %d, B = %d words"
              universe capacity block_words)
         ~header:[ "structure"; "disks"; "blocks/disk"; "notes" ]
         (List.rev !rows))
  in
  Cmd.v
    (Cmd.info "plan" ~doc)
    Term.(const run $ universe_arg $ capacity_arg $ block_arg')

(* --- trace: run a workload with per-round tracing and export JSONL --- *)

module Pdm = Pdm_sim.Pdm
module Stats = Pdm_sim.Stats
module Fault = Pdm_sim.Fault
module Iotrace = Pdm_sim.Trace
module Basic = Pdm_dictionary.Basic_dict

(* "transient=D:P,straggler=D:K,fail=D,retries=N" -> Fault.spec *)
let parse_fault_spec ~seed s =
  let transient = ref [] and stragglers = ref [] and fail = ref [] in
  let retries = ref None in
  let item it =
    let bad () = failwith (Printf.sprintf "bad fault item %S" it) in
    match String.index_opt it '=' with
    | None -> bad ()
    | Some i ->
      let key = String.sub it 0 i in
      let v = String.sub it (i + 1) (String.length it - i - 1) in
      let disk_colon () =
        match String.index_opt v ':' with
        | None -> bad ()
        | Some j ->
          ( String.sub v 0 j,
            String.sub v (j + 1) (String.length v - j - 1) )
      in
      (match key with
       | "transient" ->
         let d, p = disk_colon () in
         (match (int_of_string_opt d, float_of_string_opt p) with
          | Some d, Some p -> transient := (d, p) :: !transient
          | _ -> bad ())
       | "straggler" ->
         let d, k = disk_colon () in
         (match (int_of_string_opt d, int_of_string_opt k) with
          | Some d, Some k -> stragglers := (d, k) :: !stragglers
          | _ -> bad ())
       | "fail" ->
         (match int_of_string_opt v with
          | Some d -> fail := d :: !fail
          | None -> bad ())
       | "retries" ->
         (match int_of_string_opt v with
          | Some n -> retries := Some n
          | None -> bad ())
       | _ -> bad ())
  in
  if s = "" then None
  else begin
    List.iter item (String.split_on_char ',' s);
    Some
      (Fault.spec ~seed ?max_retries:!retries ~transient:!transient
         ~fail:!fail ~stragglers:!stragglers ())
  end

let run_trace faults_str ops seed ring out =
  match
    let faults = parse_fault_spec ~seed faults_str in
    let universe = 1 lsl 22 and n = 2_000 and disks = 8 and block_words = 64 in
    let cfg =
      Basic.plan ~universe ~capacity:n ~block_words ~degree:disks
        ~value_bytes:8 ~seed ()
    in
    (* Build on a pristine machine, then mount the same backends under
       a traced, fault-injected machine: faults degrade service, not
       the data already on disk. *)
    let clean =
      Pdm.create ~disks ~block_size:block_words
        ~blocks_per_disk:(Basic.blocks_per_disk cfg) ()
    in
    let d0 = Basic.create ~machine:clean ~disk_offset:0 ~block_offset:0 cfg in
    let rng = Pdm_util.Prng.create seed in
    let keys =
      Pdm_util.Sampling.distinct rng ~universe ~count:n
    in
    let payload k = Pdm_workload.Payload.value_bytes_of 8 k in
    Basic.bulk_load d0 (Array.map (fun k -> (k, payload k)) keys);
    let tr = Iotrace.create ~capacity:ring () in
    (* pdm-lint: allow R1 — construction-time plumbing: the recovery
       machine mirrors the clean machine's backends so both see the
       same stored bytes; no block is moved here *)
    let machine =
      Pdm.create ~trace:tr ?faults
        ~factory:(fun ~blocks:_ ~slots:_ -> Some (Pdm.backend clean))
        ~disks ~block_size:block_words
        ~blocks_per_disk:(Basic.blocks_per_disk cfg) ()
    in
    let dict =
      (* The recovery scan reads every block of every stripe, so a
         permanently dead disk (or a hopeless retry budget) is fatal
         here — report it as a user error, not a crash. *)
      try Basic.recover ~machine ~disk_offset:0 ~block_offset:0 cfg with
      | Pdm_sim.Backend.Disk_failed { disk; _ } ->
        failwith
          (Printf.sprintf
             "disk %d is permanently failed: the recovery scan cannot read \
              it, and every lookup touches all %d disks. Demo degraded \
              service with transient=D:P or straggler=D:K instead (or \
              replicate: see the scrub subcommand)."
             disk disks)
      | Pdm_sim.Backend.Retries_exhausted { disk; block; attempts; _ } ->
        failwith
          (Printf.sprintf
             "recovery gave up on disk %d block %d after %d attempts; raise \
              retries=N or lower the transient probability"
             disk block attempts)
    in
    let z = Pdm_util.Zipf.create ~n ~s:1.1 in
    let failed = ref 0 and exhausted = ref 0 and wrong = ref 0 in
    for _ = 1 to ops do
      let k = keys.(Pdm_util.Zipf.sample z rng) in
      match Basic.find dict k with
      | Some v -> if v <> payload k then incr wrong
      | None -> incr wrong
      | exception Pdm_sim.Backend.Disk_failed _ -> incr failed
      | exception Pdm_sim.Backend.Retries_exhausted _ -> incr exhausted
    done;
    Iotrace.export_jsonl tr out;
    (* Re-read the export as a stream — one event in memory at a time,
       so the same code path handles multi-million-round files. *)
    let t_reads = Array.make disks 0 and t_writes = Array.make disks 0 in
    let event_count = ref 0 and degraded = ref 0 and retries = ref 0 in
    (match
       Iotrace.iter_jsonl out (fun e ->
           incr event_count;
           if e.Iotrace.degraded then incr degraded;
           retries := !retries + e.Iotrace.retries;
           let into =
             match e.Iotrace.op with
             | Iotrace.Read -> t_reads
             | Iotrace.Write -> t_writes
           in
           Array.iteri
             (fun d n -> if d < disks then into.(d) <- into.(d) + n)
             e.Iotrace.per_disk)
     with
     | () -> ()
     | exception Iotrace.Malformed_line err ->
       failwith
         (Format.asprintf "re-reading the exported trace: %a"
            Iotrace.pp_parse_error err));
    let s = Stats.snapshot (Pdm.stats machine) in
    let pad a i = if i < Array.length a then a.(i) else 0 in
    let consistent = ref (Iotrace.dropped tr = 0) in
    let rows =
      List.init disks (fun d ->
          let tr_r = pad t_reads d and tr_w = pad t_writes d in
          let st_r = pad s.Stats.disk_reads d
          and st_w = pad s.Stats.disk_writes d in
          if Iotrace.dropped tr = 0 && (tr_r <> st_r || tr_w <> st_w) then
            consistent := false;
          [ string_of_int d; string_of_int tr_r; string_of_int tr_w;
            string_of_int st_r; string_of_int st_w ])
    in
    let degraded = !degraded and retries = !retries in
    print_table
      (Table.make
         ~title:
           (Printf.sprintf
              "I/O trace: %d lookups, %d rounds executed (%d recorded, %d \
               dropped from ring of %d)"
              ops (Pdm.rounds_total machine) (Iotrace.recorded tr)
              (Iotrace.dropped tr) ring)
         ~header:
           [ "disk"; "trace reads"; "trace writes"; "stats reads";
             "stats writes" ]
         ~notes:
           [ Printf.sprintf
               "%d degraded rounds, %d transient retries charged" degraded
               retries;
             Printf.sprintf
               "lookups: %d wrong, %d on failed disk, %d retries exhausted"
               !wrong !failed !exhausted;
             Printf.sprintf "JSONL exported to %s (%d events re-read)" out
               !event_count;
             (if !consistent then
                "round-trip check: trace per-disk totals = stats counters"
              else if Iotrace.dropped tr > 0 then
                "ring dropped events: totals are partial (raise --ring)"
              else "MISMATCH between trace totals and stats counters") ]
         rows);
    if !wrong > 0 then `Error (false, "lookups returned wrong values")
    else `Ok ()
  with
  | result -> result
  | exception Failure m -> `Error (false, m)

let trace_cmd =
  let doc = "trace a faulty workload per round and export JSONL" in
  let faults_arg =
    let doc =
      "Fault schedule: comma-separated $(b,transient=D:P) (disk D fails \
       reads with probability P), $(b,straggler=D:K) (disk D charges K \
       rounds per transfer), $(b,fail=D) (disk D permanently dead), \
       $(b,retries=N) (retry budget). Empty = fault-free."
    in
    Arg.(value & opt string "" & info [ "faults" ] ~docv:"SPEC" ~doc)
  in
  let ops_arg =
    Arg.(value & opt int 1_000
         & info [ "ops" ] ~docv:"N" ~doc:"Number of lookups to trace.")
  in
  let ring_arg =
    Arg.(value & opt int 65_536
         & info [ "ring" ] ~docv:"CAP" ~doc:"Trace ring-buffer capacity.")
  in
  let out_arg =
    Arg.(value & opt string "trace.jsonl"
         & info [ "o"; "out" ] ~docv:"FILE" ~doc:"JSONL output path.")
  in
  let seed_arg' =
    Arg.(value & opt int 7 & info [ "seed" ] ~docv:"SEED"
           ~doc:"Seed for keys, workload and fault schedule.")
  in
  Cmd.v
    (Cmd.info "trace" ~doc)
    Term.(
      ret
        (const (fun faults ops seed ring out csv ->
             if csv then emit := Table.print_csv;
             run_trace faults ops seed ring out)
        $ faults_arg $ ops_arg $ seed_arg' $ ring_arg $ out_arg $ csv_arg))

(* --- scrub: replicated machine, injected damage, verify-and-repair --- *)

let run_scrub n seed replicas spares kill corrupt =
  match
    let universe = 1 lsl 22 and disks = 8 and block_words = 64 in
    if replicas < 1 || replicas > disks then
      failwith "replicas must be in [1, 8]";
    if spares < 0 then failwith "spares must be >= 0";
    (match kill with
     | Some d when d < 0 || d >= disks ->
       failwith (Printf.sprintf "kill: disk %d out of range [0, %d)" d disks)
     | _ -> ());
    if Option.is_some kill && replicas < 2 then
      failwith "killing a disk with r = 1 loses data; use --replicas 2";
    let cfg =
      Basic.plan ~universe ~capacity:n ~block_words ~degree:disks
        ~value_bytes:8 ~seed ()
    in
    let machine =
      Pdm.create ~disks ~block_size:block_words
        ~blocks_per_disk:(Basic.blocks_per_disk cfg) ~replicas ~spares
        ~integrity:Pdm_dictionary.Codec.Checksum.integrity ()
    in
    let dict = Basic.create ~machine ~disk_offset:0 ~block_offset:0 cfg in
    let rng = Pdm_util.Prng.create seed in
    let keys = Pdm_util.Sampling.distinct rng ~universe ~count:n in
    let payload k = Pdm_workload.Payload.value_bytes_of 8 k in
    Basic.bulk_load dict (Array.map (fun k -> (k, payload k)) keys);
    (* Inject the damage the scrub is asked to find. *)
    let damaged = ref 0 in
    if corrupt > 0 then
      Pdm.iter_allocated machine (fun a _ ->
          if !damaged < corrupt then begin
            Pdm.damage_stored machine a ~replica:0;
            incr damaged
          end);
    Option.iter (fun d -> Pdm.kill_disk machine d) kill;
    let report = Pdm.scrub machine in
    (* Every key must still read back correctly after repair. *)
    let wrong = ref 0 and unavailable = ref 0 in
    Array.iter
      (fun k ->
        match Basic.find dict k with
        | Some v -> if v <> payload k then incr wrong
        | None -> incr wrong
        | exception e when Pdm_sim.Backend.describe e <> None ->
          incr unavailable)
      keys;
    let i = string_of_int in
    print_table
      (Table.make
         ~title:
           (Printf.sprintf
              "Scrub: n = %d keys on %d disks, r = %d, %d spare(s)%s%s"
              n disks replicas spares
              (match kill with
               | Some d -> Printf.sprintf ", disk %d killed" d
               | None -> "")
              (if !damaged > 0 then
                 Printf.sprintf ", %d replicas corrupted" !damaged
               else ""))
         ~header:[ "metric"; "count" ]
         ~notes:
           [ Printf.sprintf
               "post-scrub check over all %d keys: %d wrong, %d unavailable"
               n !wrong !unavailable;
             Printf.sprintf
               "repair budget: %d scan + %d repair parallel I/Os"
               report.Pdm.scan_rounds report.Pdm.repair_rounds ]
         [ [ "logical blocks scanned"; i report.Pdm.scanned_blocks ];
           [ "replicas intact"; i report.Pdm.intact_replicas ];
           [ "replicas corrupt"; i report.Pdm.corrupt_replicas ];
           [ "replicas missing (dead disk)"; i report.Pdm.missing_replicas ];
           [ "replicas repaired"; i report.Pdm.repaired_replicas ];
           [ "... of which remapped to spares"; i report.Pdm.remapped_replicas ];
           [ "replicas unrepairable"; i report.Pdm.unrepairable_replicas ];
           [ "blocks lost (no intact copy)"; i report.Pdm.lost_blocks ] ]);
    if !wrong > 0 || !unavailable > 0 then
      `Error (false, "post-scrub verification failed")
    else if report.Pdm.lost_blocks > 0 then
      `Error (false, "scrub found unrecoverable blocks")
    else `Ok ()
  with
  | result -> result
  | exception Failure m -> `Error (false, m)
  | exception e when Pdm_sim.Backend.describe e <> None -> (
    match Pdm_sim.Backend.describe e with
    | Some m -> `Error (false, m)
    | None -> `Error (false, Printexc.to_string e))

let scrub_cmd =
  let doc = "verify checksums and re-replicate onto spares" in
  let n_arg' =
    Arg.(value & opt int 2_000
         & info [ "n" ] ~docv:"N" ~doc:"Number of keys to load.")
  in
  let seed_arg' =
    Arg.(value & opt int 11 & info [ "seed" ] ~docv:"SEED"
           ~doc:"Seed for keys and payloads.")
  in
  let replicas_arg =
    Arg.(value & opt int 2 & info [ "r"; "replicas" ] ~docv:"R"
           ~doc:"Copies of every logical block, on R distinct disks.")
  in
  let spares_arg =
    Arg.(value & opt int 1 & info [ "spares" ] ~docv:"S"
           ~doc:"Hot-spare disks available as repair targets.")
  in
  let kill_arg =
    Arg.(value & opt (some int) None & info [ "kill" ] ~docv:"D"
           ~doc:"Kill disk D before scrubbing.")
  in
  let corrupt_arg =
    Arg.(value & opt int 16 & info [ "corrupt" ] ~docv:"K"
           ~doc:"Silently corrupt one replica of K blocks before scrubbing.")
  in
  Cmd.v
    (Cmd.info "scrub" ~doc)
    Term.(
      ret
        (const (fun n seed replicas spares kill corrupt csv ->
             if csv then emit := Table.print_csv;
             run_scrub n seed replicas spares kill corrupt)
        $ n_arg' $ seed_arg' $ replicas_arg $ spares_arg $ kill_arg
        $ corrupt_arg $ csv_arg))

(* --- serve: duty-cycled simulated clients through the batched query
   engine. Structured storage errors are reported with the id of the
   request being served when they surfaced. --- *)

module Engine = Pdm_engine.Engine
module Prng = Pdm_util.Prng
module Sampling = Pdm_util.Sampling

let serve_guard f =
  try f () with
  | Engine.Request_failed { id; key; error } ->
    let desc =
      match describe_failure error with
      | Some m -> m
      | None -> Printexc.to_string error
    in
    `Error
      (false, Printf.sprintf "request #%d (key %d) failed: %s" id key desc)
  | e ->
    (match describe_failure e with
     | Some m -> `Error (false, m)
     | None -> raise e)

let run_serve dict n queries clients batch deadline duty insert_frac cache
    replicas spares kill seed factory =
  if duty <= 0.0 || duty > 1.0 then
    `Error (false, "--duty must be in (0, 1]")
  else if queries < 1 || clients < 1 || n < 2 then
    `Error (false, "--requests, --clients and -n must be positive")
  else
    serve_guard @@ fun () ->
    let payload k = Common.value_bytes_of 8 k in
    let scale = { Adapters.default_scale with capacity = n; seed } in
    let members, _ =
      Sampling.disjoint_pair (Prng.create seed)
        ~universe:scale.Adapters.universe ~count:n
    in
    (* Dynamic structures start half full; engine-served inserts draw
       fresh keys from the other half (capacity is never exceeded). *)
    let prepop = Array.sub members 0 (n / 2) in
    let fresh = ref (Array.to_list (Array.sub members (n / 2) (n - (n / 2)))) in
    let ad, insert_frac =
      match dict with
      | "static" ->
        let data = Array.map (fun k -> (k, payload k)) members in
        ( Adapters.engine_one_probe_static ~scale ~replicas ~spares ?factory
            ~data (),
          0.0 )
      | "dynamic" | "cascade" ->
        let a =
          if dict = "dynamic" then
            Adapters.engine_one_probe_dynamic ~scale ~replicas ~spares
              ?factory ()
          else Adapters.engine_cascade ~scale ~replicas ~spares ?factory ()
        in
        let ins =
          match a.Adapters.engine_dict.Engine.insert with
          | Some f -> f
          | None -> invalid_arg (dict ^ ": adapter exposes no insert")
        in
        Array.iter (fun k -> ins k (payload k)) prepop;
        (a, insert_frac)
      | other ->
        invalid_arg
          (Printf.sprintf "unknown dictionary %S (static, dynamic, cascade)"
             other)
    in
    let machine = ad.Adapters.engine_dict.Engine.machine in
    Option.iter (fun d -> Pdm_sim.Pdm.kill_disk machine d) kill;
    let lookup_keys = if dict = "static" then members else prepop in
    let eng =
      Engine.create
        ~config:
          { Engine.max_batch = batch; deadline_rounds = deadline;
            cache_blocks = cache }
        ad.Adapters.engine_dict
    in
    let rng = Prng.create (seed + 99) in
    let submitted = ref 0 in
    while !submitted < queries do
      for _ = 1 to clients do
        if !submitted < queries && Prng.float rng 1.0 < duty then begin
          incr submitted;
          let req =
            match !fresh with
            | k :: rest when Prng.float rng 1.0 < insert_frac ->
              fresh := rest;
              Engine.Insert (k, payload k)
            | _ ->
              Engine.Lookup
                lookup_keys.(Prng.int rng (Array.length lookup_keys))
          in
          ignore (Engine.submit eng req)
        end
      done;
      Engine.idle_round eng
    done;
    Engine.drain eng;
    let outcomes = Engine.take_outcomes eng in
    let lookups, inserts =
      List.partition
        (fun o ->
          match o.Engine.request with Engine.Lookup _ -> true | _ -> false)
        outcomes
    in
    let verified =
      List.for_all
        (fun o ->
          match o.Engine.request with
          | Engine.Lookup k -> o.Engine.value = ad.Adapters.direct_find k
          | Engine.Insert (k, v) -> ad.Adapters.direct_find k = Some v
          | Engine.Delete k -> ad.Adapters.direct_find k = None)
        outcomes
    in
    let lats =
      List.map Engine.latency outcomes |> List.sort compare |> Array.of_list
    in
    let pct p =
      if Array.length lats = 0 then 0
      else lats.(min (Array.length lats - 1)
                    (p * Array.length lats / 100))
    in
    let s = Engine.stats eng in
    let f = Table.fcell and i = Table.icell in
    print_table
      (Table.make ~title:"serve: batched query engine"
         ~header:[ "metric"; "value" ]
         ~notes:
           [ Printf.sprintf
               "%d clients at duty %.2f, batch <= %d, deadline %d rounds%s"
               clients duty batch deadline
               (match kill with
                | Some d -> Printf.sprintf ", disk %d killed" d
                | None -> "") ]
         [ [ "dictionary"; ad.Adapters.engine_dict.Engine.name ];
           [ "requests served"; i s.Engine.requests_served ];
           [ "lookups / inserts";
             Printf.sprintf "%d / %d" (List.length lookups)
               (List.length inserts) ];
           [ "batches"; i s.Engine.batches ];
           [ "engine rounds"; i s.Engine.rounds ];
           [ "fetch rounds"; i s.Engine.fetch_rounds ];
           [ "insert rounds"; i s.Engine.insert_rounds ];
           [ "blocks fetched"; i s.Engine.blocks_fetched ];
           [ "coalesced fetches"; i s.Engine.coalesced ];
           [ "cache hits"; i s.Engine.cache_hits ];
           [ "mean utilization (of D)";
             Printf.sprintf "%s / %d" (f (Engine.mean_utilization eng))
               (Pdm_sim.Pdm.disks machine) ];
           [ "utilization >= 0.8D";
             (if Engine.mean_utilization eng
                 >= 0.8 *. float_of_int (Pdm_sim.Pdm.disks machine)
              then "yes" else "no") ];
           [ "latency mean"; f (if s.Engine.requests_served = 0 then 0.0
                                else float_of_int s.Engine.total_latency
                                     /. float_of_int s.Engine.requests_served) ];
           [ "latency p50"; i (pct 50) ];
           [ "latency p95"; i (pct 95) ];
           [ "latency max"; i s.Engine.max_latency ];
           [ "answers verified"; (if verified then "yes" else "NO") ] ]);
    `Ok ()

let serve_cmd =
  let doc = "serve a duty-cycled client workload through the query engine" in
  let dict_arg =
    Arg.(value & opt string "static"
         & info [ "dict" ] ~docv:"DICT"
             ~doc:"Dictionary: $(b,static), $(b,dynamic) or $(b,cascade).")
  in
  let n_arg' =
    Arg.(value & opt int 1024
         & info [ "n" ] ~docv:"N" ~doc:"Capacity in keys.")
  in
  let requests_arg =
    Arg.(value & opt int 512
         & info [ "q"; "requests" ] ~docv:"Q"
             ~doc:"Total requests the clients submit.")
  in
  let clients_arg =
    Arg.(value & opt int 8
         & info [ "clients" ] ~docv:"C" ~doc:"Concurrent simulated clients.")
  in
  let batch_arg =
    Arg.(value & opt int 64
         & info [ "batch" ] ~docv:"M" ~doc:"Close a batch at M requests.")
  in
  let deadline_arg =
    Arg.(value & opt int 4
         & info [ "deadline" ] ~docv:"R"
             ~doc:"Close a batch when its oldest request has waited R rounds.")
  in
  let duty_arg =
    Arg.(value & opt float 0.5
         & info [ "duty" ] ~docv:"F"
             ~doc:"Duty cycle: probability a client submits each round.")
  in
  let insert_arg =
    Arg.(value & opt float 0.0
         & info [ "insert-fraction" ] ~docv:"F"
             ~doc:"Fraction of requests that are inserts (dynamic dicts).")
  in
  let cache_arg =
    Arg.(value & opt int 0
         & info [ "cache" ] ~docv:"BLOCKS"
             ~doc:"LRU cache blocks in front of the machine (0 = none).")
  in
  let replicas_arg =
    Arg.(value & opt int 1
         & info [ "r"; "replicas" ] ~docv:"R" ~doc:"Replicas per block.")
  in
  let spares_arg =
    Arg.(value & opt int 0
         & info [ "spares" ] ~docv:"S" ~doc:"Hot-spare disks.")
  in
  let kill_arg =
    Arg.(value & opt (some int) None
         & info [ "kill" ] ~docv:"DISK"
             ~doc:"Kill this disk before serving (with --replicas 1 the \
                   structured failure, including the request id, is \
                   reported).")
  in
  let seed_arg' =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Seed.")
  in
  let backend_arg' =
    Arg.(value & opt string "mem"
         & info [ "backend" ] ~docv:"KIND" ~doc:backend_conv_doc)
  in
  Cmd.v
    (Cmd.info "serve" ~doc)
    Term.(
      ret
        (const (fun dict n q clients batch deadline duty ins cache r s kill
                    seed backend csv ->
             if csv then emit := Table.print_csv;
             match resolve_backend backend with
             | Error m -> `Error (false, m)
             | Ok factory ->
               run_serve dict n q clients batch deadline duty ins cache r s
                 kill seed factory)
        $ dict_arg $ n_arg' $ requests_arg $ clients_arg $ batch_arg
        $ deadline_arg $ duty_arg $ insert_arg $ cache_arg $ replicas_arg
        $ spares_arg $ kill_arg $ seed_arg' $ backend_arg' $ csv_arg))

(* --- sim: deterministic simulation testing — differential model
   checking, systematic crash-schedule exploration, shrinking, and
   bit-identical repro replay. --- *)

module Sim_config = Pdm_simtest.Sim_config
module Sim_gen = Pdm_simtest.Sim_gen
module Sim_schedule = Pdm_simtest.Sim_schedule
module Sim_run = Pdm_simtest.Sim_run
module Sim_shrink = Pdm_simtest.Sim_shrink
module Sim_explore = Pdm_simtest.Sim_explore
module Sim_repro = Pdm_simtest.Sim_repro

let sim_sanitize () =
  match Sys.getenv_opt "PDM_SANITIZE" with
  | Some ("1" | "true" | "yes") -> Pdm_sim.Pdm.set_sanitize true
  | _ -> ()

let sim_config ~sut ~engine ~cache ~journal ~replicas ~spares ~integrity
    ~buggy ~transient ~straggle ~n ~seed ~block_words ~shards ~migrate_at
    ~net ~net_drop ~net_dup ~net_reorder ~net_hedge ~backend =
  match Sim_config.sut_of_string sut with
  | None ->
    Error
      (Printf.sprintf
         "unknown sut %S (expected basic, static, dynamic, cascade or \
          cluster)" sut)
  | Some s ->
    let base = Sim_config.default s in
    let shards =
      if s = Sim_config.Cluster && shards > 0 then shards
      else base.Sim_config.shards
    in
    let cfg =
      { base with
        Sim_config.engine; cache_blocks = cache; journaled = journal;
        replicas; spares; integrity; buggy; transient; straggle;
        capacity = n; universe = max base.Sim_config.universe (8 * n); seed;
        block_words; shards; migrate_at; net; net_drop; net_dup; net_reorder;
        net_hedge; backend }
    in
    (match Sim_config.validate cfg with
     | Ok () -> Ok cfg
     | Error m -> Error m)

let print_divergences ds =
  List.iter
    (fun (d : Sim_run.divergence) ->
      Printf.printf "  divergence at op %d [%s]: %s\n" d.Sim_run.at
        d.Sim_run.kind d.Sim_run.detail)
    ds

let run_sim_run cfg ops dist repro =
  sim_sanitize ();
  match Sim_gen.dist_of_string dist with
  | None -> `Error (false, "unknown --dist (uniform, zipf[:S], adversarial)")
  | Some dist ->
    let spec = Sim_config.gen_spec ~count:ops ~dist cfg in
    let op_arr = Sim_gen.ops spec in
    let r = Sim_run.run cfg [] (Array.to_seq op_arr) in
    Printf.printf "config:  %s\nops run: %d\n" (Sim_config.describe cfg)
      r.Sim_run.ops_run;
    (match repro with
     | Some path ->
       Sim_repro.write ~path r ~ops:op_arr;
       Printf.printf "repro:   written to %s\n" path
     | None -> ());
    if Sim_run.ok r then begin
      Printf.printf "result:  PASS (0 divergences)\n";
      `Ok ()
    end
    else begin
      Printf.printf "result:  FAIL (%d divergences)\n"
        (List.length r.Sim_run.divergences);
      print_divergences r.Sim_run.divergences;
      `Error (false, "differential run diverged from the model")
    end

let run_sim_explore cfg ops dist budget repro_path =
  sim_sanitize ();
  match Sim_gen.dist_of_string dist with
  | None -> `Error (false, "unknown --dist (uniform, zipf[:S], adversarial)")
  | Some dist ->
    let o = Sim_explore.explore ~budget ~count:ops ~dist cfg in
    Printf.printf "config:         %s\n" (Sim_config.describe cfg);
    Printf.printf "ops:            %d (%s, seed %d)\n"
      (Array.length o.Sim_explore.ops)
      (Sim_gen.dist_to_string dist) cfg.Sim_config.seed;
    Printf.printf "schedule space: %d distinct\n" o.Sim_explore.total_space;
    Printf.printf "explored:       %d (%s)\n" o.Sim_explore.explored
      (if o.Sim_explore.explored = o.Sim_explore.total_space then
         "exhaustive"
       else "seeded sample");
    Printf.printf "clean:          %d\n" o.Sim_explore.clean;
    Printf.printf "divergent:      %d\n"
      (o.Sim_explore.explored - o.Sim_explore.clean);
    (match o.Sim_explore.divergent with
     | [] -> `Ok ()
     | worst :: _ ->
       Printf.printf "first failing schedule: %s\n"
         (Sim_schedule.describe worst.Sim_run.schedule);
       print_divergences worst.Sim_run.divergences;
       (match o.Sim_explore.shrunk with
        | Some s ->
          Printf.printf
            "shrunk to %d ops + %d schedule events in %d runs\n"
            (Array.length s.Sim_shrink.ops)
            (List.length s.Sim_shrink.schedule)
            s.Sim_shrink.runs_used;
          Sim_repro.write ~path:repro_path s.Sim_shrink.report
            ~ops:s.Sim_shrink.ops;
          Printf.printf "repro written to %s\n" repro_path
        | None -> ());
       `Error (false, "exploration found model divergences"))

let run_sim_replay paths =
  sim_sanitize ();
  let failures = ref 0 in
  List.iter
    (fun path ->
      match Sim_repro.replay ~path with
      | Error m ->
        incr failures;
        Printf.printf "%s: ERROR (%s)\n" path m
      | Ok (header, report, bit_identical) ->
        let pass =
          if header.Sim_repro.expected = [] then Sim_run.ok report
          else bit_identical
        in
        if pass then
          Printf.printf "%s: PASS (%s, %d ops, %d divergences, %s)\n" path
            (Sim_config.describe header.Sim_repro.config)
            header.Sim_repro.op_count
            (List.length report.Sim_run.divergences)
            (if header.Sim_repro.expected = [] then "expected clean"
             else "bit-identical replay")
        else begin
          incr failures;
          Printf.printf "%s: FAIL (%s)\n" path
            (if header.Sim_repro.expected = [] then
               "expected a clean run, got divergences"
             else "replay did not reproduce the recorded divergences");
          print_divergences report.Sim_run.divergences
        end)
    paths;
  if !failures = 0 then `Ok ()
  else `Error (false, Printf.sprintf "%d repro file(s) failed" !failures)

let sim_cmd =
  let sut_arg =
    Arg.(value & opt string "cascade"
         & info [ "sut" ] ~docv:"DICT"
             ~doc:"System under test: basic, static, dynamic, cascade or \
                   cluster.")
  in
  let shards_arg' =
    Arg.(value & opt int 0
         & info [ "shards" ] ~docv:"S"
             ~doc:"Cluster shard count (sut cluster only; 0 = its default).")
  in
  let migrate_arg =
    Arg.(value & opt int (-1)
         & info [ "migrate-at" ] ~docv:"OP"
             ~doc:"Add a shard after OP stream ops (sut cluster only; -1 = \
                   never).")
  in
  let engine_arg =
    Arg.(value & flag
         & info [ "engine" ]
             ~doc:"Drive lookups through the batched query engine.")
  in
  let cache_arg' =
    Arg.(value & opt int 0
         & info [ "cache" ] ~docv:"BLOCKS"
             ~doc:"Engine LRU cache blocks (implies --engine).")
  in
  let journal_arg =
    Arg.(value & flag
         & info [ "journal" ]
             ~doc:"Write-ahead journal (dynamic/cascade, direct mode).")
  in
  let replicas_arg' =
    Arg.(value & opt int 1
         & info [ "r"; "replicas" ] ~docv:"R" ~doc:"Replicas per block.")
  in
  let spares_arg' =
    Arg.(value & opt int 0
         & info [ "spares" ] ~docv:"S" ~doc:"Hot-spare disks.")
  in
  let integrity_arg =
    Arg.(value & flag
         & info [ "integrity" ] ~doc:"Checksum envelope (basic only).")
  in
  let buggy_arg =
    Arg.(value & flag
         & info [ "buggy" ]
             ~doc:"Use the deliberately buggy adapter (drops journal \
                   commit records, or idempotency tokens under --net) — \
                   the explorer must catch it.")
  in
  let transient_arg =
    Arg.(value & opt float 0.0
         & info [ "transient" ] ~docv:"P"
             ~doc:"Transient read-fault probability (basic only).")
  in
  let straggle_arg =
    Arg.(value & opt int 1
         & info [ "straggle" ] ~docv:"K"
             ~doc:"Straggle factor on one disk (basic only).")
  in
  let n_arg' =
    Arg.(value & opt int 96
         & info [ "n" ] ~docv:"N" ~doc:"Dictionary capacity.")
  in
  let block_words_arg =
    Arg.(value & opt int 32
         & info [ "block-words" ] ~docv:"B" ~doc:"Words per block.")
  in
  let seed_arg' =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Seed.")
  in
  let ops_arg =
    Arg.(value & opt int 128
         & info [ "ops" ] ~docv:"COUNT" ~doc:"Ops to generate.")
  in
  let net_arg =
    Arg.(value & flag
         & info [ "net" ]
             ~doc:"Route router-shard exchanges through the deterministic \
                   message transport (sut cluster, replicas >= 2). \
                   Schedules may then pin message drops, duplicates and \
                   partitions.")
  in
  let net_drop_arg =
    Arg.(value & opt float 0.05
         & info [ "net-drop" ] ~docv:"P"
             ~doc:"Per-message loss probability under --net.")
  in
  let net_dup_arg =
    Arg.(value & opt float 0.05
         & info [ "net-dup" ] ~docv:"P"
             ~doc:"Per-delivered-write duplication probability under --net.")
  in
  let net_reorder_arg =
    Arg.(value & opt int 3
         & info [ "net-reorder" ] ~docv:"W"
             ~doc:"Duplicate redelivery window bound under --net.")
  in
  let no_hedge_arg =
    Arg.(value & flag
         & info [ "no-hedge" ]
             ~doc:"Disable hedged reads under --net: burn the whole retry \
                   budget on each replica before failing over.")
  in
  let dist_arg =
    Arg.(value & opt string "uniform"
         & info [ "dist" ] ~docv:"DIST"
             ~doc:"Key distribution: uniform, zipf[:S] or adversarial.")
  in
  let backend_arg'' =
    Arg.(value & opt string "mem"
         & info [ "backend" ] ~docv:"KIND" ~doc:backend_conv_doc)
  in
  let with_config k =
    Term.(
      const
        (fun sut engine cache journal replicas spares integrity buggy
             transient straggle n block_words seed shards migrate_at net
             net_drop net_dup net_reorder no_hedge backend ->
          let engine = engine || cache > 0 in
          match
            sim_config ~sut ~engine ~cache ~journal ~replicas ~spares
              ~integrity ~buggy ~transient ~straggle ~n ~seed ~block_words
              ~shards ~migrate_at ~net ~net_drop ~net_dup ~net_reorder
              ~net_hedge:(not no_hedge) ~backend
          with
          | Error m -> `Error (false, m)
          | Ok cfg -> k cfg)
      $ sut_arg $ engine_arg $ cache_arg' $ journal_arg $ replicas_arg'
      $ spares_arg' $ integrity_arg $ buggy_arg $ transient_arg
      $ straggle_arg $ n_arg' $ block_words_arg $ seed_arg' $ shards_arg'
      $ migrate_arg $ net_arg $ net_drop_arg $ net_dup_arg $ net_reorder_arg
      $ no_hedge_arg $ backend_arg'')
  in
  let run_cmd' =
    let doc = "one differential run (no injected faults) against the model" in
    let repro_out_arg =
      Arg.(value & opt (some string) None
           & info [ "repro" ] ~docv:"PATH"
               ~doc:"Also record the run as a repro file (clean runs \
                     included — useful for regression corpora).")
    in
    Cmd.v (Cmd.info "run" ~doc)
      Term.(
        ret
          (const (fun cfg_r ops dist repro ->
               match cfg_r with
               | `Error _ as e -> e
               | `Ok cfg -> run_sim_run cfg ops dist repro)
          $ with_config (fun cfg -> `Ok cfg)
          $ ops_arg $ dist_arg $ repro_out_arg))
  in
  let explore_cmd =
    let doc =
      "systematically explore crash/fault schedules against the model, \
       shrinking and writing a repro on divergence"
    in
    let budget_arg =
      Arg.(value & opt int 600
           & info [ "budget" ] ~docv:"K"
               ~doc:"Schedules to run (exhaustive when the space fits).")
    in
    let repro_arg =
      Arg.(value & opt string "sim-repro.jsonl"
           & info [ "repro" ] ~docv:"PATH"
               ~doc:"Where to write the shrunk repro on divergence.")
    in
    Cmd.v (Cmd.info "explore" ~doc)
      Term.(
        ret
          (const (fun cfg_r ops dist budget repro ->
               match cfg_r with
               | `Error _ as e -> e
               | `Ok cfg -> run_sim_explore cfg ops dist budget repro)
          $ with_config (fun cfg -> `Ok cfg)
          $ ops_arg $ dist_arg $ budget_arg $ repro_arg))
  in
  let replay_cmd =
    let doc = "re-execute repro files and verify them bit for bit" in
    let paths_arg =
      Arg.(non_empty & pos_all file []
           & info [] ~docv:"REPRO" ~doc:"Repro files (JSONL).")
    in
    Cmd.v (Cmd.info "replay" ~doc)
      Term.(ret (const run_sim_replay $ paths_arg))
  in
  let doc =
    "deterministic simulation testing: differential model checking, \
     crash-schedule exploration, repro replay"
  in
  Cmd.group (Cmd.info "sim" ~doc) [ run_cmd'; explore_cmd; replay_cmd ]

(* --- bench-check: guard the checked-in microbenchmark baselines ---

   Compares a fresh `bench --json` dump against a checked-in baseline
   (BENCH_core.json / BENCH_cluster.json). The deterministic columns —
   parallel I/Os and rounds — must match within the (default exact)
   tolerance on every backend. The ns column is wall clock: by default
   it is informational only (the worst drift is printed), because CI
   machines are too noisy to gate on; --ns-tolerance opts into gating
   it, for environments with stable hardware. *)
let bench_check_cmd =
  let module J = Pdm_simtest.Sim_json in
  let read_rows path =
    let parsed =
      let ic = open_in_bin path in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      J.of_string s
    in
    match parsed with
    | Error m -> Error (Printf.sprintf "%s: %s" path m)
    | Ok v ->
      (match J.get_list v with
       | None -> Error (Printf.sprintf "%s: expected a top-level array" path)
       | Some items ->
         let row item =
           let ns =
             match Option.bind (J.member "ns" item) J.get_float with
             | Some ns -> Some ns
             | None ->
               Option.map float_of_int
                 (Option.bind (J.member "ns" item) J.get_int)
           in
           match
             ( Option.bind (J.member "name" item) J.get_string,
               Option.bind (J.member "ios" item) J.get_int,
               Option.bind (J.member "rounds" item) J.get_int )
           with
           | Some n, Some i, Some r ->
             Ok (n, (i, r, Option.value ns ~default:0.0))
           | _ -> Error (Printf.sprintf "%s: malformed benchmark entry" path)
         in
         List.fold_left
           (fun acc item ->
             match (acc, row item) with
             | Ok rows, Ok r -> Ok (r :: rows)
             | (Error _ as e), _ | _, (Error _ as e) -> e)
           (Ok []) items
         |> Result.map List.rev)
  in
  let check baseline candidate tolerance ns_tolerance =
    match (read_rows baseline, read_rows candidate) with
    | Error m, _ | _, Error m -> `Error (false, m)
    | Ok base, Ok cand ->
      let problems = ref [] in
      let complain fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
      let within b c =
        float_of_int (abs (c - b)) <= tolerance *. float_of_int (abs b)
      in
      (* worst fractional ns drift across comparable rows, for the
         informational summary *)
      let worst_ns = ref 0.0 and worst_ns_name = ref "" in
      List.iter
        (fun (name, (bi, br, bns)) ->
          match List.assoc_opt name cand with
          | None -> complain "%s: missing from %s" name candidate
          | Some (ci, cr, cns) ->
            if not (within bi ci) then
              complain "%s: ios %d, baseline %d" name ci bi;
            if not (within br cr) then
              complain "%s: rounds %d, baseline %d" name cr br;
            if bns > 0.0 && cns > 0.0 then begin
              let drift = Float.abs (cns -. bns) /. bns in
              if drift > !worst_ns then begin
                worst_ns := drift;
                worst_ns_name := name
              end;
              match ns_tolerance with
              | Some t when drift > t ->
                complain "%s: ns %.0f, baseline %.0f (%.0f%% > %.0f%%)" name
                  cns bns (100. *. drift) (100. *. t)
              | _ -> ()
            end)
        base;
      List.iter
        (fun (name, _) ->
          if not (List.mem_assoc name base) then
            complain "%s: not in baseline %s" name baseline)
        cand;
      (match List.rev !problems with
       | [] ->
         Printf.printf
           "bench-check: OK (%d benchmarks, ios/rounds within %g%% of %s)\n"
           (List.length base) (100. *. tolerance) baseline;
         if !worst_ns_name <> "" then
           Printf.printf
             "bench-check: worst ns drift %.0f%% (%s)%s\n"
             (100. *. !worst_ns) !worst_ns_name
             (match ns_tolerance with
              | Some t -> Printf.sprintf ", within --ns-tolerance %g" t
              | None -> ", informational (no --ns-tolerance)");
         `Ok ()
       | ps ->
         `Error
           ( false,
             Printf.sprintf "bench-check: %d deviation(s) from %s:\n  %s"
               (List.length ps) baseline (String.concat "\n  " ps) ))
  in
  let doc =
    "compare a fresh bench --json dump against a checked-in baseline \
     (deterministic ios/rounds columns exactly; wall-clock ns is \
     informational unless --ns-tolerance is given)"
  in
  let baseline_arg =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"BASELINE" ~doc:"Checked-in baseline JSON.")
  in
  let candidate_arg =
    Arg.(required & pos 1 (some file) None
         & info [] ~docv:"CANDIDATE" ~doc:"Fresh bench --json output.")
  in
  let tolerance_arg =
    Arg.(value & opt float 0.0
         & info [ "tolerance" ] ~docv:"FRAC"
             ~doc:"Allowed fractional drift per ios/rounds counter \
                   (default exact).")
  in
  let ns_tolerance_arg =
    Arg.(value & opt (some float) None
         & info [ "ns-tolerance" ] ~docv:"FRAC"
             ~doc:"Also gate the wall-clock ns column, allowing this \
                   fractional drift. Without it ns is reported but \
                   never fails the check.")
  in
  Cmd.v (Cmd.info "bench-check" ~doc)
    Term.(
      ret
        (const check $ baseline_arg $ candidate_arg $ tolerance_arg
         $ ns_tolerance_arg))

let main =
  let doc =
    "deterministic dictionaries in the parallel disk model — experiment \
     driver"
  in
  Cmd.group
    (Cmd.info "pdm_dict_cli" ~version:"1.0.0" ~doc)
    [ run_cmd; list_cmd; plan_cmd; trace_cmd; scrub_cmd; serve_cmd; sim_cmd;
      bench_check_cmd ]

let () = exit (Cmd.eval main)
