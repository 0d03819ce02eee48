(* Tests for the real-I/O storage subsystem (lib/io): the zero-copy
   block codec, the file and mmap backends behind real machines, the
   mem<->file<->mmap differential (byte-identical answers, identical
   round/IO charges), journal crash durability across a process
   "restart" (a fresh machine over the same directory), the scratch
   directory cleanup guard, and backend resolution by name. *)

module Pdm = Pdm_sim.Pdm
module Journal = Pdm_sim.Journal
module Stats = Pdm_sim.Stats
module Codec = Pdm_io.Block_codec
module Raw = Pdm_io.Raw_file
module Backend = Pdm_sim.Backend
module Store = Pdm_io.Store
module Config = Pdm_simtest.Sim_config
module Gen = Pdm_simtest.Sim_gen
module Run = Pdm_simtest.Sim_run
module Schedule = Pdm_simtest.Sim_schedule
module Sut = Pdm_simtest.Sim_sut
module W = Pdm_workload.Trace

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

(* --- block codec -------------------------------------------------- *)

let test_codec_roundtrip () =
  let slots = 7 in
  let bpb = Codec.bytes_per_block ~slots in
  check "sector-padded" 0 (bpb mod Codec.sector);
  checkb "covers the raw image" true (bpb >= 16 + 1 + (8 * slots));
  let buf = Codec.alloc (2 * bpb) in
  let payload =
    [| Some 0; None; Some (-1); Some max_int; Some min_int; Some 42; None |]
  in
  (* write at a non-zero offset to prove offsets are honored *)
  Codec.encode buf ~off:bpb ~slots (Some payload);
  checkb "written" true (Codec.written buf ~off:bpb);
  checkb "block 0 untouched" false (Codec.written buf ~off:0);
  (match Codec.decode buf ~off:bpb ~slots with
   | Some got -> checkb "payload roundtrips" true (got = payload)
   | None -> Alcotest.fail "decode lost the block");
  Codec.encode buf ~off:bpb ~slots None;
  checkb "erased" true (Codec.decode buf ~off:bpb ~slots = None)

let test_codec_absent_is_zeros () =
  let slots = 3 in
  let buf = Codec.alloc (Codec.bytes_per_block ~slots) in
  (* a freshly preallocated file reads as zeros: must mean absent *)
  checkb "all-zero image decodes as absent" true
    (Codec.decode buf ~off:0 ~slots = None)

let test_codec_geometry_mismatch () =
  let buf = Codec.alloc (Codec.bytes_per_block ~slots:8) in
  Codec.encode buf ~off:0 ~slots:8 (Some (Array.make 8 (Some 5)));
  (match Codec.decode buf ~off:0 ~slots:4 with
   | exception Failure _ -> ()
   | _ -> Alcotest.fail "slot-count mismatch must not decode")

(* --- codec equivalence with the byte-at-a-time reference ------------ *)

(* The codec as it was before its words became typed 8-byte loads and
   stores: every byte through its own Bigarray access, bit 63 never
   written (the top byte takes [v lsr 56], seven bits) and dropped on
   read ([lsl 56] of the top byte overflows out of the int). *)
module Ref_codec = struct
  let magic = 0x00314b4c424d4450
  let header_bytes = 16
  let bitmap_bytes ~slots = (slots + 7) / 8

  let get_word buf off =
    let b i = Char.code (Bigarray.Array1.get buf (off + i)) in
    b 0
    lor (b 1 lsl 8)
    lor (b 2 lsl 16)
    lor (b 3 lsl 24)
    lor (b 4 lsl 32)
    lor (b 5 lsl 40)
    lor (b 6 lsl 48)
    lor (b 7 lsl 56)

  let set_word buf off v =
    for i = 0 to 7 do
      Bigarray.Array1.set buf (off + i)
        (Char.unsafe_chr ((v lsr (8 * i)) land 0xff))
    done

  let written buf ~off = get_word buf off = magic

  let erase buf ~off ~slots =
    Bigarray.Array1.fill
      (Bigarray.Array1.sub buf off (Codec.bytes_per_block ~slots))
      '\000'

  let encode buf ~off ~slots payload =
    match payload with
    | None -> erase buf ~off ~slots
    | Some cells ->
      set_word buf off magic;
      set_word buf (off + 8) slots;
      let bmp = off + header_bytes in
      let data = bmp + bitmap_bytes ~slots in
      Bigarray.Array1.fill
        (Bigarray.Array1.sub buf bmp (bitmap_bytes ~slots))
        '\000';
      for i = 0 to slots - 1 do
        match cells.(i) with
        | None -> set_word buf (data + (8 * i)) 0
        | Some v ->
          let bi = bmp + (i lsr 3) in
          let bits = Char.code (Bigarray.Array1.get buf bi) in
          Bigarray.Array1.set buf bi
            (Char.unsafe_chr (bits lor (1 lsl (i land 7))));
          set_word buf (data + (8 * i)) v
      done

  let decode buf ~off ~slots =
    if not (written buf ~off) then None
    else begin
      let bmp = off + header_bytes in
      let data = bmp + bitmap_bytes ~slots in
      let cells = Array.make slots None in
      for i = 0 to slots - 1 do
        let bits = Char.code (Bigarray.Array1.get buf (bmp + (i lsr 3))) in
        if bits land (1 lsl (i land 7)) <> 0 then
          cells.(i) <- Some (get_word buf (data + (8 * i)))
      done;
      Some cells
    end
end

(* Slot counts 1-130 (bitmaps that are not whole words, images over
   several sectors), the image at a non-zero block, cells drawn from
   the edge values and random 63-bit ints, and a buffer that starts
   out as the same garbage for both encoders. *)
let prop_codec_matches_reference =
  let cell =
    QCheck.Gen.(
      frequency
        [ (2, return None); (1, return (Some 0)); (1, return (Some (-1)));
          (1, return (Some min_int)); (1, return (Some max_int));
          (4, map Option.some int) ])
  in
  QCheck.Test.make ~name:"Block_codec = byte-at-a-time reference"
    ~count:1000
    QCheck.(
      make
        ~print:(fun (slots, blk, fill, payload) ->
          Printf.sprintf "slots %d block %d fill %d payload %s" slots blk fill
            (match payload with
             | None -> "erased"
             | Some cells ->
               String.concat ";"
                 (Array.to_list
                    (Array.map
                       (function None -> "-" | Some v -> string_of_int v)
                       cells))))
        Gen.(
          let* slots = int_range 1 130 in
          let* blk = int_range 1 3 in
          let* fill = int_bound 255 in
          let* payload =
            frequency
              [ (1, return None);
                (9, map Option.some (array_size (return slots) cell)) ]
          in
          return (slots, blk, fill, payload)))
    (fun (slots, blk, fill, payload) ->
      let bpb = Codec.bytes_per_block ~slots in
      let off = blk * bpb in
      let garbage () =
        let buf = Codec.alloc ((blk + 2) * bpb) in
        for i = 0 to Bigarray.Array1.dim buf - 1 do
          Bigarray.Array1.set buf i (Char.unsafe_chr ((fill + (i * 131)) land 0xff))
        done;
        buf
      in
      let mine = garbage () and theirs = garbage () in
      Codec.encode mine ~off ~slots payload;
      Ref_codec.encode theirs ~off ~slots payload;
      let same_bytes = ref true in
      for i = 0 to Bigarray.Array1.dim mine - 1 do
        if Bigarray.Array1.get mine i <> Bigarray.Array1.get theirs i then
          same_bytes := false
      done;
      !same_bytes
      && Codec.decode theirs ~off ~slots = payload
      && Ref_codec.decode mine ~off ~slots = payload
      && Codec.written mine ~off = Ref_codec.written theirs ~off)

(* --- raw file + O_DIRECT fallback --------------------------------- *)

let test_raw_file_direct_fallback () =
  Store.with_dir (fun dir ->
      let path = Filename.concat dir "probe.pdm" in
      let f = Raw.openfile ~path ~size:4096 ~direct:true () in
      (* O_DIRECT engages where the filesystem supports it and falls
         back silently elsewhere: either way the file must work *)
      let buf = Codec.aligned 512 in
      for i = 0 to 511 do
        Bigarray.Array1.set buf i (Char.chr ((i * 7) land 0xff))
      done;
      Raw.pwrite f buf ~pos:0 ~len:512 ~off:1024;
      Raw.fsync f;
      let back = Codec.aligned 512 in
      Raw.pread f back ~pos:0 ~len:512 ~off:1024;
      checkb "roundtrip through the raw file" true
        (let ok = ref true in
         for i = 0 to 511 do
           if Bigarray.Array1.get back i <> Bigarray.Array1.get buf i then
             ok := false
         done;
         !ok);
      (* unwritten preallocated bytes read as zeros *)
      Raw.pread f back ~pos:0 ~len:512 ~off:0;
      checkb "preallocated region reads zero" true
        (let ok = ref true in
         for i = 0 to 511 do
           if Bigarray.Array1.get back i <> '\000' then ok := false
         done;
         !ok);
      Raw.close f)

(* A disk file is never shrunk: reopening it at a smaller geometry
   used to truncate it silently, and the blocks past the new end were
   gone when it was reopened at the old size. *)
let test_reopen_smaller_refuses () =
  Store.with_dir (fun dir ->
      let slots = 4 in
      let bpb = Codec.bytes_per_block ~slots in
      let blk = [| Some 1; None; Some (-3); Some max_int |] in
      let file = Pdm_io.File_backend.file_name ~disk:0 in
      let open_disk kind ~blocks =
        match Store.factory (Store.spec ~dir kind) ~blocks ~slots with
        | Some make -> make 0
        | None -> Alcotest.fail "no disk for a real-I/O kind"
      in
      let contains msg part =
        let n = String.length part in
        let rec at i =
          i + n <= String.length msg && (String.sub msg i n = part || at (i + 1))
        in
        at 0
      in
      List.iter
        (fun kind ->
          let name = Store.kind_to_string kind in
          let d = open_disk kind ~blocks:100 in
          d.Backend.write 90 blk;
          d.Backend.barrier ();
          (match open_disk kind ~blocks:50 with
           | exception Failure msg ->
             List.iter
               (fun part ->
                 checkb (name ^ ": the error names " ^ part) true
                   (contains msg part))
               [ file; string_of_int (100 * bpb);
                 string_of_int (50 * bpb) ]
           | _ -> Alcotest.failf "%s: reopening at 50 blocks must fail" name);
          let d = open_disk kind ~blocks:100 in
          checkb (name ^ ": block 90 still exists") true (d.Backend.exists 90);
          checkb (name ^ ": block 90 reads back") true
            (d.Backend.peek 90 = Some blk);
          Sys.remove (Filename.concat dir file))
        [ Store.File; Store.Mmap ];
      (* only a file that held nothing is fresh; growing one keeps its
         blocks and scans them *)
      let path = Filename.concat dir "probe.pdm" in
      let f = Raw.openfile ~path ~size:0 () in
      checkb "a new file is fresh" true (Raw.fresh f);
      Raw.close f;
      let f = Raw.openfile ~path ~size:bpb () in
      checkb "an empty file is fresh" true (Raw.fresh f);
      Raw.close f;
      let f = Raw.openfile ~path ~size:(2 * bpb) () in
      checkb "a non-empty file is not fresh" false (Raw.fresh f);
      check "it grew to the requested size" (2 * bpb) (Raw.size f);
      Raw.close f)

(* --- machines over real backends ---------------------------------- *)

let machine_of ~dir kind =
  Pdm.create
    ~factory:(Store.factory (Store.spec ~dir kind))
    ~disks:4 ~block_size:6 ~blocks_per_disk:5 ()

let test_file_machine_basic_ops () =
  Store.with_dir (fun dir ->
      let m = machine_of ~dir Store.File in
      let a = { Pdm.disk = 1; block = 2 } in
      let blk = [| Some 7; None; Some (-9); Some 0; None; Some 123 |] in
      Pdm.write_one m a blk;
      checkb "read back" true (Pdm.read_one m a = blk);
      checkb "unwritten reads empty" true
        (Pdm.read_one m { Pdm.disk = 0; block = 0 } = Array.make 6 None);
      check "one block allocated" 1 (Pdm.allocated_blocks m);
      checkb "peek sees it too" true (Pdm.peek m a = blk);
      let s = Stats.snapshot (Pdm.stats m) in
      check "two read rounds charged" 2 s.Stats.parallel_reads;
      check "one write round charged" 1 s.Stats.parallel_writes;
      Pdm.barrier m)

let test_file_machine_reopen () =
  Store.with_dir (fun dir ->
      let a = { Pdm.disk = 0; block = 1 } in
      let b = { Pdm.disk = 3; block = 4 } in
      let blk_a = [| Some 1; Some 2; Some 3; None; None; Some 6 |] in
      let blk_b = [| None; None; None; None; None; Some (-1) |] in
      (let m = machine_of ~dir Store.File in
       Pdm.write m [ (a, blk_a); (b, blk_b) ];
       Pdm.barrier m);
      (* a "new process": a fresh machine over the same directory *)
      let m2 = machine_of ~dir Store.File in
      checkb "block a survives reopen" true (Pdm.read_one m2 a = blk_a);
      checkb "block b survives reopen" true (Pdm.read_one m2 b = blk_b);
      checkb "unwritten block still absent" true
        (Pdm.peek m2 { Pdm.disk = 2; block = 0 } = Array.make 6 None))

let test_mmap_machine_ops_and_reopen () =
  Store.with_dir (fun dir ->
      let a = { Pdm.disk = 2; block = 0 } in
      let blk = [| Some 11; Some 22; None; Some 44; None; Some 66 |] in
      (let m = machine_of ~dir Store.Mmap in
       Pdm.write_one m a blk;
       checkb "mmap read back" true (Pdm.read_one m a = blk);
       Pdm.barrier m);
      let m2 = machine_of ~dir Store.Mmap in
      checkb "mmap block survives reopen" true (Pdm.read_one m2 a = blk);
      (* the two real backends share one on-disk format *)
      let m3 = machine_of ~dir Store.File in
      checkb "file backend reads what mmap wrote" true
        (Pdm.read_one m3 a = blk))

(* --- mem <-> file <-> mmap differential --------------------------- *)

(* Drive one op stream through a configured sut; answers as strings so
   divergences print. *)
let run_ops sut ops =
  Array.to_list ops
  |> List.map (fun op ->
         match op with
         | W.Lookup k -> (
           match sut.Sut.find k with
           | None -> "miss"
           | Some v -> "hit:" ^ Bytes.to_string v)
         | W.Insert (k, v) -> (
           match sut.Sut.insert with
           | Some ins ->
             ins k v;
             "ins"
           | None -> "noins")
         | W.Delete k -> (
           match sut.Sut.delete with
           | Some del -> if del k then "del:y" else "del:n"
           | None -> "nodel"))

let differential_case base_cfg =
  let spec = Config.gen_spec ~count:160 base_cfg in
  let ops = Gen.ops spec in
  let data = Gen.initial_data spec in
  let outcomes =
    List.map
      (fun backend ->
        let cfg = { base_cfg with Config.backend } in
        let sut = Sut.build cfg ~data in
        let answers = run_ops sut ops in
        let stats = Stats.snapshot (Pdm.stats sut.Sut.machine) in
        (backend, answers, stats))
      [ "mem"; "file"; "mmap" ]
  in
  match outcomes with
  | (_, mem_answers, mem_stats) :: rest ->
    List.iter
      (fun (backend, answers, stats) ->
        checkb
          (Printf.sprintf "%s answers byte-identical to mem" backend)
          true
          (answers = mem_answers);
        checkb
          (Printf.sprintf "%s charge ledger identical to mem" backend)
          true
          (stats = mem_stats))
      rest
  | [] -> Alcotest.fail "no outcomes"

let test_differential_basic () =
  differential_case (Config.default Config.Basic)

let test_differential_dynamic_journal () =
  differential_case
    { (Config.default Config.One_probe_dynamic) with Config.journaled = true }

let test_differential_cascade_journal () =
  differential_case
    { (Config.default Config.Dynamic_cascade) with Config.journaled = true }

let test_differential_static_engine () =
  differential_case
    { (Config.default Config.One_probe_static) with Config.engine = true }

(* The full model-checked differential runner on real backends,
   including a journal crash/recover schedule: every lookup answer,
   crash-visibility outcome and post-recovery sweep is checked against
   the pure model. *)
let run_model_checked cfg schedule =
  let ops = Gen.ops (Config.gen_spec ~count:120 cfg) in
  let report = Run.run cfg schedule (Array.to_seq ops) in
  checkb
    (Printf.sprintf "model-checked run clean on %s" (Config.describe cfg))
    true (Run.ok report);
  report

let test_model_checked_file_backends () =
  List.iter
    (fun backend ->
      ignore
        (run_model_checked
           { (Config.default Config.Basic) with Config.backend } []))
    [ "file"; "mmap" ]

let test_model_checked_crash_schedule () =
  let cfg =
    { (Config.default Config.One_probe_dynamic) with
      Config.journaled = true; backend = "file" }
  in
  (* crashes only fire on journaled updates: pin them to ops the
     generated stream actually mutates on *)
  let ops = Gen.ops (Config.gen_spec ~count:120 cfg) in
  let mutating =
    List.filter
      (fun i ->
        match ops.(i) with W.Insert _ | W.Delete _ -> true | W.Lookup _ -> false)
      (List.init (Array.length ops) Fun.id)
  in
  let pin n = List.nth_opt mutating n |> Option.value ~default:0 in
  let schedule =
    [ Schedule.Crash { at = pin 5; point = Journal.After_log };
      Schedule.Crash { at = pin 25; point = Journal.After_commit } ]
  in
  let report = Run.run cfg schedule (Array.to_seq ops) in
  checkb
    (Printf.sprintf "crash-schedule run clean on %s" (Config.describe cfg))
    true (Run.ok report);
  checkb "both crashes fired" true (report.Run.crashes >= 2);
  checkb "recoveries ran" true (report.Run.recoveries >= 2)

(* --- journal crash durability across a restart -------------------- *)

(* A machine with a journal region carved out at the top, on files. *)
let journaled_machine ~dir () =
  let disks = 4 and data_rows = 4 and jcap = 8 in
  let rows = Journal.rows ~disks ~capacity_blocks:jcap in
  let m =
    Pdm.create
      ~factory:(Store.factory (Store.spec ~dir Store.File))
      ~disks ~block_size:8 ~blocks_per_disk:(data_rows + rows) ()
  in
  (m, data_rows, jcap)

let batch =
  [ ({ Pdm.disk = 0; block = 0 }, Array.make 8 (Some 5));
    ({ Pdm.disk = 2; block = 1 }, Array.init 8 (fun i -> Some (i * i))) ]

let crash_then_restart point =
  Store.with_dir (fun dir ->
      (let m, data_rows, jcap = journaled_machine ~dir () in
       let j = Journal.create m ~block_offset:data_rows ~capacity_blocks:jcap in
       match Journal.log_and_apply j ~crash:point batch with
       | () -> Alcotest.fail "armed crash did not fire"
       | exception Journal.Crashed -> ());
      (* the "restart": everything in memory is gone, a fresh machine
         reopens the same files and recovery reads what is durable *)
      let m2, data_rows, jcap = journaled_machine ~dir () in
      let verdict =
        Journal.recover m2 ~block_offset:data_rows ~capacity_blocks:jcap
      in
      (verdict, m2))

let test_crash_before_commit_vanishes () =
  let verdict, m = crash_then_restart Journal.After_log in
  (* first-ever batch: the header block was never written, so the
     restart finds a clean journal — and must not replay the log *)
  checkb "uncommitted update invisible" true (verdict = `Clean);
  List.iter
    (fun (a, _) ->
      checkb "target untouched" true
        (Pdm.peek m a = Array.make 8 None))
    batch

let test_crash_after_commit_replays () =
  let verdict, m = crash_then_restart Journal.After_commit in
  checkb "committed log replayed" true (verdict = `Replayed 2);
  List.iter
    (fun (a, blk) ->
      checkb "journal-authoritative state rebuilt" true (Pdm.peek m a = blk))
    batch;
  (* recovery is idempotent: a second restart finds a clean log *)
  checkb "second recovery clean" true
    (Journal.recover m ~block_offset:4 ~capacity_blocks:8 = `Clean)

let test_crash_during_apply_replays () =
  let verdict, m = crash_then_restart (Journal.During_apply 1) in
  checkb "partially applied batch replayed" true (verdict = `Replayed 2);
  List.iter
    (fun (a, blk) -> checkb "target complete after replay" true
        (Pdm.peek m a = blk))
    batch

(* --- scratch-directory guard -------------------------------------- *)

let test_with_dir_cleans_up_on_failure () =
  let leaked = ref "" in
  (match
     Store.with_dir (fun dir ->
         leaked := dir;
         let m = machine_of ~dir Store.File in
         Pdm.write_one m { Pdm.disk = 0; block = 0 } (Array.make 6 (Some 1));
         failwith "simulated test failure")
   with
   | exception Failure _ -> ()
   | () -> Alcotest.fail "expected the body to raise");
  checkb "scratch dir removed despite the failure" false
    (Sys.file_exists !leaked)

let test_cleanup_dir_missing_is_noop () =
  Store.cleanup_dir "/tmp/pdm-io-definitely-not-there-421337"

(* --- backend names + config wiring --------------------------------- *)

(* The --backend resolution every front end uses. *)
let test_backend_by_name () =
  (match Store.factory_of_string "file" with
   | Error m -> Alcotest.fail m
   | Ok factory ->
     let m =
       Pdm.create ~factory ~disks:3 ~block_size:4 ~blocks_per_disk:2 ()
     in
     let a = { Pdm.disk = 1; block = 1 } in
     Pdm.write_one m a [| Some 1; None; Some 3; None |];
     checkb "file-backed machine works" true
       (Pdm.read_one m a = [| Some 1; None; Some 3; None |]));
  (match Store.factory_of_string "mem" with
   | Error m -> Alcotest.fail m
   | Ok factory ->
     checkb "mem answers None (memory disks)" true
       (Option.is_none (factory ~blocks:2 ~slots:4)));
  match Store.factory_of_string "florp" with
  | Ok _ -> Alcotest.fail "unknown kinds must not resolve"
  | Error m ->
    Alcotest.(check string) "the error names the accepted kinds"
      {|unknown backend "florp" (mem|file|mmap)|} m

let test_config_backend_field () =
  let cfg = { (Config.default Config.Basic) with Config.backend = "file" } in
  (match Config.validate cfg with
   | Ok () -> ()
   | Error m -> Alcotest.fail m);
  checks "describe mentions the backend" "basic+file" (Config.describe cfg);
  (match Config.of_json (Config.to_json cfg) with
   | Ok cfg' -> checkb "backend survives json roundtrip" true (cfg' = cfg)
   | Error m -> Alcotest.fail m);
  (* configs written before the field existed parse as mem *)
  (match Config.of_json (Config.to_json (Config.default Config.Basic)) with
   | Ok cfg' -> checks "default is mem" "mem" cfg'.Config.backend
   | Error m -> Alcotest.fail m);
  (match
     Config.validate
       { (Config.default Config.Basic) with Config.backend = "tape" }
   with
   | Error _ -> ()
   | Ok () -> Alcotest.fail "unknown backend must not validate");
  (match
     Config.validate
       { (Config.default Config.Cluster) with Config.backend = "file" }
   with
   | Error _ -> ()
   | Ok () -> Alcotest.fail "cluster + file backend must not validate")

let suite =
  [ ( "io",
      [ Alcotest.test_case "codec roundtrip" `Quick test_codec_roundtrip;
        Alcotest.test_case "codec: zeros mean absent" `Quick
          test_codec_absent_is_zeros;
        Alcotest.test_case "codec: geometry mismatch fails" `Quick
          test_codec_geometry_mismatch;
        QCheck_alcotest.to_alcotest prop_codec_matches_reference;
        Alcotest.test_case "raw file + O_DIRECT fallback" `Quick
          test_raw_file_direct_fallback;
        Alcotest.test_case "reopening smaller refuses to shrink" `Quick
          test_reopen_smaller_refuses;
        Alcotest.test_case "file machine: basic ops" `Quick
          test_file_machine_basic_ops;
        Alcotest.test_case "file machine: reopen" `Quick
          test_file_machine_reopen;
        Alcotest.test_case "mmap machine: ops + shared format" `Quick
          test_mmap_machine_ops_and_reopen;
        Alcotest.test_case "differential: basic" `Quick
          test_differential_basic;
        Alcotest.test_case "differential: dynamic journaled" `Quick
          test_differential_dynamic_journal;
        Alcotest.test_case "differential: cascade journaled" `Quick
          test_differential_cascade_journal;
        Alcotest.test_case "differential: static engine" `Quick
          test_differential_static_engine;
        Alcotest.test_case "model-checked runs on real backends" `Quick
          test_model_checked_file_backends;
        Alcotest.test_case "model-checked crash schedule on file" `Quick
          test_model_checked_crash_schedule;
        Alcotest.test_case "crash before commit vanishes on restart" `Quick
          test_crash_before_commit_vanishes;
        Alcotest.test_case "crash after commit replays on restart" `Quick
          test_crash_after_commit_replays;
        Alcotest.test_case "crash during apply replays on restart" `Quick
          test_crash_during_apply_replays;
        Alcotest.test_case "with_dir cleans up on failure" `Quick
          test_with_dir_cleans_up_on_failure;
        Alcotest.test_case "cleanup_dir on missing path" `Quick
          test_cleanup_dir_missing_is_noop;
        Alcotest.test_case "backend by name" `Quick test_backend_by_name;
        Alcotest.test_case "sim config backend field" `Quick
          test_config_backend_field ] ) ]
