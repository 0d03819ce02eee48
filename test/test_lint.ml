(* Tests for pdm-lint (the AST honesty/determinism checker) and the
   runtime sanitizer: one violating and one clean fixture per rule,
   suppression mechanics, file/line accuracy, output modes, the
   lint-cleanliness of the real tree, and the sanitizer's cross-checks
   (cost parity on/off plus two deliberately broken machines it must
   catch). *)

open Pdm_sim
module Lint = Pdm_lint_core.Lint
module Internal_memory = Pdm_sim.Internal_memory
module Sanitize = Pdm_sim.Sanitize

let tc = Alcotest.test_case
let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* --- lint fixtures ------------------------------------------------ *)

let dict_path = "lib/dictionary/sample.ml"

let lint ?config ?(path = dict_path) src =
  Lint.check_source ?config ~has_mli:true ~path src

let rules findings = List.map (fun f -> f.Lint.rule) findings

let find_rule rule findings =
  List.find_opt (fun f -> f.Lint.rule = rule) findings

let has ?line rule findings =
  List.exists
    (fun f ->
      f.Lint.rule = rule
      && match line with None -> true | Some l -> f.Lint.line = l)
    findings

(* R1: direct backend I/O and uncounted peeks outside lib/pdm. *)

let test_r1_backend_bypass () =
  let fs = lint "let f be = Backend.read be ~attempt:0 3\n" in
  checkb "Backend.read flagged" true (has "R1" ~line:1 fs);
  let fs = lint "let f m = Pdm.backend m 0\n" in
  checkb "Pdm.backend flagged" true (has "R1" fs);
  (* The error surface of Backend stays legal everywhere. *)
  let fs = lint "let f e = Backend.describe e\nlet g e = e.Backend.disk\n" in
  checkb "Backend.describe clean" false (has "R1" fs);
  (* Inside lib/pdm the calls are the implementation, not a bypass. *)
  let fs =
    lint ~path:"lib/pdm/scheduler_bit.ml" "let f be = Backend.read be 3\n"
  in
  checkb "lib/pdm may call Backend" false (has "R1" fs)

let test_r1_peek_allowlist () =
  let src = "let f m a = Pdm.peek m a\n" in
  checkb "peek flagged in unlisted module" true (has "R1" (lint src));
  let fs = lint ~path:"lib/dictionary/basic_dict.ml" src in
  checkb "peek clean in allowlisted module" false (has "R1" fs);
  let config =
    { Lint.default_config with peek_allowlist = [ "sample" ] }
  in
  checkb "--allow-peek extends the list" false (has "R1" (lint ~config src))

(* R2: nondeterminism in the deterministic components. *)

let test_r2_determinism () =
  checkb "Random flagged in lib/dictionary" true
    (has "R2" (lint "let r () = Random.int 5\n"));
  checkb "Random fine in lib/experiments (seeded Prng rule is R2-scoped)"
    false
    (has "R2" (lint ~path:"lib/experiments/x_exp.ml" "let r () = Random.int 5\n"));
  checkb "Sys.time flagged even in experiments" true
    (has "R2" (lint ~path:"lib/experiments/x_exp.ml" "let t () = Sys.time ()\n"));
  checkb "Unix flagged" true
    (has "R2" (lint "let t () = Unix.gettimeofday ()\n"));
  checkb "Hashtbl.hash flagged" true
    (has "R2" (lint "let h x = Hashtbl.hash x\n"));
  checkb "Hashtbl.create ~random:true flagged" true
    (has "R2" (lint "let h () = Hashtbl.create ~random:true 16\n"));
  checkb "plain Hashtbl.create is deterministic by default" false
    (has "R2" (lint "let h () : (int, int) Hashtbl.t = Hashtbl.create 16\n"))

(* The audited Unix allowlist for the real-I/O component: exactly the
   syscalls DESIGN.md Â§13 names, and only under lib/io. *)
let test_r2_unix_io_allowlist () =
  checkb "allowlisted syscall clean in lib/io" false
    (has "R2"
       (lint ~path:"lib/io/raw_file.ml"
          "let f p = Unix.openfile p [ Unix.O_RDWR ] 0o600\n"));
  checkb "fsync clean in lib/io" false
    (has "R2" (lint ~path:"lib/io/raw_file.ml" "let f fd = Unix.fsync fd\n"));
  checkb "non-allowlisted Unix call still flagged in lib/io" true
    (has "R2"
       (lint ~path:"lib/io/raw_file.ml" "let t () = Unix.gettimeofday ()\n"));
  checkb "allowlisted syscall still flagged outside lib/io" true
    (has "R2" (lint ~path:"lib/engine/engine.ml" "let f fd = Unix.fsync fd\n"));
  checkb "allowlisted syscall still flagged in the default component" true
    (has "R2" (lint "let f fd = Unix.fsync fd\n"))

(* The audited Unix allowlist for the TCP daemon: socket-lifecycle
   syscalls (DESIGN.md §15), and only under lib/server. *)
let test_r2_unix_server_allowlist () =
  checkb "socket clean in lib/server" false
    (has "R2"
       (lint ~path:"lib/server/server.ml"
          "let f () = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0\n"));
  checkb "select clean in lib/server" false
    (has "R2"
       (lint ~path:"lib/server/server.ml"
          "let f r = Unix.select r [] [] 0.2\n"));
  checkb "connect clean in lib/server client" false
    (has "R2"
       (lint ~path:"lib/server/client.ml"
          "let f fd a = Unix.connect fd a\n"));
  checkb "gettimeofday still flagged in lib/server" true
    (has "R2"
       (lint ~path:"lib/server/server.ml"
          "let t () = Unix.gettimeofday ()\n"));
  checkb "io-only syscall (fsync) flagged in lib/server" true
    (has "R2" (lint ~path:"lib/server/server.ml" "let f fd = Unix.fsync fd\n"));
  checkb "socket flagged outside lib/server" true
    (has "R2"
       (lint ~path:"lib/engine/engine.ml"
          "let f () = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0\n"))

(* R3: partial functions in library code. *)

let test_r3_totality () =
  let src =
    "let a l = List.hd l\n\
     let b l = List.nth l 3\n\
     let c o = Option.get o\n\
     let d ar = Array.unsafe_get ar 0\n\
     let e () = assert false\n"
  in
  let fs = lint src in
  check "five R3 findings" 5
    (List.length (List.filter (fun r -> r = "R3") (rules fs)));
  List.iteri
    (fun i line ->
      checkb (Printf.sprintf "finding %d on line %d" i line) true
        (has "R3" ~line fs))
    [ 1; 2; 3; 4; 5 ];
  let fs =
    lint
      "let a = function [] -> None | x :: _ -> Some x\n\
       let b l = List.nth_opt l 3\n\
       let c () = assert (1 > 0)\n"
  in
  checkb "total versions clean" false (has "R3" fs)

(* R4: interface hygiene. *)

let test_r4_interfaces () =
  let fs = Lint.check_source ~has_mli:false ~path:dict_path "let x = 1\n" in
  checkb "missing .mli flagged" true (has "R4" fs);
  checkb "open of library wrapper flagged" true
    (has "R4" (lint "open Pdm_sim\nlet x = 1\n"));
  checkb "open of a submodule path flagged" true
    (has "R4" (lint "open Pdm_util.Imath\nlet x = 1\n"));
  checkb "stdlib open tolerated" false (has "R4" (lint "open Printf\n"));
  checkb "module alias is the sanctioned style" false
    (has "R4" (lint "module P = Pdm_sim.Pdm\n"))

(* Suppressions. *)

let allow rule reason = Printf.sprintf "(* pdm-lint: allow %s %s *)" rule reason

let test_suppression_valid () =
  let src =
    Printf.sprintf
      "let f = function\n\
      \  | Some v -> v\n\
      \  | None ->\n\
      \    %s\n\
      \    assert false\n"
      (allow "R3" "— caller guarantees Some by construction")
  in
  Alcotest.(check (list string)) "annotated assert suppressed" [] (rules (lint src))

let test_suppression_needs_reason () =
  let src = allow "R3" "" ^ "\nlet f () = assert false\n" in
  let fs = lint src in
  checkb "missing reason reported" true (has "syntax" fs);
  checkb "finding NOT suppressed without a reason" true (has "R3" fs)

let test_suppression_unknown_rule () =
  let fs = lint (allow "R9" "— because") in
  checkb "unknown rule reported" true (has "syntax" fs)

let test_suppression_unused () =
  let fs = lint (allow "R3" "— nothing here to allow") in
  (match find_rule "syntax" fs with
   | Some f -> checkb "named unused" true (f.Lint.name = "unused-suppression")
   | None -> Alcotest.fail "expected an unused-suppression finding")

let test_suppression_range_is_tight () =
  (* The allowance covers the comment through one line past its close;
     a violation two lines later is still reported. *)
  let src =
    allow "R3" "— stale annotation" ^ "\nlet a = 1\nlet b l = List.hd l\n"
  in
  let fs = lint src in
  checkb "out-of-range finding kept" true (has "R3" ~line:3 fs);
  checkb "and the suppression is unused" true (has "syntax" fs)

let test_suppression_wrong_rule () =
  let src = allow "R2" "— wrong rule entirely" ^ "\nlet f () = assert false\n" in
  let fs = lint src in
  checkb "R3 finding survives an R2 allowance" true (has "R3" fs)

(* Rule toggles, output modes, exit codes. *)

let test_rule_toggle () =
  let config = { Lint.default_config with enabled = [ Lint.R3 ] } in
  let src = "open Pdm_sim\nlet r () = Random.int (List.hd [])\n" in
  Alcotest.(check (list string)) "only R3 reported" [ "R3" ]
    (rules (lint ~config src))

let test_rule_names () =
  List.iter
    (fun r ->
      Alcotest.(check (option bool)) (Lint.rule_id r) (Some true)
        (Option.map (fun r' -> r' = r) (Lint.rule_of_string (Lint.rule_id r)));
      Alcotest.(check (option bool)) (Lint.rule_name r) (Some true)
        (Option.map (fun r' -> r' = r) (Lint.rule_of_string (Lint.rule_name r))))
    Lint.all_rules

let test_json_output () =
  let fs = lint "let a l = List.hd l (* \"quoted\" *)\n" in
  let json = Lint.to_json fs in
  let contains needle hay =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  checkb "array shape" true
    (String.length json > 2 && json.[0] = '[' && json.[String.length json - 1] = ']');
  checkb "rule field" true (contains "\"rule\":\"R3\"" json);
  checkb "file field" true (contains "\"file\":\"lib/dictionary/sample.ml\"" json);
  Alcotest.(check string) "empty list" "[]" (Lint.to_json [])

let test_exit_codes () =
  check "clean tree" 0 (Lint.exit_code []);
  check "findings" 1 (Lint.exit_code (lint "let a l = List.hd l\n"));
  let broken = lint "let let let\n" in
  checkb "unparsable reported as parse" true (has "parse" broken);
  check "parse failure" 2 (Lint.exit_code broken)

let test_text_rendering () =
  match lint "let a l = List.hd l\n" with
  | [ f ] ->
    Alcotest.(check string) "grep-able location prefix"
      "lib/dictionary/sample.ml:1:10:"
      (String.sub (Lint.to_text f) 0 (String.length "lib/dictionary/sample.ml:1:10:"))
  | fs -> Alcotest.fail (Printf.sprintf "expected 1 finding, got %d" (List.length fs))

(* --- the interprocedural rules (R5/R6/R7) ------------------------- *)

let has_substr needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let unit_ path src = { Lint.u_path = path; u_source = src; u_has_mli = true }

(* R5: the acceptance-criteria fixture. A deterministic-component
   function reaches Random.int three calls deep, across a module alias
   and a library wrapper — the old per-file R2 provably cannot see it
   (the helpers live in lib/experiments, where Random is legal), but
   the taint pass flags the frontier call site at its exact line. *)
let taint_units =
  [ unit_ "lib/engine/sample_round.ml"
      "module H = Pdm_experiments.Helper_a\nlet tick () = H.jitter 3\n";
    unit_ "lib/experiments/helper_a.ml"
      "let jitter n = Helper_b.noise n + 1\n";
    unit_ "lib/experiments/helper_b.ml" "let noise n = Random.int n\n" ]

let test_r5_indirect_taint () =
  let fs = (Lint.analyze taint_units).Lint.a_findings in
  checkb "R2 is clean on the deterministic file (the gap R5 closes)" false
    (List.exists
       (fun f ->
         f.Lint.rule = "R2" && f.Lint.file = "lib/engine/sample_round.ml")
       fs);
  checkb "R2 is clean everywhere (helpers may use Random)" false
    (has "R2" fs);
  (match find_rule "R5" fs with
   | Some f ->
     Alcotest.(check string) "flagged in the deterministic unit"
       "lib/engine/sample_round.ml" f.Lint.file;
     check "at the frontier call's line" 2 f.Lint.line;
     checkb "witness chain names the intermediate hop" true
       (has_substr "Helper_a.jitter" f.Lint.message);
     checkb "witness chain ends at the source" true
       (has_substr "Random.int" f.Lint.message)
   | None -> Alcotest.fail "expected an R5 finding");
  check "exactly one finding overall" 1 (List.length fs)

let test_r5_clean_helper () =
  let fs =
    (Lint.analyze
       [ unit_ "lib/engine/sample_round.ml"
           "module H = Pdm_experiments.Helper_a\nlet tick () = H.jitter 3\n";
         unit_ "lib/experiments/helper_a.ml" "let jitter n = n + 1\n" ])
      .Lint.a_findings
  in
  Alcotest.(check (list string)) "deterministic helper chain is clean" []
    (rules fs)

let test_r5_suppressible () =
  let det =
    "module H = Pdm_experiments.Helper_a\n"
    ^ "(* pdm-lint: allow R5 — jitter is only used for report pacing *)\n"
    ^ "let tick () = H.jitter 3\n"
  in
  let fs =
    (Lint.analyze
       [ unit_ "lib/engine/sample_round.ml" det;
         unit_ "lib/experiments/helper_a.ml" "let jitter n = Random.int n\n" ])
      .Lint.a_findings
  in
  Alcotest.(check (list string)) "reasoned allowance silences R5" []
    (rules fs)

(* R6: shared-state inventory over custom entry points. *)

let r6_config entries =
  { Lint.default_config with r6_entries = entries }

let r6_analyze src =
  Lint.analyze
    ~config:(r6_config [ "Sample_engine.loop" ])
    [ unit_ "lib/engine/sample_engine.ml" src ]

let test_r6_unguarded_flagged () =
  let src =
    "type t = { mutable count : int }\n\
     let bump t = t.count <- t.count + 1\n\
     let loop t = bump t\n"
  in
  let a = r6_analyze src in
  (match find_rule "R6" a.Lint.a_findings with
   | Some f ->
     check "at the mutation's line" 2 f.Lint.line;
     checkb "names the target" true (has_substr "t.count" f.Lint.message)
   | None -> Alcotest.fail "expected an R6 finding");
  match a.Lint.a_report with
  | Some r -> checkb "report lists it unguarded" true
                (has_substr "\"unguarded\": 1" r)
  | None -> Alcotest.fail "expected a shared-state report"

let test_r6_not_reachable_not_flagged () =
  (* Same mutation, but nothing reaches it from the entry points: no
     finding — the inventory is scoped to the round loop, not global. *)
  let src =
    "type t = { mutable count : int }\n\
     let bump t = t.count <- t.count + 1\n\
     let loop (_ : t) = ()\n"
  in
  checkb "unreachable mutation not flagged" false
    (has "R6" (r6_analyze src).Lint.a_findings)

let test_r6_guard_statuses () =
  let src =
    "type t = { mutable count : int; gauge : int Atomic.t }\n\
     (* pdm-lint: domain local — counter owned by the loop's domain *)\n\
     let bump t = t.count <- t.count + 1\n\
     let publish t = Atomic.set t.gauge 1\n\
     let scratch () =\n\
    \  let h = Hashtbl.create 8 in\n\
    \  Hashtbl.replace h 1 2;\n\
    \  Hashtbl.length h\n\
     let loop t = bump t; publish t; scratch ()\n"
  in
  let a = r6_analyze src in
  Alcotest.(check (list string)) "all three guard shapes lint clean" []
    (rules a.Lint.a_findings);
  match a.Lint.a_report with
  | Some r ->
    checkb "annotated status with its reason" true
      (has_substr "\"status\": \"annotated\"" r
       && has_substr "counter owned by the loop's domain" r);
    checkb "atomic status" true (has_substr "\"status\": \"atomic\"" r);
    checkb "local status for let-bound allocation" true
      (has_substr "\"status\": \"local\"" r);
    checkb "nothing unguarded" true (has_substr "\"unguarded\": 0" r)
  | None -> Alcotest.fail "expected a shared-state report"

let test_r6_report_byte_stable () =
  let src =
    "type t = { mutable a : int; mutable b : int }\n\
     (* pdm-lint: domain local — loop-owned counters *)\n\
     let bump t = t.a <- t.a + 1; t.b <- t.b + 1\n\
     let loop t = bump t\n"
  in
  match (r6_analyze src).Lint.a_report, (r6_analyze src).Lint.a_report with
  | Some r1, Some r2 -> Alcotest.(check string) "byte-identical" r1 r2
  | _ -> Alcotest.fail "expected shared-state reports"

(* R7: charge completeness. *)

let test_r7_uncharged_io_flagged () =
  let fs =
    (Lint.analyze
       [ unit_ "lib/pdm/sample_store.ml"
           "let raw b = Backend.read b ~attempt:0 3\n" ])
      .Lint.a_findings
  in
  match find_rule "R7" fs with
  | Some f ->
    Alcotest.(check string) "in the fixture file" "lib/pdm/sample_store.ml"
      f.Lint.file;
    check "at the I/O site's line" 1 f.Lint.line;
    checkb "names the uncovered definition" true
      (has_substr "Sample_store.raw" f.Lint.message)
  | None -> Alcotest.fail "expected an R7 finding"

let test_r7_charging_path_clean () =
  (* The definition charges the round ledger itself, and a helper that
     never charges is covered because its only caller does. *)
  let src =
    "type t = { mutable rounds_done : int }\n\
     let helper b = Backend.write b 0 [||]\n\
     let schedule t b =\n\
    \  t.rounds_done <- t.rounds_done + 1;\n\
    \  ignore (Backend.read b ~attempt:0 3);\n\
    \  helper b\n"
  in
  let fs =
    (Lint.analyze [ unit_ "lib/pdm/sample_store.ml" src ]).Lint.a_findings
  in
  checkb "charging entry point and covered helper are clean" false
    (has "R7" fs)

let test_r7_uncovered_caller_taints_helper () =
  (* One charging caller is not enough when another caller is never
     covered: the helper stays uncovered. *)
  let src =
    "type t = { mutable rounds_done : int }\n\
     let helper b = Backend.write b 0 [||]\n\
     let schedule t b = t.rounds_done <- t.rounds_done + 1; helper b\n\
     let stray b = helper b\n"
  in
  let fs =
    (Lint.analyze [ unit_ "lib/pdm/sample_store.ml" src ]).Lint.a_findings
  in
  checkb "helper flagged while one caller is uncovered" true
    (has "R7" ~line:2 fs)

(* Suppression-range widening over multi-line expressions (the PR 4
   matcher only covered the first line of a multi-line binding). *)

let test_suppression_covers_multiline_binding () =
  let src =
    allow "R3" "— the accumulator is provably non-empty here"
    ^ "\nlet f l =\n  let x = 1 in\n  List.hd l + x\n"
  in
  Alcotest.(check (list string)) "violation on the binding's last line" []
    (rules (lint src))

let test_unused_suppression_quotes_reason () =
  let fs = lint (allow "R3" "— stale excuse, should be visible") in
  match find_rule "syntax" fs with
  | Some f ->
    checkb "unused-suppression names it" true
      (f.Lint.name = "unused-suppression");
    checkb "reason text quoted in the message" true
      (has_substr "stale excuse, should be visible" f.Lint.message)
  | None -> Alcotest.fail "expected an unused-suppression finding"

(* Wrapper discovery from the dune files (no hand-maintained list). *)

let test_wrappers_from_dune () =
  if Sys.file_exists "../lib" && Sys.is_directory "../lib" then begin
    let ws = Lint.wrappers_from_dune [ "../lib" ] in
    List.iter
      (fun w ->
        checkb (w ^ " discovered") true (List.mem w ws))
      [ "Pdm_sim"; "Pdm_io"; "Pdm_lint_core"; "Pdm_cluster" ];
    checkb "sorted and deduplicated" true
      (ws = List.sort_uniq compare ws)
  end

(* The real tree must be lint-clean under all seven rules — the CI
   gate, run from the test binary too so `dune runtest` alone catches a
   regression. dune copies the sources next to the test directory in
   _build; bin/bench/examples ride along with lib since PR 9. *)
let test_tree_is_clean () =
  if Sys.file_exists "../lib" && Sys.is_directory "../lib" then begin
    let paths =
      List.filter
        (fun p -> Sys.file_exists p && Sys.is_directory p)
        [ "../lib"; "../bin"; "../bench"; "../examples" ]
    in
    let a = Lint.analyze_paths paths in
    Alcotest.(check (list string)) "tree lints clean under R1-R7" []
      (List.map Lint.to_text a.Lint.a_findings);
    let b = Lint.analyze_paths paths in
    match a.Lint.a_report, b.Lint.a_report with
    | Some r1, Some r2 ->
      Alcotest.(check string) "shared-state report is byte-stable" r1 r2;
      checkb "no unguarded shared state in the tree" true
        (has_substr "\"unguarded\": 0" r1);
      checkb "report covers the engine round loop" true
        (has_substr "Engine.run_batch" r1)
    | _ -> Alcotest.fail "expected a shared-state report"
  end

(* --- runtime sanitizer -------------------------------------------- *)

let block_of t xs =
  let b = Array.make (Pdm.block_size t) None in
  List.iteri (fun i x -> b.(i) <- Some x) xs;
  b

let small_workload t =
  let addrs =
    [ { Pdm.disk = 0; block = 0 }; { Pdm.disk = 0; block = 1 };
      { Pdm.disk = 1; block = 0 }; { Pdm.disk = 2; block = 5 } ]
  in
  Pdm.write t (List.map (fun a -> (a, block_of t [ a.Pdm.block ])) addrs);
  ignore (Pdm.read t (Array.of_list addrs));
  ignore (Pdm.read_one t { Pdm.disk = 2; block = 5 });
  Stats.parallel_ios (Stats.snapshot (Pdm.stats t))

let test_sanitize_cost_parity () =
  (* Identical charged costs with the sanitizer on and off, on an
     unreplicated and a replicated machine. *)
  let run ~sanitize ~replicas =
    Sanitize.with_sanitize sanitize (fun () ->
        small_workload
          (Pdm.create ~replicas ~disks:4 ~block_size:8 ~blocks_per_disk:16 ()))
  in
  check "r = 1 parity" (run ~sanitize:false ~replicas:1)
    (run ~sanitize:true ~replicas:1);
  check "r = 2 parity" (run ~sanitize:false ~replicas:2)
    (run ~sanitize:true ~replicas:2)

let test_sanitize_flag_restored () =
  (* Whatever the ambient value (PDM_SANITIZE=1 runs the suite with it
     on), with_sanitize must restore it even when the thunk raises. *)
  let ambient = Pdm.sanitize_enabled () in
  (try Sanitize.with_sanitize (not ambient) (fun () -> raise Exit)
   with Exit -> ());
  checkb "restored after an exception" ambient (Pdm.sanitize_enabled ())

let violation_check f =
  match f () with
  | _ -> Alcotest.fail "expected a Sanitizer_violation"
  | exception Sanitize.Sanitizer_violation v -> v.Sanitize.check

let test_sanitize_catches_zero_cost_backend () =
  (* A backend claiming cost 0 would let scheduled transfers ride for
     free; the sanitizer refuses to pop it from the queue. *)
  let zero_cost d = { (Backend.memory ~disk:d ~blocks:16) with cost = 0 } in
  let t : int Pdm.t =
    Pdm.create
      ~factory:(fun ~blocks:_ ~slots:_ -> Some zero_cost)
      ~disks:2 ~block_size:4 ~blocks_per_disk:16 ()
  in
  Alcotest.(check string) "backend-cost" "backend-cost"
    (Sanitize.with_sanitize true (fun () ->
         violation_check (fun () ->
             Pdm.read_one t { Pdm.disk = 0; block = 0 })))

let test_sanitize_catches_lying_envelope () =
  (* An envelope declaring overhead 2 whose seal returns a bare payload
     would silently understate every stored block's footprint. *)
  let liar : int Pdm.integrity =
    { tag = "liar"; overhead = 2; seal = Array.copy;
      check = (fun s -> Some (Array.copy s)) }
  in
  let t : int Pdm.t =
    Pdm.create ~integrity:liar ~disks:2 ~block_size:4 ~blocks_per_disk:8 ()
  in
  Alcotest.(check string) "integrity-envelope" "integrity-envelope"
    (Sanitize.with_sanitize true (fun () ->
         violation_check (fun () ->
             Pdm.write_one t { Pdm.disk = 0; block = 0 } (block_of t [ 1 ]))))

let test_sanitize_internal_memory_clean () =
  Sanitize.with_sanitize true (fun () ->
      let m = Internal_memory.create ~capacity_words:64 in
      Internal_memory.alloc m ~words:40;
      Internal_memory.free m ~words:16;
      Internal_memory.alloc m ~words:32;
      check "in_use tracked under sanitize" 56 (Internal_memory.in_use m);
      check "peak tracked under sanitize" 56 (Internal_memory.peak m))

let test_sanitize_describe () =
  let v = { Sanitize.check = "c"; round = 3; detail = "d" } in
  checkb "describes its own exception" true
    (Option.is_some (Sanitize.describe (Sanitize.Sanitizer_violation v)));
  checkb "ignores others" true (Option.is_none (Sanitize.describe Not_found))

let test_sanitize_faulty_machine_passes () =
  (* Retries and stragglers charge extra rounds; the sanitizer must
     agree with that accounting, not just the healthy case. *)
  let faults = Fault.spec ~transient:[ (1, 0.3) ] ~stragglers:[ (2, 2) ] () in
  Sanitize.with_sanitize true (fun () ->
      let t : int Pdm.t =
        Pdm.create ~faults ~disks:4 ~block_size:8 ~blocks_per_disk:16 ()
      in
      checkb "faulty workload completes sanitized" true (small_workload t > 0))

let suite =
  [ ("lint.rules",
     [ tc "R1 backend bypass" `Quick test_r1_backend_bypass;
       tc "R1 peek allowlist" `Quick test_r1_peek_allowlist;
       tc "R2 determinism" `Quick test_r2_determinism;
       tc "R2 audited Unix allowlist (lib/io)" `Quick
         test_r2_unix_io_allowlist;
       tc "R2 audited Unix allowlist (lib/server)" `Quick
         test_r2_unix_server_allowlist;
       tc "R3 totality" `Quick test_r3_totality;
       tc "R4 interfaces" `Quick test_r4_interfaces ]);
    ("lint.interprocedural",
     [ tc "R5 indirect taint (R2-invisible)" `Quick test_r5_indirect_taint;
       tc "R5 clean helper chain" `Quick test_r5_clean_helper;
       tc "R5 suppressible with a reason" `Quick test_r5_suppressible;
       tc "R6 unguarded reachable write" `Quick test_r6_unguarded_flagged;
       tc "R6 scoped to entry reachability" `Quick
         test_r6_not_reachable_not_flagged;
       tc "R6 guard statuses in the report" `Quick test_r6_guard_statuses;
       tc "R6 report byte-stable" `Quick test_r6_report_byte_stable;
       tc "R7 uncharged backend I/O" `Quick test_r7_uncharged_io_flagged;
       tc "R7 charging path clean" `Quick test_r7_charging_path_clean;
       tc "R7 one uncovered caller taints" `Quick
         test_r7_uncovered_caller_taints_helper ]);
    ("lint.suppressions",
     [ tc "valid allowance" `Quick test_suppression_valid;
       tc "reason required" `Quick test_suppression_needs_reason;
       tc "unknown rule" `Quick test_suppression_unknown_rule;
       tc "unused reported" `Quick test_suppression_unused;
       tc "range is tight" `Quick test_suppression_range_is_tight;
       tc "wrong rule does not mask" `Quick test_suppression_wrong_rule;
       tc "multi-line binding covered" `Quick
         test_suppression_covers_multiline_binding;
       tc "unused quotes its reason" `Quick
         test_unused_suppression_quotes_reason ]);
    ("lint.cli_contract",
     [ tc "rule toggles" `Quick test_rule_toggle;
       tc "rule naming round-trip" `Quick test_rule_names;
       tc "json output" `Quick test_json_output;
       tc "exit codes" `Quick test_exit_codes;
       tc "text rendering" `Quick test_text_rendering;
       tc "wrappers derived from dune files" `Quick test_wrappers_from_dune;
       tc "whole tree is clean" `Quick test_tree_is_clean ]);
    ("sanitize",
     [ tc "cost parity on/off" `Quick test_sanitize_cost_parity;
       tc "flag restored" `Quick test_sanitize_flag_restored;
       tc "catches zero-cost backend" `Quick
         test_sanitize_catches_zero_cost_backend;
       tc "catches lying envelope" `Quick test_sanitize_catches_lying_envelope;
       tc "internal memory accounting" `Quick
         test_sanitize_internal_memory_clean;
       tc "describe" `Quick test_sanitize_describe;
       tc "faulty machine passes" `Quick test_sanitize_faulty_machine_passes ]) ]
