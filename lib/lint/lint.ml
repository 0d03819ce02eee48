type rule = R1 | R2 | R3 | R4 | R5 | R6 | R7

let all_rules = [ R1; R2; R3; R4; R5; R6; R7 ]

let rule_id = function
  | R1 -> "R1"
  | R2 -> "R2"
  | R3 -> "R3"
  | R4 -> "R4"
  | R5 -> "R5"
  | R6 -> "R6"
  | R7 -> "R7"

let rule_name = function
  | R1 -> "no-pdm-bypass"
  | R2 -> "determinism"
  | R3 -> "totality"
  | R4 -> "interface-hygiene"
  | R5 -> "determinism-taint"
  | R6 -> "domain-safety"
  | R7 -> "charge-completeness"

let rule_of_string s =
  match String.lowercase_ascii s with
  | "r1" | "no-pdm-bypass" -> Some R1
  | "r2" | "determinism" -> Some R2
  | "r3" | "totality" -> Some R3
  | "r4" | "interface-hygiene" -> Some R4
  | "r5" | "determinism-taint" -> Some R5
  | "r6" | "domain-safety" -> Some R6
  | "r7" | "charge-completeness" -> Some R7
  | _ -> None

type finding = {
  file : string;
  line : int;
  col : int;
  rule : string;  (* "R1".."R7", or "syntax" / "parse" for meta findings *)
  name : string;
  message : string;
}

type config = {
  enabled : rule list;
  peek_allowlist : string list;
      (* module basenames allowed to call Pdm.peek / Pdm.poke *)
  library_wrappers : string list;
      (* dune wrapper modules; R4 open-hygiene and call resolution *)
  r6_entries : string list;
      (* "Unit.def" roots of the R6 reachability pass *)
}

(* Modules whose uncounted Pdm.peek/poke uses are sanctioned
   diagnostics (max-load scans, probe-distance walks, documented
   cache-simulation reads) or construction-time bulk loads. Audited in
   DESIGN.md §9; extend via --allow-peek only with a written
   justification there. *)
let default_peek_allowlist =
  [ "basic_dict"; "basic_exp"; "bitvector_membership"; "btree";
    "dynamic_cascade"; "field_store"; "fragmented"; "hash_table";
    "head_model_dict"; "one_probe_dynamic"; "small_block_dict" ]

(* Fallback wrapper-module list for callers that lint source strings
   with no dune files in sight (fixtures, tests). The path-based driver
   derives the live list from the dune files and unions it with this
   one, so a new library cannot silently skip the hygiene checks. *)
let default_library_wrappers =
  [ "Pdm_util"; "Pdm_sim"; "Pdm_expander"; "Pdm_loadbalance";
    "Pdm_dictionary"; "Pdm_engine"; "Pdm_baselines"; "Pdm_extsort";
    "Pdm_fs"; "Pdm_workload"; "Pdm_simtest"; "Pdm_cluster"; "Pdm_experiments";
    "Pdm_lint_core"; "Pdm_io" ]

(* The engine round loop and the router scatter-gather path: the code
   that a multicore pdm-serve would drive from several domains at once
   (ROADMAP item 3). Everything call-reachable from here is in scope
   for the R6 shared-state inventory. *)
let default_r6_entries =
  [ "Engine.submit"; "Engine.pump"; "Engine.drain"; "Engine.idle_round";
    "Engine.run_batch"; "Cluster.find"; "Cluster.find_batch";
    "Cluster.insert"; "Cluster.delete"; "Cluster.execute_plan";
    (* pdm-serve: the listener event loop and the per-domain worker
       loop are the roots that actually run on different domains at
       once; everything they reach (mailboxes, completion queue,
       shard engines) is shared-state inventory. *)
    "Server.run"; "Server.worker_loop"; "Data_plane.execute" ]

let default_config =
  { enabled = all_rules;
    peek_allowlist = default_peek_allowlist;
    library_wrappers = default_library_wrappers;
    r6_entries = default_r6_entries }

(* Directories whose code must be bit-for-bit deterministic: the
   simulator itself and everything whose placements or costs the paper
   claims are deterministic. Experiments/bench may read a clock for
   reporting (through Util.Clock) but still may not use randomness
   outside seeded Prng. *)
let deterministic_components =
  [ "pdm"; "expander"; "loadbalance"; "dictionary"; "engine"; "sim";
    "cluster"; "io" ]

(* Audited per-component Unix allowlists. lib/io is the storage
   subsystem and must open, size, sync and map its disk files —
   nothing else (pread/pwrite are C stubs, not Unix calls). lib/server
   is the daemon shell and may touch exactly the socket and event-loop
   syscalls its accept/select loop needs — the deterministic data
   plane behind it never sees a file descriptor. Time, environment and
   process control stay banned in both, and any Unix.* outside these
   two components is flagged unconditionally. Audited in DESIGN.md
   §13 (io) and §15 (server); extend only with a written justification
   there. *)
let unix_io_allowlist =
  [ "openfile"; "close"; "ftruncate"; "fsync"; "map_file"; "getpid";
    "error_message" ]

let unix_server_allowlist =
  [ "socket"; "setsockopt"; "bind"; "listen"; "accept"; "connect";
    "getsockname"; "select"; "read"; "write"; "close"; "shutdown";
    "pipe"; "set_nonblock"; "inet_addr_loopback"; "error_message" ]

let unix_component_allowlists =
  [ ("io", unix_io_allowlist); ("server", unix_server_allowlist) ]

(* The Backend record fields / constructors that move or expose raw
   block data. Calling these outside lib/pdm bypasses the scheduler's
   round charging. Error-shaped members (describe, the exception
   payloads' disk/block/round fields, cost, max_retries, blocks) are
   fine to touch anywhere. *)
let backend_io_members =
  [ "read"; "write"; "poke"; "peek"; "memory"; "dead"; "wrap" ]

let component_of_path = Callgraph.component_of_path

let module_of_path path = Filename.remove_extension (Filename.basename path)

(* ------------------------------------------------------------------ *)
(* Suppressions and domain-local annotations.                          *)

type suppression = {
  s_rule : string;
  s_reason : string;
  s_line_start : int;
  mutable s_line_end : int;
      (* inclusive; seeded one line past the comment close, then widened
         to the end of any multi-line expression starting in range *)
  mutable s_used : bool;
}

type annotation = {
  a_reason : string;
  a_line_start : int;
  mutable a_line_end : int;  (* same widening as suppressions *)
  mutable a_used : bool;
}

(* Concatenated so the scanner never matches this file's own literals. *)
let marker = "pdm-lint: " ^ "allow"
let marker_domain = "pdm-lint: " ^ "domain local"

let line_starts source =
  let starts = ref [ 0 ] in
  String.iteri (fun i c -> if c = '\n' then starts := (i + 1) :: !starts) source;
  Array.of_list (List.rev !starts)

let line_of_offset starts off =
  (* last line whose start <= off, 1-based *)
  let n = Array.length starts in
  let rec bsearch lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi + 1) / 2 in
      if starts.(mid) <= off then bsearch mid hi else bsearch lo (mid - 1)
  in
  1 + bsearch 0 (n - 1)

let find_all source pat =
  let out = ref [] in
  let n = String.length source and m = String.length pat in
  let i = ref 0 in
  while !i + m <= n do
    if String.sub source !i m = pat then begin
      out := !i :: !out;
      i := !i + m
    end
    else incr i
  done;
  List.rev !out

let is_space c = c = ' ' || c = '\t' || c = '\n' || c = '\r'

(* Strip whitespace and the leading separator of the reason text: an
   em-dash, hyphen or colon between the rule id and the prose. *)
let clean_reason s =
  let s = String.trim s in
  let s =
    if String.length s >= 3 && String.sub s 0 3 = "\xe2\x80\x94" then
      String.sub s 3 (String.length s - 3)
    else if String.length s >= 1 && (s.[0] = '-' || s.[0] = ':') then
      String.sub s 1 (String.length s - 1)
    else s
  in
  String.trim s

(* End offset of the comment enclosing [from] (first close; the
   annotation comments do not nest). *)
let comment_close source from =
  let n = String.length source in
  let rec find i =
    if i + 2 > n then n
    else if source.[i] = '*' && i + 1 < n && source.[i + 1] = ')' then i
    else find (i + 1)
  in
  find from

let scan_suppressions ~path source =
  let starts = line_starts source in
  let bad = ref [] in
  let sups =
    List.filter_map
      (fun off ->
        let line = line_of_offset starts off in
        let after = off + String.length marker in
        let n = String.length source in
        let tok_start = ref after in
        while !tok_start < n && is_space source.[!tok_start] do
          incr tok_start
        done;
        let tok_end = ref !tok_start in
        while
          !tok_end < n
          && (match source.[!tok_end] with
              | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' -> true
              | _ -> false)
        do
          incr tok_end
        done;
        let token = String.sub source !tok_start (!tok_end - !tok_start) in
        let close = comment_close source !tok_end in
        let close_line = line_of_offset starts (min close (n - 1)) in
        let reason =
          clean_reason (String.sub source !tok_end (close - !tok_end))
        in
        match rule_of_string token with
        | None ->
          bad :=
            { file = path; line; col = 0; rule = "syntax";
              name = "bad-suppression";
              message =
                Printf.sprintf
                  "suppression names unknown rule %S (expected R1-R7)" token }
            :: !bad;
          None
        | Some r ->
          if reason = "" then begin
            bad :=
              { file = path; line; col = 0; rule = "syntax";
                name = "bad-suppression";
                message =
                  Printf.sprintf
                    "suppression of %s has no reason; write (* %s %s — why \
                     this is safe *)"
                    (rule_id r) marker (rule_id r) }
              :: !bad;
            None
          end
          else
            Some
              { s_rule = rule_id r; s_reason = reason; s_line_start = line;
                s_line_end = close_line + 1; s_used = false })
      (find_all source marker)
  in
  (sups, List.rev !bad)

let scan_annotations ~path source =
  let starts = line_starts source in
  let bad = ref [] in
  let anns =
    List.filter_map
      (fun off ->
        let line = line_of_offset starts off in
        let after = off + String.length marker_domain in
        let n = String.length source in
        let close = comment_close source after in
        let close_line = line_of_offset starts (min close (n - 1)) in
        let reason = clean_reason (String.sub source after (close - after)) in
        if reason = "" then begin
          bad :=
            { file = path; line; col = 0; rule = "syntax";
              name = "bad-annotation";
              message =
                Printf.sprintf
                  "domain-local annotation has no reason; write (* %s — why \
                   this state stays single-domain *)"
                  marker_domain }
            :: !bad;
          None
        end
        else
          Some
            { a_reason = reason; a_line_start = line;
              a_line_end = close_line + 1; a_used = false })
      (find_all source marker_domain)
  in
  (anns, List.rev !bad)

(* Multi-line expression spans, for widening comment ranges: a
   suppression above a multi-line [let] must cover the whole binding,
   not just its first line. [Pexp_let]/[Pexp_sequence] (and friends)
   are excluded because their spans run to the end of the enclosing
   body — covering the rest of a function from one comment would be far
   too broad; the tight per-binding spans come from [value_binding]. *)
let multiline_spans structure =
  let spans = ref [] in
  let add loc =
    let s = loc.Location.loc_start.Lexing.pos_lnum in
    let e = loc.Location.loc_end.Lexing.pos_lnum in
    if e > s then spans := (s, e) :: !spans
  in
  let iter =
    { Ast_iterator.default_iterator with
      value_binding =
        (fun self vb ->
          add vb.Parsetree.pvb_loc;
          Ast_iterator.default_iterator.value_binding self vb);
      case =
        (fun self c ->
          add c.Parsetree.pc_rhs.pexp_loc;
          Ast_iterator.default_iterator.case self c);
      expr =
        (fun self e ->
          (match e.Parsetree.pexp_desc with
           | Pexp_let _ | Pexp_sequence _ | Pexp_letmodule _
           | Pexp_letexception _ | Pexp_open _ -> ()
           | _ -> add e.pexp_loc);
          Ast_iterator.default_iterator.expr self e) }
  in
  iter.structure iter structure;
  List.sort_uniq compare !spans

(* Widen [stop] over every span chain starting inside the range. Spans
   are sorted by start line, so one left-to-right pass reaches the
   fixpoint. *)
let widen spans ~start ~stop =
  List.fold_left
    (fun acc (s, e) -> if s >= start && s <= acc then max acc e else acc)
    stop spans

let widen_ranges structure sups anns =
  let spans = multiline_spans structure in
  if spans <> [] then begin
    List.iter
      (fun s ->
        s.s_line_end <- widen spans ~start:s.s_line_start ~stop:s.s_line_end)
      sups;
    List.iter
      (fun a ->
        a.a_line_end <- widen spans ~start:a.a_line_start ~stop:a.a_line_end)
      anns
  end

(* ------------------------------------------------------------------ *)
(* AST checks (the per-file rules R1-R4)                               *)

let flatten lid = try Longident.flatten lid with _ -> []

let last2 parts =
  match List.rev parts with
  | f :: m :: _ -> Some (m, f)
  | _ -> None

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let pos_of loc =
  let p = loc.Location.loc_start in
  (p.Lexing.pos_lnum, p.Lexing.pos_cnum - p.Lexing.pos_bol)

let check_ast ~config ~path ~component ~module_name structure =
  let findings = ref [] in
  let enabled r = List.mem r config.enabled in
  let deterministic = List.mem component deterministic_components in
  let add r ~loc name message =
    if enabled r then begin
      let line, col = pos_of loc in
      findings :=
        { file = path; line; col; rule = rule_id r; name; message }
        :: !findings
    end
  in
  let check_ident ~loc lid =
    let parts = flatten lid in
    (match last2 parts with
     | Some ("Backend", f)
       when enabled R1 && component <> "pdm"
            && List.mem f backend_io_members ->
       add R1 ~loc (rule_name R1)
         (Printf.sprintf
            "direct Backend.%s outside lib/pdm bypasses the scheduler's \
             round charging; go through Pdm.read/write"
            f)
     | Some ("Pdm", "backend") when enabled R1 && component <> "pdm" ->
       add R1 ~loc (rule_name R1)
         "Pdm.backend hands out a raw backend; all I/O outside lib/pdm \
          must go through Pdm.read/write"
     | Some ("Pdm", (("peek" | "poke") as f))
       when enabled R1 && component <> "pdm"
            && not (List.mem module_name config.peek_allowlist) ->
       add R1 ~loc (rule_name R1)
         (Printf.sprintf
            "Pdm.%s is uncounted I/O; only allowlisted diagnostic modules \
             may use it (see DESIGN.md §9)"
            f)
     | _ -> ());
    (match parts with
     | "Random" :: _ when deterministic ->
       add R2 ~loc (rule_name R2)
         "Random.* in deterministic code; derive pseudo-randomness from a \
          seeded Pdm_util.Prng"
     | "Unix" :: _ ->
       let allowed =
         match List.assoc_opt component unix_component_allowlists with
         | None -> false
         | Some fns -> (
           match last2 parts with
           | Some ("Unix", f) -> List.mem f fns
           | _ -> false)
       in
       if not allowed then
         add R2 ~loc (rule_name R2)
           (match component with
            | "io" ->
              "Unix.* outside the audited lib/io storage allowlist \
               (openfile/close/ftruncate/fsync/map_file/getpid; see \
               DESIGN.md §13)"
            | "server" ->
              "Unix.* outside the audited lib/server socket allowlist \
               (socket/bind/listen/accept/connect/select/read/write/...; \
               see DESIGN.md §15)"
            | _ ->
              "Unix.* reads ambient system state; simulated results must \
               not depend on it")
     | _ -> ());
    (match last2 parts with
     | Some ("Sys", "time") ->
       add R2 ~loc (rule_name R2)
         "Sys.time is wall-clock; report timings through Pdm_util.Clock \
          (the single allowlisted site)"
     | Some ("Hashtbl", ("hash" | "seeded_hash")) when deterministic ->
       add R2 ~loc (rule_name R2)
         "polymorphic Hashtbl.hash is representation-dependent; \
          deterministic placements must use an explicit hash"
     | Some ("Hashtbl", "randomize") when deterministic ->
       add R2 ~loc (rule_name R2)
         "Hashtbl.randomize makes iteration order run-dependent"
     | Some ("List", "hd") ->
       add R3 ~loc (rule_name R3)
         "List.hd raises bare Failure on []; match and return a structured \
          error (or annotate with a proof the list is non-empty)"
     | Some ("List", "nth") ->
       add R3 ~loc (rule_name R3)
         "List.nth raises on out-of-range; use List.nth_opt and handle None"
     | Some ("Option", "get") ->
       add R3 ~loc (rule_name R3)
         "Option.get raises bare Invalid_argument; match on the option"
     | Some ("Array", f) when has_prefix ~prefix:"unsafe_" f ->
       add R3 ~loc (rule_name R3)
         (Printf.sprintf
            "Array.%s skips bounds checks; library code must stay memory-safe"
            f)
     | _ -> ())
  in
  let is_false_lit e =
    match e.Parsetree.pexp_desc with
    | Parsetree.Pexp_construct ({ txt = Longident.Lident "false"; _ }, None)
      ->
      true
    | _ -> false
  in
  let check_expr (e : Parsetree.expression) =
    match e.pexp_desc with
    | Pexp_ident { txt; loc } -> check_ident ~loc txt
    | Pexp_field (_, { txt; loc }) ->
      (match last2 (flatten txt) with
       | Some ("Backend", f)
         when enabled R1 && component <> "pdm"
              && List.mem f backend_io_members ->
         add R1 ~loc (rule_name R1)
           (Printf.sprintf
              "direct use of the Backend.%s closure outside lib/pdm \
               bypasses round charging"
              f)
       | _ -> ())
    | Pexp_assert inner when is_false_lit inner ->
      add R3 ~loc:e.pexp_loc (rule_name R3)
        "assert false in library code; prove the branch impossible in an \
         allow annotation or return a structured error"
    | Pexp_apply (fn, args) ->
      (match fn.pexp_desc with
       | Pexp_ident { txt; loc } when deterministic ->
         (match last2 (flatten txt) with
          | Some ("Hashtbl", "create") ->
            List.iter
              (fun (label, arg) ->
                match label with
                | (Asttypes.Labelled "random" | Asttypes.Optional "random")
                  when not (is_false_lit arg) ->
                  add R2 ~loc (rule_name R2)
                    "Hashtbl.create ~random:true randomizes iteration \
                     order; deterministic code must not opt in"
                | _ -> ())
              args
          | _ -> ())
       | _ -> ())
    | _ -> ()
  in
  let check_open (od : Parsetree.open_declaration) =
    match od.popen_expr.pmod_desc with
    | Pmod_ident { txt; loc } ->
      (match flatten txt with
       | head :: _ when List.mem head config.library_wrappers ->
         add R4 ~loc (rule_name R4)
           (Printf.sprintf
              "open of another library's module (%s); alias it instead \
               (module M = %s...)"
              head head)
       | _ -> ())
    | _ -> ()
  in
  let iter =
    { Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          check_expr e;
          Ast_iterator.default_iterator.expr self e);
      open_declaration =
        (fun self od ->
          check_open od;
          Ast_iterator.default_iterator.open_declaration self od) }
  in
  iter.structure iter structure;
  List.rev !findings

(* ------------------------------------------------------------------ *)
(* Whole-tree analysis: parse every unit, run the per-file rules, build
   the call graph, run the interprocedural rules, then apply each
   file's suppressions to the merged finding set. *)

type source_unit = {
  u_path : string;
  u_source : string;
  u_has_mli : bool;
}

type analysis = {
  a_findings : finding list;
  a_report : string option;  (* shared-state JSON when R6 ran *)
}

let parse_structure ~path source =
  let lexbuf = Lexing.from_string source in
  lexbuf.Lexing.lex_curr_p <-
    { Lexing.pos_fname = path; pos_lnum = 1; pos_bol = 0; pos_cnum = 0 };
  Parse.implementation lexbuf

type parsed = {
  p_path : string;
  p_sups : suppression list;
  p_anns : annotation list;
  p_pre : finding list;  (* meta + per-file findings, pre-suppression *)
  p_structure : Parsetree.structure option;
}

let parse_unit ~config u =
  let path = u.u_path in
  let component = component_of_path path in
  let module_name = module_of_path path in
  let sups, bad_sups = scan_suppressions ~path u.u_source in
  let anns, bad_anns = scan_annotations ~path u.u_source in
  match parse_structure ~path u.u_source with
  | exception exn ->
    let line, msg =
      match exn with
      | Syntaxerr.Error err ->
        let loc = Syntaxerr.location_of_error err in
        (fst (pos_of loc), "syntax error")
      | _ -> (1, Printexc.to_string exn)
    in
    { p_path = path; p_sups = []; p_anns = [];
      p_pre =
        [ { file = path; line; col = 0; rule = "parse";
            name = "parse-error"; message = msg } ];
      p_structure = None }
  | structure ->
    widen_ranges structure sups anns;
    let ast_findings =
      check_ast ~config ~path ~component ~module_name structure
    in
    let mli_findings =
      if
        List.mem R4 config.enabled && component <> "" && not u.u_has_mli
      then
        [ { file = path; line = 1; col = 0; rule = rule_id R4;
            name = rule_name R4;
            message =
              "library module without an .mli; every lib/ module declares \
               its interface" } ]
      else []
    in
    { p_path = path; p_sups = sups; p_anns = anns;
      p_pre = bad_sups @ bad_anns @ ast_findings @ mli_findings;
      p_structure = Some structure }

let name_of_rule_string r =
  match rule_of_string r with Some r -> rule_name r | None -> r

let convert_v (vf : Rules_v2.v_finding) =
  { file = vf.vf_file; line = vf.vf_line; col = vf.vf_col;
    rule = vf.vf_rule; name = name_of_rule_string vf.vf_rule;
    message = vf.vf_message }

let apply_suppressions sups_of findings =
  List.filter
    (fun f ->
      match
        List.find_opt
          (fun s ->
            s.s_rule = f.rule && s.s_line_start <= f.line
            && f.line <= s.s_line_end)
          (sups_of f.file)
      with
      | Some s ->
        s.s_used <- true;
        false
      | None -> true)
    findings

let sort_findings fs =
  List.sort
    (fun a b ->
      match compare a.file b.file with
      | 0 -> compare (a.line, a.col) (b.line, b.col)
      | c -> c)
    fs

let analyze ?(config = default_config) units =
  let enabled r = List.mem r config.enabled in
  let parsed = List.map (parse_unit ~config) units in
  let graph_units =
    List.filter_map
      (fun p ->
        match p.p_structure with
        | Some st -> Some (p.p_path, st)
        | None -> None)
      parsed
  in
  let need_graph = enabled R5 || enabled R6 || enabled R7 in
  let v_findings = ref [] in
  let report = ref None in
  if need_graph then begin
    let g = Callgraph.build ~wrappers:config.library_wrappers graph_units in
    if enabled R5 then begin
      let taint = Dataflow.taint g in
      v_findings :=
        !v_findings @ Rules_v2.r5 g taint ~deterministic_components
    end;
    if enabled R6 then begin
      let anns_by_file = Hashtbl.create 16 in
      List.iter
        (fun p -> Hashtbl.replace anns_by_file p.p_path p.p_anns)
        parsed;
      let annotated ~file ~line =
        match Hashtbl.find_opt anns_by_file file with
        | None -> None
        | Some anns ->
          (match
             List.find_opt
               (fun a -> a.a_line_start <= line && line <= a.a_line_end)
               anns
           with
           | Some a ->
             a.a_used <- true;
             Some a.a_reason
           | None -> None)
      in
      let sites, v6, entry_points =
        Rules_v2.r6 g ~entries:config.r6_entries ~annotated
      in
      report := Some (Rules_v2.report ~entry_points sites);
      v_findings := !v_findings @ v6
    end;
    if enabled R7 then
      v_findings := !v_findings @ Rules_v2.r7 g (Dataflow.covered g)
  end;
  let all =
    List.concat_map (fun p -> p.p_pre) parsed
    @ List.map convert_v !v_findings
  in
  let sups_by_file = Hashtbl.create 16 in
  List.iter
    (fun p -> Hashtbl.replace sups_by_file p.p_path p.p_sups)
    parsed;
  let sups_of file =
    Option.value (Hashtbl.find_opt sups_by_file file) ~default:[]
  in
  let kept = apply_suppressions sups_of all in
  let unused =
    List.concat_map
      (fun p ->
        List.filter_map
          (fun s ->
            match rule_of_string s.s_rule with
            | Some r when List.mem r config.enabled && not s.s_used ->
              Some
                { file = p.p_path; line = s.s_line_start; col = 0;
                  rule = "syntax"; name = "unused-suppression";
                  message =
                    Printf.sprintf
                      "suppression of %s (%S) matches no finding on lines \
                       %d-%d; delete it"
                      s.s_rule s.s_reason s.s_line_start s.s_line_end }
            | _ -> None)
          p.p_sups)
      parsed
  in
  { a_findings = sort_findings (kept @ unused); a_report = !report }

(* ------------------------------------------------------------------ *)
(* Single-unit compatibility wrappers                                  *)

let check_source ?(config = default_config) ?(has_mli = true) ~path source =
  (analyze ~config
     [ { u_path = path; u_source = source; u_has_mli = has_mli } ])
    .a_findings

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let unit_of_file path =
  match read_file path with
  | exception Sys_error msg -> Error msg
  | source ->
    Ok
      { u_path = path; u_source = source;
        u_has_mli =
          Sys.file_exists (Filename.remove_extension path ^ ".mli") }

let check_file ?(config = default_config) path =
  match unit_of_file path with
  | Error msg ->
    [ { file = path; line = 1; col = 0; rule = "parse"; name = "io-error";
        message = msg } ]
  | Ok u -> (analyze ~config [ u ]).a_findings

let rec files_under ~keep path =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort compare
    |> List.concat_map (fun entry ->
        if String.length entry = 0 || entry.[0] = '.' || entry = "_build"
        then []
        else files_under ~keep (Filename.concat path entry))
  else if keep path then [ path ]
  else []

let ml_files_under path =
  files_under ~keep:(fun p -> Filename.check_suffix p ".ml") path

(* ------------------------------------------------------------------ *)
(* Wrapper-module discovery from the dune files (satellite of the v2
   pass: the hygiene list must not be hand-maintained).               *)

type sexp = SAtom of string | SList of sexp list

(* Minimal s-expression reader, good enough for dune files: atoms,
   parens, "..." strings, and ; comments. Unbalanced input yields what
   was read — a truncated list never crashes the lint. *)
let parse_sexps src =
  let n = String.length src in
  let rec skip i =
    if i >= n then i
    else
      match src.[i] with
      | ' ' | '\t' | '\n' | '\r' -> skip (i + 1)
      | ';' ->
        let rec eol j = if j >= n || src.[j] = '\n' then j else eol (j + 1) in
        skip (eol i)
      | _ -> i
  in
  let atom i =
    let rec go j =
      if j >= n then j
      else
        match src.[j] with
        | ' ' | '\t' | '\n' | '\r' | '(' | ')' | ';' -> j
        | _ -> go (j + 1)
    in
    let j = go i in
    (SAtom (String.sub src i (j - i)), j)
  in
  let rec one i =
    match src.[i] with
    | '(' ->
      let items, j = many (i + 1) [] in
      (SList items, j)
    | '"' ->
      let rec str j =
        if j >= n then j
        else if src.[j] = '"' && src.[j - 1] <> '\\' then j + 1
        else str (j + 1)
      in
      let j = str (i + 1) in
      (SAtom (String.sub src i (j - i)), j)
    | _ -> atom i
  and many i acc =
    let i = skip i in
    if i >= n then (List.rev acc, i)
    else if src.[i] = ')' then (List.rev acc, i + 1)
    else
      let s, j = one i in
      many j (s :: acc)
  in
  fst (many 0 [])

let library_names_of_dune src =
  List.concat_map
    (function
      | SList (SAtom "library" :: fields) ->
        List.filter_map
          (function
            | SList [ SAtom "name"; SAtom nm ] ->
              Some (String.capitalize_ascii nm)
            | _ -> None)
          fields
      | _ -> [])
    (parse_sexps src)

let wrappers_from_dune paths =
  paths
  |> List.concat_map
       (files_under ~keep:(fun p -> Filename.basename p = "dune"))
  |> List.concat_map (fun p ->
         match read_file p with
         | exception Sys_error _ -> []
         | src -> library_names_of_dune src)
  |> List.sort_uniq compare

let analyze_paths ?(config = default_config) paths =
  let wrappers =
    List.sort_uniq compare
      (config.library_wrappers @ wrappers_from_dune paths)
  in
  let config = { config with library_wrappers = wrappers } in
  let io_errors = ref [] in
  let units =
    List.concat_map ml_files_under paths
    |> List.filter_map (fun path ->
           match unit_of_file path with
           | Ok u -> Some u
           | Error msg ->
             io_errors :=
               { file = path; line = 1; col = 0; rule = "parse";
                 name = "io-error"; message = msg }
               :: !io_errors;
             None)
  in
  let result = analyze ~config units in
  { result with
    a_findings = sort_findings (!io_errors @ result.a_findings) }

(* ------------------------------------------------------------------ *)
(* Output                                                              *)

let to_text f =
  Printf.sprintf "%s:%d:%d: [%s %s] %s" f.file f.line f.col f.rule f.name
    f.message

let json_escape = Rules_v2.json_escape

let to_json findings =
  let one f =
    Printf.sprintf
      "{\"file\":\"%s\",\"line\":%d,\"col\":%d,\"rule\":\"%s\",\"name\":\"%s\",\"message\":\"%s\"}"
      (json_escape f.file) f.line f.col (json_escape f.rule)
      (json_escape f.name) (json_escape f.message)
  in
  "[" ^ String.concat "," (List.map one findings) ^ "]"

(* Exit-code semantics for CI: 0 clean, 1 findings, 2 when any file
   could not be read or parsed (the tree is not even checkable). *)
let exit_code findings =
  if findings = [] then 0
  else if List.exists (fun f -> f.rule = "parse") findings then 2
  else 1
