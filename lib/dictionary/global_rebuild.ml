module Pdm = Pdm_sim.Pdm

let log = Logs.Src.create "pdm_dict.rebuild" ~doc:"global rebuilding events"

module Log = (val Logs.src_log log : Logs.LOG)

type config = {
  universe : int;
  degree : int;
  value_bytes : int;
  block_words : int;
  initial_capacity : int;
  max_capacity : int;
  transfer_per_op : int;
  seed : int;
}

type migration = {
  shadow : Basic_dict.t;
  mutable cursor : int;          (* next bucket of the active to drain *)
  mutable pending : (int * Bytes.t) list;  (* entries read, not yet moved *)
}

type t = {
  cfg : config;
  machine : int Pdm.t;
  mutable active : Basic_dict.t;
  mutable active_group : int;    (* 0 or 1: which disk group holds it *)
  mutable migration : migration option;
  mutable rebuilds : int;
  mutable seed_counter : int;
}

let plan_for cfg ~capacity ~seed =
  Basic_dict.plan ~universe:cfg.universe ~capacity
    ~block_words:cfg.block_words ~degree:cfg.degree
    ~value_bytes:cfg.value_bytes ~seed ()

let create cfg =
  if cfg.transfer_per_op < 1 then
    invalid_arg "Global_rebuild.create: transfer_per_op >= 1";
  if cfg.initial_capacity < 1 || cfg.max_capacity < cfg.initial_capacity then
    invalid_arg "Global_rebuild.create: capacities";
  let max_plan = plan_for cfg ~capacity:cfg.max_capacity ~seed:cfg.seed in
  let blocks_per_disk = Basic_dict.blocks_per_disk max_plan in
  let machine =
    Pdm.create ~disks:(2 * cfg.degree) ~block_size:cfg.block_words
      ~blocks_per_disk ()
  in
  let first = plan_for cfg ~capacity:cfg.initial_capacity ~seed:cfg.seed in
  let active = Basic_dict.create ~machine ~disk_offset:0 ~block_offset:0 first in
  { cfg; machine; active; active_group = 0; migration = None; rebuilds = 0;
    seed_counter = cfg.seed + 1 }

let machine t = t.machine
let config t = t.cfg

(* Invariant: every live key resides in exactly one of the active
   instance, the in-flight pending list, or the shadow. *)
let size t =
  Basic_dict.size t.active
  + (match t.migration with
     | None -> 0
     | Some m -> Basic_dict.size m.shadow + List.length m.pending)

let capacity t =
  match t.migration with
  | None -> (Basic_dict.config t.active).Basic_dict.capacity
  | Some m -> (Basic_dict.config m.shadow).Basic_dict.capacity

let rebuilds t = t.rebuilds
let rebuilding t = t.migration <> None

let find t key =
  match t.migration with
  | None -> Basic_dict.find t.active key
  | Some m ->
    (* One combined fetch of the shadow's plan and the active's. Fresh
       data lives in the shadow; fall back to pending entries in
       flight, then the active instance. *)
    let blocks, offs =
      Basic_dict.read_plans [| (m.shadow, key); (t.active, key) |]
    in
    (match Basic_dict.find_in m.shadow key blocks ~off:offs.(0) with
     | Some v -> Some v
     | None ->
       (match List.assoc_opt key m.pending with
        | Some v -> Some v
        | None -> Basic_dict.find_in t.active key blocks ~off:offs.(1)))

let mem t key = find t key <> None

(* Move up to [budget] entries from the active instance to the shadow;
   when the active is drained, complete the hand-over. *)
let migrate_step t =
  match t.migration with
  | None -> ()
  | Some m ->
    let budget = ref t.cfg.transfer_per_op in
    let continue_ = ref true in
    while !budget > 0 && !continue_ do
      match m.pending with
      | (k, v) :: rest ->
        m.pending <- rest;
        (* The exactly-one-residence invariant means k cannot already
           be in the shadow. *)
        Basic_dict.insert m.shadow k v;
        decr budget
      | [] ->
        if m.cursor >= Basic_dict.bucket_count t.active then begin
          (* Drained: the shadow takes over. *)
          Log.debug (fun f ->
              f "hand-over #%d complete: capacity %d, %d keys"
                (t.rebuilds + 1)
                (Basic_dict.config m.shadow).Basic_dict.capacity
                (Basic_dict.size m.shadow));
          Basic_dict.clear t.active;
          t.active <- m.shadow;
          t.active_group <- 1 - t.active_group;
          t.migration <- None;
          t.rebuilds <- t.rebuilds + 1;
          continue_ := false
        end
        else begin
          (* Draining moves the bucket's records out of the active
             instance, preserving the invariant. At most one bucket is
             drained per step, so the per-operation I/O stays O(1). *)
          m.pending <- Basic_dict.drain_bucket t.active m.cursor;
          m.cursor <- m.cursor + 1;
          decr budget
        end
    done

let start_migration t ~next_cap =
  Log.debug (fun f ->
      f "migration started: %d -> %d capacity (size %d)"
        (Basic_dict.config t.active).Basic_dict.capacity next_cap (size t));
  t.seed_counter <- t.seed_counter + 1;
  let plan = plan_for t.cfg ~capacity:next_cap ~seed:t.seed_counter in
  let shadow =
    Basic_dict.create ~machine:t.machine
      ~disk_offset:((1 - t.active_group) * t.cfg.degree)
      ~block_offset:0 plan
  in
  t.migration <- Some { shadow; cursor = 0; pending = [] }

let maybe_start_migration t =
  if t.migration = None then begin
    let cap = (Basic_dict.config t.active).Basic_dict.capacity in
    let n = size t in
    if 2 * n >= cap && cap < t.cfg.max_capacity then
      (* Growing: double before the active instance fills. *)
      start_migration t ~next_cap:(min t.cfg.max_capacity (2 * cap))
    else if
      8 * n < cap && cap > t.cfg.initial_capacity
      (* Shrinking: reclaim space once occupancy falls below 1/8; the
         1/8-vs-1/2 hysteresis keeps grow/shrink cycles from
         thrashing. *)
    then
      start_migration t
        ~next_cap:(max t.cfg.initial_capacity (cap / 2))
  end

let insert t key value =
  if size t >= t.cfg.max_capacity then
    invalid_arg "Global_rebuild.insert: max capacity reached";
  (match t.migration with
   | None -> Basic_dict.insert t.active key value
   | Some m ->
     (* Fresh data goes to the shadow. Remove any other residence of
        the key so exactly one copy remains. *)
     m.pending <- List.remove_assoc key m.pending;
     ignore (Basic_dict.delete t.active key);
     Basic_dict.insert m.shadow key value);
  maybe_start_migration t;
  migrate_step t

let delete t key =
  let hit =
    match t.migration with
    | None -> Basic_dict.delete t.active key
    | Some m ->
      let in_shadow = Basic_dict.delete m.shadow key in
      let in_pending = List.mem_assoc key m.pending in
      if in_pending then m.pending <- List.remove_assoc key m.pending;
      let in_active = Basic_dict.delete t.active key in
      in_shadow || in_pending || in_active
  in
  maybe_start_migration t;
  migrate_step t;
  hit
