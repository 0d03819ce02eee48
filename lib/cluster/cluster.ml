module Pdm = Pdm_sim.Pdm
module Journal = Pdm_sim.Journal
module Trace = Pdm_sim.Trace
module Sanitize = Pdm_sim.Sanitize
module Opd = Pdm_dictionary.One_probe_dynamic
module Engine = Pdm_engine.Engine
module IntSet = Set.Make (Int)
module IntMap = Map.Make (Int)

exception Unavailable of int

exception Retries_exhausted of { key : int; attempts : int }

let describe = function
  | Unavailable k ->
    Some
      (Printf.sprintf
         "cluster: key %d unavailable: every replica shard is down" k)
  | Retries_exhausted { key; attempts } ->
    Some
      (Printf.sprintf
         "cluster: key %d: retry budget exhausted after %d attempts (every \
          replica shard timed out)"
         key attempts)
  | _ -> None

let () =
  Printexc.register_printer (function
    | Unavailable k ->
      Some (Printf.sprintf "Cluster.Unavailable(key %d)" k)
    | Retries_exhausted { key; attempts } ->
      Some
        (Printf.sprintf "Cluster.Retries_exhausted(key %d, %d attempts)" key
           attempts)
    | _ -> None)

type config = {
  replicas : int;
  shard_capacity : int;
  universe : int;
  block_words : int;
  value_bytes : int;
  journaled : bool;
  seed : int;
  degree : int;
  levels : int;
  batch : int;
  trace_rounds : int;
  net : Transport.spec option;
}

let default_config =
  { replicas = 2; shard_capacity = 256; universe = 1 lsl 20; block_words = 32;
    value_bytes = 8; journaled = false; seed = 42; degree = 5; levels = 2;
    batch = 64; trace_rounds = 0; net = None }

(* A write message parked for a shard the router cannot reach: it
   piggybacks (in order) on the next exchange that gets through. *)
type pending = { token : int; perform : unit -> bool }

type shard_state = {
  id : int;
  dict : Opd.t;
  engine : Engine.t;
  mutable alive : bool;
  mutable applied : bool IntMap.t;
      (* idempotency token -> memoized reply: the at-most-once table *)
  mutable repairs : pending list;  (* oldest first *)
}

(* A duplicated write the network will redeliver [release] windows
   later; the idempotency token is what keeps the replay harmless. *)
type dup = {
  release : int;
  dup_shard : int;
  dup_token : int;
  replay : unit -> bool;
}

type t = {
  cfg : config;
  mutable topology : Topology.t;
  mutable states : (int * shard_state) list;  (* assoc, ascending id *)
  mutable registry : IntSet.t;  (* live keys: the migration scan set *)
  mutable pending_crash : Journal.crash_point option;
  mutable inflight : (Topology.t * Migration.plan) option;
  net : Transport.t option;
  detector : Detector.t;
  mutable ops_seen : int;  (* logical op clock (transport windows) *)
  mutable token_ctr : int;
  mutable dup_queue : dup list;  (* insertion order *)
  mutable batches : int;
  mutable batch_rounds : int;
  mutable net_rounds : int;  (* transport ticks charged by the router *)
  mutable direct_lookups : int;
  mutable retries : int;
  mutable hedges : int;
  mutable failovers : int;
  mutable fallback_hits : int;
  mutable queued_repairs : int;
  mutable dirty : int list;
      (* keys whose update crashed mid-write: their replicas may
         disagree until {!recover} reconciles them to the journal
         outcome *)
}

(* Matches Sim_run.crash_survives: points at or past the commit header
   leave a committed log that recovery replays. The cluster needs the
   same predicate to keep its key registry honest across an injected
   crash. *)
let crash_survives : Journal.crash_point -> bool = function
  | Before_log | During_log _ | After_log -> false
  | After_commit | During_apply _ | After_apply -> true

let make_state cfg (s : Topology.shard) =
  let { Shard.dict; engine; _ } =
    Shard.create ~journaled:cfg.journaled ~universe:cfg.universe
      ~capacity:cfg.shard_capacity ~block_words:cfg.block_words
      ~value_bytes:cfg.value_bytes ~degree:cfg.degree ~levels:cfg.levels
      ~seed:cfg.seed ~batch:cfg.batch s.id
  in
  if cfg.trace_rounds > 0 then
    Pdm.set_trace (Opd.machine dict)
      (Some (Trace.create ~shard:s.id ~capacity:cfg.trace_rounds ()));
  { id = s.id; dict; engine; alive = true; applied = IntMap.empty;
    repairs = [] }

let validate_config cfg topo =
  if cfg.replicas < 1 then invalid_arg "Cluster: replicas must be >= 1";
  if cfg.replicas > Topology.count topo then
    invalid_arg "Cluster: more replicas than shards";
  if cfg.shard_capacity < 8 then
    invalid_arg "Cluster: shard_capacity must be >= 8";
  if cfg.batch < 1 then invalid_arg "Cluster: batch must be >= 1";
  if cfg.trace_rounds < 0 then
    invalid_arg "Cluster: trace_rounds must be >= 0";
  match cfg.net with
  | Some spec when spec.Transport.partitions <> [] && cfg.replicas < 2 ->
    invalid_arg "Cluster: partitions need replicas >= 2 to stay available"
  | Some _ | None -> ()

let create ?(config = default_config) topo =
  validate_config config topo;
  { cfg = config; topology = topo;
    states =
      List.map (fun s -> (s.Topology.id, make_state config s))
        (Topology.shards topo);
    registry = IntSet.empty; pending_crash = None; inflight = None;
    net = Option.map Transport.create config.net;
    detector = Detector.create (); ops_seen = 0; token_ctr = 0;
    dup_queue = []; batches = 0; batch_rounds = 0; net_rounds = 0;
    direct_lookups = 0; retries = 0; hedges = 0; failovers = 0;
    fallback_hits = 0; queued_repairs = 0; dirty = [] }

let topology t = t.topology
let config t = t.cfg
let shard_ids t = List.map fst t.states

let state t id =
  match List.assoc_opt id t.states with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Cluster: no shard %d" id)

let shard_machine t id = Opd.machine (state t id).dict

let placement_in t topo key =
  Placement.replicas topo ~seed:t.cfg.seed ~r:t.cfg.replicas key

let placement t key = placement_in t t.topology key

let size t = IntSet.cardinal t.registry

let shard_sizes t =
  List.map (fun (id, s) -> (id, Opd.size s.dict)) t.states

let shard_down t id = not (state t id).alive

let suspects t = Detector.suspects t.detector

let kill_shard t id =
  let s = state t id in
  s.alive <- false;
  (* a dead shard never flushes: drop its parked writes with it *)
  s.repairs <- [];
  let m = Opd.machine s.dict in
  for d = 0 to Pdm.physical_disks m - 1 do
    if not (Pdm.disk_down m d) then Pdm.kill_disk m d
  done

let set_crash t p =
  if (not t.cfg.journaled) && p <> None then
    invalid_arg "Cluster.set_crash: cluster is not journaled";
  t.pending_crash <- p

let inject_net t pin =
  match t.net with
  | None -> invalid_arg "Cluster.inject_net: cluster has no transport"
  | Some tr -> Transport.inject tr ~at:t.ops_seen pin

(* --- the message layer ---------------------------------------------

   With [net = None] every helper below collapses to the direct call
   it wraps; with a transport, each router↔shard exchange goes through
   {!Transport.attempt} with per-attempt timeouts, seeded backoff, a
   bounded retry budget, and the suspicion detector fed by misses. *)

(* pdm-lint: domain local — token counter on the router; one router domain issues all tokens *)
let fresh_token t =
  let token = t.token_ctr in
  t.token_ctr <- token + 1;
  token

(* A retry that timed out is visible in the shard's I/O trace, tagged
   with its (1-based) attempt number. *)
let record_net_trace t st ~write ~attempt =
  if t.cfg.trace_rounds > 0 then
    match Pdm.trace (Opd.machine st.dict) with
    | Some trace ->
      Trace.record trace
        { Trace.round = Pdm.rounds_total (Opd.machine st.dict);
          op = (if write then Trace.Write else Trace.Read);
          per_disk = [||]; retries = 0; degraded = true; shard = st.id;
          attempt = attempt + 1 }
    | None -> ()

(* Apply a write message at most once: the token table memoizes the
   shard's reply, so a retry after a lost reply (or a duplicated
   delivery) returns the remembered answer instead of re-applying.
   [drop_tokens] is the seeded fault-injection control that skips the
   check — exploration must catch the resulting divergence. *)
(* pdm-lint: domain local — migration cursor owned by the router domain *)
let apply_once tr st ~token (perform : unit -> bool) =
  if Transport.drop_tokens tr then perform ()
  else
    match IntMap.find_opt token st.applied with
    | Some r -> r
    | None ->
      let r = perform () in
      st.applied <- IntMap.add token r st.applied;
      r

(* pdm-lint: domain local — repair queue drained only by the router domain *)
let flush_repairs tr st =
  match st.repairs with
  | [] -> ()
  | rs ->
    st.repairs <- [];
    List.iter (fun p -> ignore (apply_once tr st ~token:p.token p.perform)) rs

let deliver_duplicate t tr (d : dup) =
  match List.assoc_opt d.dup_shard t.states with
  | Some st when st.alive ->
    ignore (apply_once tr st ~token:d.dup_token d.replay)
  | Some _ | None -> ()

(* Open the next logical window [start, start + len) on the transport
   clock and deliver any duplicated writes whose lag has expired. *)
(* pdm-lint: domain local — round-window counters owned by the router domain *)
let begin_window t len =
  match t.net with
  | None -> ()
  | Some tr ->
    let start = t.ops_seen in
    t.ops_seen <- start + len;
    Transport.set_window tr ~start ~len;
    let due, later =
      List.partition (fun d -> d.release <= start) t.dup_queue
    in
    t.dup_queue <- later;
    List.iter (deliver_duplicate t tr) due

(* Every tick the router charges itself must equal what the transport
   assessed; the sanitizer cross-checks the two independently kept
   totals so a future path that forgets to charge fails loudly. *)
let net_sanity t =
  match t.net with
  | None -> ()
  | Some tr ->
    if Pdm.sanitize_enabled () && t.net_rounds <> Transport.ticks tr then
      Sanitize.fail ~check:"cluster-net-rounds"
        (Printf.sprintf
           "router charged %d net rounds, transport assessed %d"
           t.net_rounds (Transport.ticks tr))

(* pdm-lint: domain local — retry ledger on the router's own state *)
let charge_retry t tr ~op ~attempt =
  t.retries <- t.retries + 1;
  t.net_rounds <- t.net_rounds + Transport.charge_backoff tr ~op ~attempt

(* One logical write message to shard [st]: delivered-with-retries
   under the transport; when the budget runs out the write parks in
   the shard's repair queue (it will piggyback on the next delivered
   exchange) and [fallback] supplies the reply the router answers
   with. Retries reuse the idempotency token, so a reply lost after
   the shard applied does not double-apply. *)
(* pdm-lint: domain local — shard scheduler state; each shard is owned exclusively by the router loop today *)
let write_rpc t tr st ~fallback (perform : unit -> bool) =
  let token = fresh_token t in
  let op = Transport.window_start tr in
  let spec = Transport.spec_of tr in
  let rec go a =
    if a >= spec.Transport.max_attempts then begin
      st.repairs <- st.repairs @ [ { token; perform } ];
      t.queued_repairs <- t.queued_repairs + 1;
      fallback ()
    end
    else begin
      if a > 0 then charge_retry t tr ~op ~attempt:(a - 1);
      let d = Transport.attempt tr ~shard:st.id ~write:true ~attempt:a in
      t.net_rounds <- t.net_rounds + d.Transport.cost;
      if d.Transport.request_delivered then begin
        flush_repairs tr st;
        let r = apply_once tr st ~token perform in
        (match d.Transport.duplicate_lag with
         | Some lag ->
           t.dup_queue <-
             t.dup_queue
             @ [ { release = op + lag; dup_shard = st.id; dup_token = token;
                   replay = perform } ]
         | None -> ());
        if d.Transport.replied then begin
          Detector.record_reply t.detector st.id;
          r
        end
        else begin
          Detector.record_miss t.detector st.id;
          record_net_trace t st ~write:true ~attempt:a;
          go (a + 1)
        end
      end
      else begin
        Detector.record_miss t.detector st.id;
        record_net_trace t st ~write:true ~attempt:a;
        go (a + 1)
      end
    end
  in
  go 0

(* One read exchange with [st]: up to [budget] attempts; [None] means
   every attempt timed out (the caller hedges or fails over). The
   shard does the lookup work whenever the request lands — even if the
   reply is lost, those machine rounds were honestly spent. *)
(* pdm-lint: domain local — shard scheduler state; each shard is owned exclusively by the router loop today *)
let read_rpc t tr st ~budget ~attempts_used key =
  let op = Transport.window_start tr in
  let rec go a =
    if a >= budget then None
    else begin
      if a > 0 then charge_retry t tr ~op ~attempt:(a - 1);
      incr attempts_used;
      let d = Transport.attempt tr ~shard:st.id ~write:false ~attempt:a in
      t.net_rounds <- t.net_rounds + d.Transport.cost;
      if d.Transport.request_delivered then flush_repairs tr st;
      if d.Transport.replied then begin
        Detector.record_reply t.detector st.id;
        Some (Opd.find st.dict key)
      end
      else begin
        if d.Transport.request_delivered then
          ignore (Opd.find st.dict key);
        Detector.record_miss t.detector st.id;
        record_net_trace t st ~write:false ~attempt:a;
        go (a + 1)
      end
    end
  in
  go 0

(* The serving-order replica states of a key: alive shards in
   placement order, except that with a transport the suspicion
   detector demotes suspected shards behind unsuspected ones — the
   heartbeat-free replacement for consulting [alive] omnisciently.
   Counts a failover when the placement head is not served first. *)
(* pdm-lint: domain local — availability mask recomputed by the router between windows *)
let serving_states t ids ~count_failover =
  let alive =
    List.filter_map
      (fun id ->
        match List.assoc_opt id t.states with
        | Some s when s.alive -> Some s
        | _ -> None)
      ids
  in
  let states =
    match t.net with
    | None -> alive
    | Some _ ->
      let fresh, suspect =
        List.partition
          (fun s -> not (Detector.suspected t.detector s.id))
          alive
      in
      fresh @ suspect
  in
  (if count_failover then
     match (ids, states) with
     | head :: _, s :: _ when s.id <> head -> t.failovers <- t.failovers + 1
     | _ -> ());
  states

(* Hedged read walk, two phases: first every candidate in serving
   order gets [hedge_after] quick attempts (hedging to the next after
   each miss), then — only if the whole first pass missed — every
   candidate gets its remaining budget up to [max_attempts]. The
   second pass matters when the detector has demoted a partitioned
   shard to the back: a one-attempt unlucky timeout on the healthy
   head must not leave the full budget stranded on the unreachable
   replica. With hedging off there is a single full-budget pass.
   Raises when every candidate exhausts [max_attempts]. *)
(* pdm-lint: domain local — per-window transport tallies owned by the router domain *)
let net_read t tr topo key ~count_failover =
  match serving_states t (placement_in t topo key) ~count_failover with
  | [] -> None
  | cands ->
    let spec = Transport.spec_of tr in
    let hedging = spec.Transport.hedge_after >= 0 in
    let max_attempts = spec.Transport.max_attempts in
    let attempts_used = ref 0 in
    let rec pass cands ~budget ~hedges =
      match cands with
      | [] -> None
      | st :: rest ->
        (match read_rpc t tr st ~budget ~attempts_used key with
         | Some answer -> Some answer
         | None ->
           if hedges && rest <> [] then t.hedges <- t.hedges + 1;
           pass rest ~budget ~hedges)
    in
    let answer =
      if not hedging then pass cands ~budget:max_attempts ~hedges:false
      else begin
        let quick = min spec.Transport.hedge_after max_attempts in
        match pass cands ~budget:quick ~hedges:true with
        | Some _ as a -> a
        | None -> pass cands ~budget:(max_attempts - quick) ~hedges:false
      end
    in
    (match answer with
     | Some answer -> Some answer
     | None -> raise (Retries_exhausted { key; attempts = !attempts_used }))

let find_via t topo key =
  match serving_states t (placement_in t topo key) ~count_failover:true with
  | [] -> None
  | s :: _ -> Some (Opd.find s.dict key)

(* pdm-lint: domain local — scatter-gather scratch owned by the router for the duration of the call *)
let find t key =
  begin_window t 1;
  t.direct_lookups <- t.direct_lookups + 1;
  let result =
    match t.net with
    | None ->
      (match find_via t t.topology key with
       | None -> raise (Unavailable key)
       | Some (Some _ as v) -> v
       | Some None ->
         (* a crashed migration may not have copied this key yet: its
            data still lives at the old placement *)
         (match t.inflight with
          | None -> None
          | Some (old_topo, _) ->
            (match find_via t old_topo key with
             | Some (Some _ as v) ->
               t.fallback_hits <- t.fallback_hits + 1;
               v
             | Some None | None -> None)))
    | Some tr ->
      (match net_read t tr t.topology key ~count_failover:true with
       | None -> raise (Unavailable key)
       | Some (Some _ as v) -> v
       | Some None ->
         (match t.inflight with
          | None -> None
          | Some (old_topo, _) ->
            (match net_read t tr old_topo key ~count_failover:false with
             | Some (Some _ as v) ->
               t.fallback_hits <- t.fallback_hits + 1;
               v
             | Some None | None -> None)))
  in
  net_sanity t;
  result

(* One client update: write the value to every alive replica shard,
   secondaries first and the primary last, arming any pending injected
   crash on the primary's journaled write. Reads are served by the
   first alive shard, so the primary's journal outcome is exactly the
   update's visibility — the property the differential crash tests
   pin down. The key registry tracks what the journal protocol
   promises survives. Under a transport each replica write is a
   message with its own idempotency token; one that cannot be
   delivered within the retry budget parks in the shard's repair
   queue, and [fallback] supplies the router's reply for a parked
   primary. *)
(* pdm-lint: domain local — placement epoch state advanced only by the router domain *)
let update t key ~on_survive ~fallback ~secondary ~primary =
  begin_window t 1;
  let ids = placement t key in
  let alive =
    List.filter_map
      (fun id ->
        match List.assoc_opt id t.states with
        | Some s when s.alive -> Some s
        | _ -> None)
      ids
  in
  (match (ids, alive) with
   | head :: _, s :: _ when s.id <> head -> t.failovers <- t.failovers + 1
   | _ -> ());
  match alive with
  | [] -> raise (Unavailable key)
  | prim :: rest ->
    let crash = t.pending_crash in
    t.pending_crash <- None;
    (match t.net with
     | None -> List.iter (fun st -> ignore (secondary st)) rest
     | Some tr ->
       List.iter
         (fun st ->
           ignore
             (write_rpc t tr st
                ~fallback:(fun () -> true)
                (fun () -> secondary st)))
         rest);
    (match crash with
     | Some p -> Opd.set_crash prim.dict (Some p)
     | None -> ());
    let run_primary () =
      match t.net with
      | None -> primary prim
      | Some tr -> write_rpc t tr prim ~fallback (fun () -> primary prim)
    in
    (match run_primary () with
     | result ->
       if crash <> None then Opd.set_crash prim.dict None;
       on_survive ();
       net_sanity t;
       result
     | exception Journal.Crashed ->
       (* the registry mirrors the journal outcome: a surviving update
          is reflected, a vanished one is not (the key was never added
          / never removed) *)
       (match crash with
        | Some p when crash_survives p -> on_survive ()
        | _ -> ());
       (* the secondaries were written before the primary crashed, so
          the replicas of this key may now disagree with the journal
          outcome; remember it for the write-repair pass in {!recover},
          before a hedged or failover read can observe the split *)
       t.dirty <- key :: t.dirty;
       raise Journal.Crashed)

(* pdm-lint: domain local — routing bookkeeping mutated only by the single router domain *)
let insert t key value =
  ignore
    (update t key
       ~on_survive:(fun () -> t.registry <- IntSet.add key t.registry)
       ~fallback:(fun () -> true)
       ~secondary:(fun s -> Opd.insert s.dict key value; true)
       ~primary:(fun s -> Opd.insert s.dict key value; true))

(* pdm-lint: domain local — routing bookkeeping mutated only by the single router domain *)
let delete t key =
  update t key
    ~on_survive:(fun () -> t.registry <- IntSet.remove key t.registry)
    ~fallback:(fun () -> IntSet.mem key t.registry)
    ~secondary:(fun s -> ignore (Opd.delete s.dict key); true)
    ~primary:(fun s -> Opd.delete s.dict key)

(* pdm-lint: domain local — scatter-gather scratch and reply tables owned by the router for the call *)
let find_batch t keys =
  match keys with
  | [] -> []
  | keys ->
    let n = List.length keys in
    begin_window t n;
    t.batches <- t.batches + 1;
    let answers = Array.make n None in
    (* route each position to its serving shard, grouping per shard in
       encounter order *)
    let groups = ref [] in
    (* (shard_state, (pos, key) list in reverse) assoc by shard id *)
    List.iteri
      (fun pos key ->
        t.direct_lookups <- t.direct_lookups + 1;
        match serving_states t (placement t key) ~count_failover:true with
        | [] -> raise (Unavailable key)
        | s :: _ ->
          (match List.assoc_opt s.id !groups with
           | Some cell -> cell := (pos, key) :: !cell
           | None -> groups := (s.id, ref [ (pos, key) ]) :: !groups))
      keys;
    (* scatter-gather: each shard's engine serves its group as one
       batched run; shards are independent machines, so the cluster
       pays the slowest shard's rounds. Under a transport the whole
       group is one logical exchange: a timed-out group is retried
       (the engine rounds of a lost reply were still honestly spent),
       and past the hedge threshold its keys fall back to per-key
       hedged reads. *)
    let leftover = ref [] in
    let max_delta = ref 0 in
    List.iter
      (fun (id, cell) ->
        let s = state t id in
        let entries = List.rev !cell in
        let before = Engine.round s.engine in
        (* a storage failure leaves [serve] as an exception, before
           the exchange is recorded as replied or missed *)
        let serve () =
          List.map
            (function
              | Ok (o : Engine.outcome) -> o.Engine.value | Error e -> raise e)
            (Engine.run s.engine
               (List.map (fun (_, key) -> Engine.Lookup key) entries))
        in
        let fill outs =
          List.iter2 (fun (pos, _) v -> answers.(pos) <- v) entries outs
        in
        (match t.net with
         | None -> fill (serve ())
         | Some tr ->
           let spec = Transport.spec_of tr in
           let budget =
             if spec.Transport.hedge_after >= 0 then
               min spec.Transport.hedge_after spec.Transport.max_attempts
             else spec.Transport.max_attempts
           in
           let op = Transport.window_start tr in
           let rec go a =
             if a >= budget then begin
               if spec.Transport.hedge_after >= 0 then
                 t.hedges <- t.hedges + 1;
               leftover := entries @ !leftover
             end
             else begin
               if a > 0 then charge_retry t tr ~op ~attempt:(a - 1);
               let d =
                 Transport.attempt tr ~shard:id ~write:false ~attempt:a
               in
               t.net_rounds <- t.net_rounds + d.Transport.cost;
               if d.Transport.request_delivered then begin
                 flush_repairs tr s;
                 let outs = serve () in
                 if d.Transport.replied then begin
                   Detector.record_reply t.detector id;
                   fill outs
                 end
                 else begin
                   Detector.record_miss t.detector id;
                   record_net_trace t s ~write:false ~attempt:a;
                   go (a + 1)
                 end
               end
               else begin
                 Detector.record_miss t.detector id;
                 record_net_trace t s ~write:false ~attempt:a;
                 go (a + 1)
               end
             end
           in
           go 0);
        max_delta := max !max_delta (Engine.round s.engine - before))
      (List.rev !groups);
    t.batch_rounds <- t.batch_rounds + !max_delta;
    (* per-key hedged fallback for timed-out groups, then the
       old-placement fallback for keys a crashed migration has not
       copied yet — both charged as the slowest shard's extra machine
       rounds *)
    let deltas = ref [] in
    (* remember each shard's round counter at its first direct read
       so the extra cost is the per-shard delta *)
    let rounds_of id =
      if not (List.mem_assoc id !deltas) then
        deltas := (id, Pdm.rounds_total (shard_machine t id)) :: !deltas
    in
    (match t.net with
     | None -> ()
     | Some tr ->
       List.iter
         (fun (pos, key) ->
           List.iter (fun (id, _) -> rounds_of id) t.states;
           match net_read t tr t.topology key ~count_failover:false with
           | Some v -> answers.(pos) <- v
           | None -> ())
         !leftover);
    (match t.inflight with
     | None -> ()
     | Some (old_topo, _) ->
       List.iteri
         (fun pos key ->
           if answers.(pos) = None then
             match t.net with
             | Some tr ->
               List.iter (fun (id, _) -> rounds_of id) t.states;
               (match net_read t tr old_topo key ~count_failover:false with
                | Some (Some _ as v) ->
                  t.fallback_hits <- t.fallback_hits + 1;
                  answers.(pos) <- v
                | Some None | None -> ())
             | None ->
               (match serving_states t (placement_in t old_topo key)
                        ~count_failover:false
                with
                | [] -> ()
                | s :: _ ->
                  rounds_of s.id;
                  (match Opd.find s.dict key with
                   | Some _ as v ->
                     t.fallback_hits <- t.fallback_hits + 1;
                     answers.(pos) <- v
                   | None -> ())))
         keys);
    let extra =
      List.fold_left
        (fun acc (id, before) ->
          match List.assoc_opt id t.states with
          | Some _ ->
            max acc (Pdm.rounds_total (shard_machine t id) - before)
          | None -> acc)
        0 !deltas
    in
    t.batch_rounds <- t.batch_rounds + extra;
    net_sanity t;
    Array.to_list answers

(* --- migrations --- *)

type migration_report = {
  moved_keys : int;
  primary_moves : int;
  keys_total : int;
  reads : int;
  inserts : int;
  deletes : int;
  skipped : int;
  rounds : int;
}

let total_rounds t =
  List.fold_left
    (fun acc (_, s) -> acc + Pdm.rounds_total (Opd.machine s.dict))
    0 t.states

let diff a b = List.filter (fun x -> not (List.mem x b)) a

(* Execute a plan's moves in order: read the value from the first
   responsive old-placement shard, copy it to the new shards, then
   drop the stale copies. [?crash:(k, p)] arms [p] on move [k]'s first
   journaled write. Re-running a whole plan is idempotent: re-copying
   rewrites identical bytes and re-deleting an absent key is a no-op,
   which is what makes {!recover}'s re-execution correct. Under a
   transport the sources are ordered by the suspicion detector
   (not an omniscient liveness oracle) and every copy/delete is a
   tokened message — an unreachable target's write parks in its
   repair queue instead of being lost. *)
let execute_plan ?crash t (plan : Migration.plan) =
  let reads = ref 0 and inserts = ref 0 and deletes = ref 0 in
  let skipped = ref 0 in
  let read_from st key =
    match t.net with
    | None -> Some (Opd.find st.dict key)
    | Some tr ->
      let spec = Transport.spec_of tr in
      read_rpc t tr st ~budget:spec.Transport.max_attempts
        ~attempts_used:(ref 0) key
  in
  let write_to st f =
    match t.net with
    | None -> f ()
    | Some tr ->
      ignore
        (write_rpc t tr st ~fallback:(fun () -> true) (fun () -> f (); true))
  in
  (* first source whose read exchange answers *)
  let rec source_value states key =
    match states with
    | [] -> None
    | st :: rest ->
      (match read_from st key with
       | Some answer -> Some (st, answer)
       | None -> source_value rest key)
  in
  List.iteri
    (fun i (mv : Migration.move) ->
      let armed =
        ref (match crash with Some (k, p) when k = i -> Some p | _ -> None)
      in
      let journaled_write s f =
        match !armed with
        | Some p when Opd.journaled s.dict ->
          armed := None;
          Opd.set_crash s.dict (Some p);
          (* a Crashed from [f] leaves the point armed; recover's
             per-shard Opd.recover clears it *)
          f ();
          Opd.set_crash s.dict None
        | _ -> f ()
      in
      match
        source_value
          (serving_states t mv.from_shards ~count_failover:false)
          mv.key
      with
      | None -> incr skipped
      | Some (src, answer) ->
        (match answer with
         | None -> incr skipped  (* already drained, or never stored *)
         | Some value ->
           ignore src;
           incr reads;
           List.iter
             (fun id ->
               match List.assoc_opt id t.states with
               | Some s when s.alive ->
                 write_to s (fun () ->
                     journaled_write s (fun () ->
                         Opd.insert s.dict mv.key value));
                 incr inserts
               | Some _ | None -> ())
             (diff mv.to_shards mv.from_shards);
           List.iter
             (fun id ->
               match List.assoc_opt id t.states with
               | Some s when s.alive ->
                 write_to s (fun () ->
                     journaled_write s (fun () ->
                         ignore (Opd.delete s.dict mv.key)));
                 incr deletes
               | Some _ | None -> ())
             (diff mv.from_shards mv.to_shards)))
    plan.moves;
  (!reads, !inserts, !deletes, !skipped)

let insert_sorted assoc entry =
  List.sort (fun (a, _) (b, _) -> compare a b) (entry :: assoc)

let change ?crash t new_topo =
  if crash <> None && not t.cfg.journaled then
    invalid_arg "Cluster: crash injection needs a journaled cluster";
  if t.inflight <> None then
    invalid_arg "Cluster: a migration is already in flight (recover first)";
  let old_topo = t.topology in
  let plan =
    Migration.plan ~old_topology:old_topo ~new_topology:new_topo
      ~seed:t.cfg.seed ~replicas:t.cfg.replicas
      ~keys:(IntSet.elements t.registry)
  in
  (* instantiate joining shards before any move needs them *)
  List.iter
    (fun (s : Topology.shard) ->
      if not (List.mem_assoc s.id t.states) then
        t.states <- insert_sorted t.states (s.id, make_state t.cfg s))
    (Topology.shards new_topo);
  t.inflight <- Some (old_topo, plan);
  t.topology <- new_topo;
  let rounds0 = total_rounds t in
  let reads, inserts, deletes, skipped = execute_plan ?crash t plan in
  t.inflight <- None;
  t.states <-
    List.filter
      (fun (id, _) ->
        let keep = Topology.mem new_topo id in
        if not keep then Detector.forget t.detector id;
        keep)
      t.states;
  { moved_keys = Migration.moved_keys plan;
    primary_moves = Migration.primary_moves plan;
    keys_total = plan.keys_considered; reads; inserts; deletes; skipped;
    rounds = total_rounds t - rounds0 }

let add_shard ?crash t shard = change ?crash t (Topology.add_shard t.topology shard)

let remove_shard ?crash t id =
  if t.cfg.replicas > Topology.count t.topology - 1 then
    invalid_arg "Cluster.remove_shard: would leave fewer shards than replicas";
  change ?crash t (Topology.remove_shard t.topology id)

let reweight ?crash t id ~weight =
  change ?crash t (Topology.reweight t.topology id ~weight)

let migration_in_flight t = t.inflight <> None

let recover t =
  (* dead shards stay dead: their disks refuse IO, and the data lives
     on the surviving replicas — only live shards run journal recovery *)
  let outcomes =
    List.filter_map
      (fun (_, s) -> if s.alive then Some (Opd.recover s.dict) else None)
      t.states
  in
  let replayed =
    List.fold_left
      (fun acc o -> match o with `Replayed n -> acc + n | _ -> acc)
      0 outcomes
  in
  let combined =
    if replayed > 0 then `Replayed replayed
    else if List.exists (fun o -> o = `Discarded) outcomes then `Discarded
    else `Clean
  in
  (match t.inflight with
   | None -> ()
   | Some (_, plan) ->
     let (_ : int * int * int * int) = execute_plan t plan in
     t.inflight <- None;
     t.states <-
       List.filter (fun (id, _) -> Topology.mem t.topology id) t.states);
  (* write-repair: an update that crashed mid-write left its
     secondaries ahead of (or behind) the primary's journal outcome.
     Journal recovery above settled the authoritative copy — the first
     alive replica in placement order — so force the others back into
     agreement before any hedged or failover read can serve the
     stale side. *)
  List.iter
    (fun key ->
      let alive =
        List.filter_map
          (fun id ->
            match List.assoc_opt id t.states with
            | Some s when s.alive -> Some s
            | _ -> None)
          (placement t key)
      in
      match alive with
      | [] | [ _ ] -> ()
      | auth :: rest ->
        (match Opd.find auth.dict key with
         | Some v -> List.iter (fun s -> Opd.insert s.dict key v) rest
         | None -> List.iter (fun s -> ignore (Opd.delete s.dict key)) rest))
    t.dirty;
  t.dirty <- [];
  combined

type stats = {
  shards : int;
  keys : int;
  batches : int;
  batch_rounds : int;
  net_rounds : int;
  direct_lookups : int;
  retries : int;
  hedges : int;
  failovers : int;
  fallback_hits : int;
  suspicions : int;
  heals : int;
  queued_repairs : int;
  shard_rounds : (int * int) list;
}

let stats t =
  { shards = List.length t.states; keys = size t; batches = t.batches;
    batch_rounds = t.batch_rounds; net_rounds = t.net_rounds;
    direct_lookups = t.direct_lookups; retries = t.retries;
    hedges = t.hedges; failovers = t.failovers;
    fallback_hits = t.fallback_hits;
    suspicions = Detector.suspicions t.detector;
    heals = Detector.heals t.detector; queued_repairs = t.queued_repairs;
    shard_rounds =
      List.map
        (fun (id, s) -> (id, Pdm.rounds_total (Opd.machine s.dict)))
        t.states }

let transport_stats t = Option.map Transport.stats t.net

let trace_events t =
  let evs =
    List.concat_map
      (fun (_, s) ->
        match Pdm.trace (Opd.machine s.dict) with
        | Some tr -> Trace.events tr
        | None -> [])
      t.states
  in
  List.sort
    (fun (a : Trace.event) b ->
      if a.round <> b.round then compare a.round b.round
      else compare a.shard b.shard)
    evs
