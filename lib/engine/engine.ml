module Pdm = Pdm_sim.Pdm
module Cache = Pdm_sim.Cache
module Backend = Pdm_sim.Backend

type addr = Pdm.addr

type blocks = (addr * int option array) list

type step =
  | Done of Bytes.t option
  | Fetch of addr list * (blocks -> step)

type dict = {
  name : string;
  machine : int Pdm.t;
  lookup : int -> step;
  insert : (int -> Bytes.t -> unit) option;
  delete : (int -> bool) option;
}

type request = Lookup of int | Insert of int * Bytes.t | Delete of int

let request_key = function Lookup k -> k | Insert (k, _) -> k | Delete k -> k

type config = {
  max_batch : int;
  deadline_rounds : int;
  cache_blocks : int;
}

let default_config = { max_batch = 64; deadline_rounds = 4; cache_blocks = 0 }

type outcome = {
  id : int;
  request : request;
  value : Bytes.t option;
  submitted : int;
  completed : int;
}

let latency o = o.completed - o.submitted

exception Request_failed of { id : int; key : int; error : exn }

type pending = { id : int; request : request; submitted : int }

type stats = {
  rounds : int;
  fetch_rounds : int;
  insert_rounds : int;
  blocks_fetched : int;
  requests_served : int;
  batches : int;
  coalesced : int;
  cache_hits : int;
  total_latency : int;
  max_latency : int;
}

type t = {
  dict : dict;
  cfg : config;
  cache : int Cache.t option;
  queue : pending Queue.t;
  mutable next_id : int;
  mutable round : int;
  mutable outcomes : outcome list; (* completion order, reversed *)
  disk_load : int array;           (* cumulative fetches per physical disk *)
  (* counters *)
  mutable served : int;
  mutable batches : int;
  mutable fetch_rounds : int;
  mutable insert_rounds : int;
  mutable executor_rounds : int;   (* fetch_all iterations *)
  mutable blocks_fetched : int;
  mutable coalesced : int;
  mutable cache_hits : int;
  mutable total_latency : int;
  mutable max_latency : int;
}

let create ?(config = default_config) dict =
  if config.max_batch < 1 then invalid_arg "Engine.create: max_batch >= 1";
  if config.deadline_rounds < 0 then
    invalid_arg "Engine.create: deadline_rounds >= 0";
  let cache =
    if config.cache_blocks > 0 then
      Some (Cache.create dict.machine ~capacity_blocks:config.cache_blocks)
    else None
  in
  {
    dict; cfg = config; cache; queue = Queue.create ();
    next_id = 0; round = 0; outcomes = [];
    disk_load = Array.make (Pdm.physical_disks dict.machine) 0;
    served = 0; batches = 0; fetch_rounds = 0; insert_rounds = 0;
    executor_rounds = 0; blocks_fetched = 0; coalesced = 0; cache_hits = 0;
    total_latency = 0; max_latency = 0;
  }

let dict t = t.dict
let config t = t.cfg
let round t = t.round
let queue_length t = Queue.length t.queue

let stats t =
  {
    rounds = t.round;
    fetch_rounds = t.fetch_rounds;
    insert_rounds = t.insert_rounds;
    blocks_fetched = t.blocks_fetched;
    requests_served = t.served;
    batches = t.batches;
    coalesced = t.coalesced;
    cache_hits = t.cache_hits;
    total_latency = t.total_latency;
    max_latency = t.max_latency;
  }

let mean_utilization t =
  if t.executor_rounds = 0 then 0.0
  else float_of_int t.blocks_fetched /. float_of_int t.executor_rounds

(* pdm-lint: domain local — outcome list swap on the engine's own state; one serving domain owns t *)
let take_outcomes t =
  let r = List.rev t.outcomes in
  t.outcomes <- [];
  List.sort (fun (a : outcome) b -> compare a.id b.id) r

(* pdm-lint: domain local — latency/served counters on t, mutated only from the owning round loop *)
let complete t p value =
  let lat = t.round - p.submitted in
  t.served <- t.served + 1;
  t.total_latency <- t.total_latency + lat;
  if lat > t.max_latency then t.max_latency <- lat;
  t.outcomes <-
    { id = p.id; request = p.request; value; submitted = p.submitted;
      completed = t.round }
    :: t.outcomes

(* Wrap the structured storage errors with the id of the request being
   served when they surfaced; anything else propagates untouched. *)
let wrap_failure ~id ~key error =
  match Backend.describe error with
  | Some _ -> Request_failed { id; key; error }
  | None -> error

(* A removed key answers the empty value, an absent one answers
   [None] — so delete outcomes carry their found/not-found bit through
   the same [value] channel lookups use. *)
let deleted_value removed = if removed then Some Bytes.empty else None

(* pdm-lint: domain local — round counters on t, advanced only by the owning round loop *)
let exec_update t p =
  let key = request_key p.request in
  let before = Pdm.rounds_total t.dict.machine in
  let value =
    match p.request with
    | Insert (k, v) -> (
      match t.dict.insert with
      | None -> invalid_arg "Engine: dictionary does not support insert"
      | Some ins ->
        (try ins k v with e -> raise (wrap_failure ~id:p.id ~key e));
        None)
    | Delete k -> (
      match t.dict.delete with
      | None -> invalid_arg "Engine: dictionary does not support delete"
      | Some del ->
        let removed =
          try del k with e -> raise (wrap_failure ~id:p.id ~key e)
        in
        deleted_value removed)
    | Lookup _ -> invalid_arg "Engine: exec_update on a lookup"
  in
  let delta = Pdm.rounds_total t.dict.machine - before in
  t.round <- t.round + delta;
  t.insert_rounds <- t.insert_rounds + delta;
  complete t p value

(* Advance a step as far as the fetched blocks allow. *)
let rec settle tbl st =
  match st with
  | Done _ -> st
  | Fetch (addrs, k) ->
    if List.for_all (Hashtbl.mem tbl) addrs then
      settle tbl (k (List.map (fun a -> (a, Hashtbl.find tbl a)) addrs))
    else st

(* One executor round: assign each wanted block to a free, healthy
   replica disk (least cumulative load wins); blocks whose healthy
   replicas are all busy wait for the next round. A block with no
   healthy replica left is issued anyway on replica 0 so the machine's
   structured error surfaces — attributed to the oldest waiting
   request. *)
(* pdm-lint: domain local — round counters and scratch tables owned by the engine's single domain *)
let fetch_all t tbl wanted =
  let m = t.dict.machine in
  let remaining = ref wanted in
  while !remaining <> [] do
    let used = Hashtbl.create 16 in
    let this_round = ref [] and defer = ref [] in
    List.iter
      (fun ((a, _p) as w) ->
        (* one replica_disks call per block per round — the chosen
           disk rides along in the issue triple so the post-read load
           accounting need not re-derive the replica list *)
        let disks = Pdm.replica_disks m a in
        let candidates = List.mapi (fun j d -> (j, d)) disks in
        let healthy =
          List.filter (fun (_, d) -> not (Pdm.disk_down m d)) candidates
        in
        match healthy with
        | [] ->
          let d0 = match disks with d :: _ -> d | [] -> a.disk in
          this_round := (w, 0, d0) :: !this_round
        | _ -> (
          let free =
            List.filter (fun (_, d) -> not (Hashtbl.mem used d)) healthy
          in
          match free with
          | [] -> defer := w :: !defer
          | (j0, d0) :: rest ->
            let j, d =
              List.fold_left
                (fun (bj, bd) (j, d) ->
                  if t.disk_load.(d) < t.disk_load.(bd) then (j, d)
                  else (bj, bd))
                (j0, d0) rest
            in
            Hashtbl.add used d ();
            this_round := (w, j, d) :: !this_round))
      !remaining;
    let issue = List.rev !this_round in
    let assignment = List.map (fun ((a, _), j, _) -> (a, j)) issue in
    let before = Pdm.rounds_total m in
    let fetched =
      try Pdm.read_preferring m assignment
      with e -> (
        match Backend.describe e with
        | None -> raise e
        | Some _ ->
          (* Attribute to the oldest request waiting on a block of the
             failing disk (falling back to the round's first). *)
          let failing_disk =
            match e with
            | Backend.Disk_failed err | Backend.Corrupt_block err ->
              err.Backend.disk
            | Backend.Retries_exhausted { disk; _ } -> disk
            | _ -> -1
          in
          let culprit =
            match
              List.find_opt
                (fun ((a, _), _, _) ->
                  List.mem failing_disk (Pdm.replica_disks m a))
                issue
            with
            | Some ((_, p), _, _) -> Some p
            | None ->
              (match issue with ((_, p), _, _) :: _ -> Some p | [] -> None)
          in
          (match culprit with
           | None ->
             (* an empty round cannot have raised; re-surface as-is *)
             raise e
           | Some culprit ->
             raise
               (Request_failed
                  { id = culprit.id; key = request_key culprit.request;
                    error = e })))
    in
    let delta = max 1 (Pdm.rounds_total m - before) in
    t.round <- t.round + delta;
    t.fetch_rounds <- t.fetch_rounds + delta;
    t.executor_rounds <- t.executor_rounds + 1;
    t.blocks_fetched <- t.blocks_fetched + List.length fetched;
    List.iter
      (fun (_, _, d) -> t.disk_load.(d) <- t.disk_load.(d) + 1)
      issue;
    List.iter
      (fun (a, data) ->
        Hashtbl.replace tbl a data;
        match t.cache with
        | Some c -> Cache.note_fetched c a data
        | None -> ())
      fetched;
    remaining := List.rev !defer
  done

(* pdm-lint: domain local — batch bookkeeping on t; batches are formed and executed on one domain *)
let run_batch t batch =
  t.batches <- t.batches + 1;
  (* Updates first, serialized in submission order, so every lookup in
     the batch observes all of the batch's writes and removals. *)
  let updates, lookups =
    List.partition
      (fun p ->
        match p.request with Insert _ | Delete _ -> true | Lookup _ -> false)
      batch
  in
  List.iter (fun p -> exec_update t p) updates;
  let tbl : (addr, int option array) Hashtbl.t = Hashtbl.create 64 in
  let inflight =
    List.map (fun p -> (p, ref (t.dict.lookup (request_key p.request)))) lookups
  in
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
      (* Plan: union of missing blocks across all in-flight steps, in
         first-seen (= oldest request first) order. Every repeat of an
         already-planned or already-fetched block is one coalesced
         fetch. *)
      let seen = Hashtbl.create 64 in
      let wanted = ref [] in
      List.iter
        (fun (p, str) ->
          match !str with
          | Done _ ->
            (* pdm-lint: allow R3 — unreachable: [still] keeps only
               requests whose step did not settle to [Done] in the
               filter above. *)
            assert false
          | Fetch (addrs, _) ->
            List.iter
              (fun a ->
                if Hashtbl.mem tbl a || Hashtbl.mem seen a then
                  t.coalesced <- t.coalesced + 1
                else begin
                  Hashtbl.add seen a ();
                  wanted := (a, p) :: !wanted
                end)
              addrs)
        still;
      let wanted = List.rev !wanted in
      let misses =
        List.filter
          (fun (a, _) ->
            match t.cache with
            | None -> true
            | Some c -> (
              match Cache.find_cached c a with
              | Some data ->
                Hashtbl.replace tbl a data;
                t.cache_hits <- t.cache_hits + 1;
                false
              | None -> true))
          wanted
      in
      if misses <> [] then fetch_all t tbl misses;
      pass still
    end
  in
  pass inflight

(* pdm-lint: domain local — queue pop from t.queue; submit/take run on the same serving domain today *)
let take_batch t =
  let rec go n acc =
    if n = 0 || Queue.is_empty t.queue then List.rev acc
    else go (n - 1) (Queue.pop t.queue :: acc)
  in
  go t.cfg.max_batch []

let due t =
  Queue.length t.queue >= t.cfg.max_batch
  || (not (Queue.is_empty t.queue))
     && t.round - (Queue.peek t.queue).submitted >= t.cfg.deadline_rounds

let pump t =
  while due t do
    run_batch t (take_batch t)
  done

let drain t =
  while not (Queue.is_empty t.queue) do
    run_batch t (take_batch t)
  done

(* pdm-lint: domain local — round counter on t, owned by the round loop *)
let idle_round t =
  t.round <- t.round + 1;
  pump t

(* pdm-lint: domain local — request id counter and queue push; single producer domain today *)
let submit t request =
  let id = t.next_id in
  t.next_id <- t.next_id + 1;
  Queue.add { id; request; submitted = t.round } t.queue;
  pump t;
  id

(* Tickets are consecutive, so request [i] holds ticket [first + i]. A
   batch runs as soon as the queue is due, so a failing batch took every
   queued request: none is left to run on a later call. *)
let run t requests =
  let first = t.next_id in
  let failure =
    match
      List.iter (fun r -> ignore (submit t r)) requests;
      drain t
    with
    | () -> None
    | exception (Request_failed _ as e) -> Some e
  in
  let answers = Array.make (List.length requests) None in
  List.iter
    (fun (o : outcome) ->
      let i = o.id - first in
      if i >= 0 && i < Array.length answers then answers.(i) <- Some o)
    (take_outcomes t);
  List.mapi
    (fun i _ ->
      match (answers.(i), failure) with
      | Some o, _ -> Ok o
      | None, Some e -> Error e
      | None, None -> invalid_arg "Engine.run: a request went unanswered")
    requests
