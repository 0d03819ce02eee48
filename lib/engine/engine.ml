module Pdm = Pdm_sim.Pdm
module Cache = Pdm_sim.Cache
module Backend = Pdm_sim.Backend

type addr = Pdm.addr

type blocks = int option array array

type step =
  | Done of Bytes.t option
  | Fetch of addr array * (blocks -> step)

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

(* A lookup of the running batch: its step, and once the step is
   planned the batch slot of each of its addresses. *)
type flight = {
  p : pending;
  mutable step : step;
  mutable slots : int array;  (* [||] until planned; a planned step has >= 1 address *)
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
  used : int array;                (* per physical disk: the last stamp that took it *)
  down : bool array;               (* per physical disk: health, as of this round *)
  mutable stamp : int;             (* fetch rounds packed plus fetches begun *)
  (* The running batch's distinct addresses, each mapped to a slot
     once, in first-seen order; then everything works on slots. The
     slot index is keyed by logical block number: block [n] has slot
     [slot_at.(n)] while [slot_batch.(n)] holds the running batch's id,
     so ending a batch bumps the id and clears nothing. The slot arrays
     and fetch_all's working arrays are kept and grown on demand:
     allocated per batch, a large batch's would land on the major heap
     each time. *)
  slot_at : int array;
  slot_batch : int array;
  mutable batch_id : int;
  mutable nslots : int;
  mutable addr_of : addr array;    (* slot -> address *)
  mutable images : blocks;         (* slot -> fetched image, [unfetched] before *)
  mutable owner : int array;       (* slot -> flight that first wanted it *)
  mutable reps : int array;        (* replica j of slot s: [s * r + j] *)
  mutable pending_blocks : int array;  (* slots *)
  mutable issued_slot : int array; (* per issued block of a round: its slot *)
  mutable issued_rep : int array;  (* … and the replica it is read from *)
  mutable numbers : int array;     (* a planned step's block numbers *)
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
  let m = dict.machine in
  let blocks = Pdm.disks m * Pdm.blocks_per_disk m in
  {
    dict; cfg = config; cache; queue = Queue.create ();
    next_id = 0; round = 0; outcomes = [];
    disk_load = Array.make (Pdm.physical_disks m) 0;
    used = Array.make (Pdm.physical_disks m) 0;
    down = Array.make (Pdm.physical_disks m) false; stamp = 0;
    slot_at = Array.make blocks 0; slot_batch = Array.make blocks 0;
    batch_id = 1; nslots = 0; addr_of = [||]; images = [||];
    owner = [||]; reps = [||]; pending_blocks = [||]; issued_slot = [||];
    issued_rep = [||]; numbers = [||];
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

(* An image slot not fetched yet. The machine never answers an empty
   block (block_size >= 1), so the empty array cannot be mistaken for
   one. *)
let unfetched : int option array = [||]

(* pdm-lint: domain local — copies into a fresh array of the engine's own *)
let grow a len fill =
  if Array.length a >= len then a
  else begin
    let b = Array.make (max len (2 * Array.length a)) fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

(* The slot of logical block [n] in the running batch, -1 if none. *)
let slot t n = if t.slot_batch.(n) = t.batch_id then t.slot_at.(n) else -1

(* The slots of an unplanned step's addresses, if every one has been
   fetched in this batch. *)
let fetched_slots t addrs =
  let m = t.dict.machine in
  let n = Array.length addrs in
  let i = ref 0 in
  while
    !i < n
    &&
    let s = slot t (Pdm.block_number m addrs.(!i)) in
    s >= 0 && t.images.(s) != unfetched
  do
    incr i
  done;
  if !i < n then None
  else Some (Array.map (fun a -> slot t (Pdm.block_number m a)) addrs)

(* Advance a lookup as far as the fetched blocks allow: a planned step
   reads its slots, an unplanned one (a continuation's next step)
   settles only if every address is already fetched. *)
(* pdm-lint: domain local — the flight's step and slots, owned by the running batch *)
let rec settle t f =
  match f.step with
  | Done _ -> ()
  | Fetch (addrs, k) -> (
    match
      if Array.length f.slots > 0 then Some f.slots else fetched_slots t addrs
    with
    | None -> ()
    | Some slots ->
      f.slots <- [||];
      let n = Array.length slots in
      let blocks = Array.make n unfetched in
      for i = 0 to n - 1 do
        blocks.(i) <- t.images.(slots.(i))
      done;
      f.step <- k blocks;
      settle t f)

(* Give logical block [n] at address [a] the batch's next slot, owned
   by the [x]-th flight; a new slot the cache holds is filled at once,
   as a cache hit. *)
(* pdm-lint: domain local — the batch's slot arrays and the engine's counters, owned by the running batch *)
let new_slot t x a n =
  let s = t.nslots in
  t.nslots <- s + 1;
  if s >= Array.length t.addr_of then begin
    t.addr_of <- grow t.addr_of (s + 1) a;
    t.images <- grow t.images (s + 1) unfetched;
    t.owner <- grow t.owner (s + 1) 0
  end;
  t.slot_at.(n) <- s;
  t.slot_batch.(n) <- t.batch_id;
  t.addr_of.(s) <- a;
  t.owner.(s) <- x;
  t.images.(s) <-
    (match t.cache with
     | None -> unfetched
     | Some c -> (
       match Cache.find_cached c a with
       | Some data ->
         t.cache_hits <- t.cache_hits + 1;
         data
       | None -> unfetched));
  s

(* Plan the [x]-th flight's step: look each address up once in the
   slot index, range-checking it (the block numbers come from the
   machine in one call; an address out of range raises when the walk
   reaches it). Every repeat of an address that already has a slot is
   one coalesced fetch. *)
(* pdm-lint: domain local — the flight's slots and the engine's counters, owned by the running batch *)
let plan t x f =
  match f.step with
  | Done _ -> ()
  | Fetch (addrs, _) ->
    let m = t.dict.machine in
    let len = Array.length addrs in
    t.numbers <- grow t.numbers len 0;
    let numbers = t.numbers in
    let valid = Pdm.block_numbers m addrs numbers in
    let slots = Array.make len 0 in
    for i = 0 to len - 1 do
      let a = addrs.(i) in
      let n = if i < valid then numbers.(i) else Pdm.block_number m a in
      let s = slot t n in
      slots.(i) <-
        (if s >= 0 then begin
           t.coalesced <- t.coalesced + 1;
           s
         end
         else new_slot t x a n)
    done;
    f.slots <- slots

(* The executor: pack the slots from [first] on that the cache did not
   fill (distinct blocks, each with the oldest flight waiting on it)
   into rounds of at most one block per disk. Each round walks the
   pending blocks once, oldest first, and gives each block the healthy
   replica disk with the least cumulative load among those still free
   this round (the first such replica on a tie); a block whose healthy
   replicas are all taken waits for the next round, keeping its place.
   A block with no healthy replica left is issued anyway on replica 0
   so the machine's structured error surfaces, attributed to the
   oldest issued request with a block on the failing disk (else the
   round's first). Replica disks are resolved once per fetch, a block's
   copies in one call, since placement moves only in scrub; health is
   copied once per round, since a read that meets a dead disk marks it
   down.

   A round closes once it has taken every disk the fetch's blocks can
   use: each block it has not reached then finds all its replica disks
   taken and would wait, so they carry over in order without a look.
   A down disk is never taken, so a fetch with a down candidate disk
   walks every block, and a block without a healthy replica is still
   issued in the round that reaches it. *)
(* pdm-lint: domain local — round counters, working arrays and the batch's slot images owned by the engine's single domain *)
let fetch_all t flights ~first =
  let m = t.dict.machine in
  let r = Pdm.replicas m in
  t.reps <- grow t.reps (t.nslots * r) 0;
  t.pending_blocks <- grow t.pending_blocks t.nslots 0;
  t.issued_slot <- grow t.issued_slot t.nslots 0;
  t.issued_rep <- grow t.issued_rep t.nslots 0;
  let reps = t.reps and pending = t.pending_blocks in
  let issued_slot = t.issued_slot and issued_rep = t.issued_rep in
  let used = t.used and down = t.down in
  (* the candidate disks, stamped once and counted *)
  t.stamp <- t.stamp + 1;
  let seen = t.stamp in
  let candidates = ref 0 and npending = ref 0 in
  for i = first to t.nslots - 1 do
    if t.images.(i) == unfetched then begin
      Pdm.replica_disks m t.addr_of.(i) reps ~off:(i * r);
      for j = 0 to r - 1 do
        let d = reps.((i * r) + j) in
        if used.(d) <> seen then begin
          used.(d) <- seen;
          incr candidates
        end
      done;
      pending.(!npending) <- i;
      incr npending
    end
  done;
  let candidates = !candidates in
  while !npending > 0 do
    t.stamp <- t.stamp + 1;
    let stamp = t.stamp in
    Pdm.disks_down m down;
    let nissued = ref 0 and ndeferred = ref 0 and taken = ref 0 in
    let x = ref 0 in
    while !x < !npending do
      if !taken = candidates then begin
        (* a loop, not [Array.blit]: on a long-lived array the blit
           goes through the write barrier cell by cell *)
        for y = !x to !npending - 1 do
          pending.(!ndeferred) <- pending.(y);
          incr ndeferred
        done;
        x := !npending
      end
      else begin
        let i = pending.(!x) in
        let base = i * r in
        let best = ref (-1) and healthy = ref false in
        for j = 0 to r - 1 do
          let d = reps.(base + j) in
          if not down.(d) then begin
            healthy := true;
            if
              used.(d) <> stamp
              && (!best < 0
                  || t.disk_load.(d) < t.disk_load.(reps.(base + !best)))
            then best := j
          end
        done;
        if not !healthy then begin
          issued_slot.(!nissued) <- i;
          issued_rep.(!nissued) <- 0;
          incr nissued
        end
        else if !best < 0 then begin
          (* [ndeferred <= x]: the pending prefix is rewritten in place *)
          pending.(!ndeferred) <- i;
          incr ndeferred
        end
        else begin
          used.(reps.(base + !best)) <- stamp;
          incr taken;
          issued_slot.(!nissued) <- i;
          issued_rep.(!nissued) <- !best;
          incr nissued
        end;
        incr x
      end
    done;
    let nissued = !nissued in
    (* every round issues its first pending block *)
    let addrs = Array.make nissued t.addr_of.(issued_slot.(0)) in
    let prefs = Array.make nissued 0 in
    for c = 0 to nissued - 1 do
      addrs.(c) <- t.addr_of.(issued_slot.(c));
      prefs.(c) <- issued_rep.(c)
    done;
    let before = Pdm.rounds_total m in
    let fetched =
      try Pdm.read_preferring m addrs prefs
      with e -> (
        match Backend.describe e with
        | None -> raise e
        | Some _ ->
          let failing_disk =
            match e with
            | Backend.Disk_failed err | Backend.Corrupt_block err ->
              err.Backend.disk
            | Backend.Retries_exhausted { disk; _ } -> disk
            | _ -> -1
          in
          let on_failing_disk c =
            let base = issued_slot.(c) * r in
            let rec has j =
              j < r && (reps.(base + j) = failing_disk || has (j + 1))
            in
            has 0
          in
          let rec culprit c =
            if c >= nissued then 0 else if on_failing_disk c then c
            else culprit (c + 1)
          in
          let p = flights.(t.owner.(issued_slot.(culprit 0))).p in
          raise
            (Request_failed
               { id = p.id; key = request_key p.request; error = e }))
    in
    let delta = max 1 (Pdm.rounds_total m - before) in
    t.round <- t.round + delta;
    t.fetch_rounds <- t.fetch_rounds + delta;
    t.executor_rounds <- t.executor_rounds + 1;
    for c = 0 to nissued - 1 do
      let s = issued_slot.(c) in
      let d = reps.((s * r) + issued_rep.(c)) in
      t.disk_load.(d) <- t.disk_load.(d) + 1;
      t.blocks_fetched <- t.blocks_fetched + 1;
      t.images.(s) <- fetched.(c);
      match t.cache with
      | Some ch -> Cache.note_fetched ch addrs.(c) fetched.(c)
      | None -> ()
    done;
    npending := !ndeferred
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
  let flights =
    Array.of_list
      (List.map
         (fun p ->
           { p; step = t.dict.lookup (request_key p.request); slots = [||] })
         lookups)
  in
  let live = ref (Array.length flights) in
  (* the batch's slots go with it, and its images with them *)
  Fun.protect
    ~finally:(fun () ->
      t.batch_id <- t.batch_id + 1;
      Array.fill t.images 0 t.nslots unfetched;
      t.nslots <- 0)
    (fun () ->
      while !live > 0 do
        (* Settle what the fetched blocks allow, completing in flight
           order and keeping the rest in order. *)
        let still = ref 0 in
        for x = 0 to !live - 1 do
          let f = flights.(x) in
          settle t f;
          match f.step with
          | Done v -> complete t f.p v
          | Fetch _ ->
            flights.(!still) <- f;
            incr still
        done;
        live := !still;
        (* Plan: the union of missing blocks across all in-flight
           steps, in first-seen (= oldest request first) order. *)
        let first = t.nslots in
        for x = 0 to !live - 1 do
          plan t x flights.(x)
        done;
        fetch_all t flights ~first
      done)

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
