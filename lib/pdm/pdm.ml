module Imath = Pdm_util.Imath

type model = Independent_disks | Parallel_heads

type addr = { disk : int; block : int }

type 'a integrity = {
  tag : string;
  overhead : int;
  seal : 'a option array -> 'a option array;
  check : 'a option array -> 'a option array option;
}

(* The round scheduler's working state, kept on the machine and grown
   on demand. Each channel's queue is a FIFO of transfer indices
   threaded through [next]. Int arrays only: a long-lived workspace
   holds no pointer into the minor heap. *)
type workspace = {
  mutable busy : bool;  (* a request is running on it *)
  head : int array;  (* per channel: first queued transfer, -1 = none *)
  tail : int array;  (* per channel: last queued transfer *)
  cur : int array;  (* per channel: transfer in flight, -1 = idle *)
  left : int array;  (* per channel: rounds the transfer still needs *)
  per_disk : int array;  (* blocks moved per disk this round, untraced *)
  mutable pdisk : int array;  (* per transfer: its physical disk *)
  mutable pblock : int array;  (* per transfer: its physical block *)
  mutable owner : int array;  (* per transfer of a write: its logical block *)
  mutable next : int array;  (* per transfer: the one queued behind it *)
  mutable attempts : int array;  (* per transfer: failed attempts *)
  mutable delivered : int;  (* transfers the last schedule delivered *)
  last : int array;  (* per disk: latest position of a request's address on it *)
  mutable chain : int array;  (* per position: the previous one on its disk, -1 = none *)
  (* read_candidates, per logical block of the request *)
  mutable remaining : int array;  (* replicas not tried yet, one bit each *)
  mutable pending : int array;  (* this pass's blocks *)
  mutable failed : int array;  (* the blocks that failed it, in failure order *)
  mutable nfailed : int;
}

type 'a t = {
  disks : int;  (* logical *)
  block_size : int;  (* payload cells per logical block *)
  blocks_per_disk : int;  (* logical *)
  replicas : int;
  spares : int;
  model : model;
  stats : Stats.t;
  integrity : 'a integrity option;
  backends : 'a Backend.t array;  (* length disks + spares *)
  down : bool array;  (* health cache, learned from Lost answers *)
  remap : (addr * int, addr) Hashtbl.t;  (* (logical, replica) moved *)
  spare_next : int array;  (* next free block on each spare disk *)
  fault_spec : Fault.spec option;
  empty : 'a option array;  (* the never-written block read_preferring answers *)
  ws : workspace;
  (* sanitizer: images the last read_preferring handed out, with
     snapshots, checked by the next counted request *)
  mutable views : (addr * 'a option array * 'a option array) list;
  mutable trace : Trace.t option;
  mutable rounds_done : int;
  mutable allocated : int;
  mutable write_listeners : (addr -> unit) list;
}

let workspace channels =
  { busy = false;
    head = Array.make channels (-1);
    tail = Array.make channels (-1);
    cur = Array.make channels (-1);
    left = Array.make channels 0;
    per_disk = Array.make channels 0;
    pdisk = [||];
    pblock = [||];
    owner = [||];
    next = [||];
    attempts = [||];
    delivered = 0;
    last = Array.make channels (-1);
    chain = [||];
    remaining = [||];
    pending = [||];
    failed = [||];
    nfailed = 0 }

let physical_disks_of ~disks ~spares = disks + spares
let physical_blocks_of ~replicas ~blocks_per_disk = replicas * blocks_per_disk

let create ?(model = Independent_disks) ?stats ?trace ?faults ?factory
    ?(replicas = 1) ?(spares = 0) ?integrity ~disks ~block_size
    ~blocks_per_disk () =
  if disks < 1 then invalid_arg "Pdm.create: disks must be >= 1";
  if block_size < 1 then invalid_arg "Pdm.create: block_size must be >= 1";
  if blocks_per_disk < 1 then invalid_arg "Pdm.create: blocks_per_disk >= 1";
  if replicas < 1 then invalid_arg "Pdm.create: replicas must be >= 1";
  if replicas > disks then
    invalid_arg "Pdm.create: replicas must be <= disks (distinct disks)";
  if replicas > Sys.int_size - 1 then
    invalid_arg "Pdm.create: replicas must be <= 62 (one bit each)";
  if spares < 0 then invalid_arg "Pdm.create: spares must be >= 0";
  (match integrity with
   | Some i when i.overhead < 0 ->
     invalid_arg "Pdm.create: integrity overhead must be >= 0"
   | _ -> ());
  let stats = match stats with Some s -> s | None -> Stats.create () in
  let phys_blocks = physical_blocks_of ~replicas ~blocks_per_disk in
  let phys_disks = physical_disks_of ~disks ~spares in
  (* We hand the factory the physical blocks-per-disk and the sealed
     slot width (payload plus integrity envelope); it answers with
     per-disk constructors — or [None], meaning "use the default memory
     disks". *)
  let supplied =
    match factory with
    | None -> None
    | Some f ->
      let slots =
        block_size
        + (match integrity with Some i -> i.overhead | None -> 0)
      in
      f ~blocks:phys_blocks ~slots
  in
  let base d =
    match supplied with
    | None -> Backend.memory ~disk:d ~blocks:phys_blocks
    | Some f ->
      let b = f d in
      if b.Backend.blocks <> phys_blocks then
        invalid_arg "Pdm.create: backend capacity <> physical blocks per disk";
      if b.Backend.disk <> d then
        invalid_arg "Pdm.create: backend disk index mismatch";
      b
  in
  let wrap b = match faults with None -> b | Some s -> Fault.wrap s b in
  let backends = Array.init phys_disks (fun d -> wrap (base d)) in
  (* Supplied disks may already hold blocks (a reopened directory):
     the space count starts from what is stored. *)
  let allocated =
    if Option.is_none supplied then 0
    else
      Array.fold_left
        (fun n bk ->
          let blocks = Seq.init phys_blocks Fun.id in
          n + Seq.length (Seq.filter bk.Backend.exists blocks))
        0 backends
  in
  { disks; block_size; blocks_per_disk; replicas; spares; model; stats;
    integrity;
    backends;
    down = Array.make phys_disks false;
    remap = Hashtbl.create 16;
    spare_next = Array.make spares 0;
    fault_spec = faults;
    empty = Array.make block_size None;
    ws = workspace phys_disks;
    views = [];
    trace;
    rounds_done = 0;
    allocated;
    write_listeners = [] }

let disks t = t.disks
let block_size t = t.block_size
let blocks_per_disk t = t.blocks_per_disk
let replicas t = t.replicas
let spares t = t.spares
let physical_disks t = t.disks + t.spares
let model t = t.model
let stats t = t.stats
let trace t = t.trace
let set_trace t tr = t.trace <- tr
let faults t = t.fault_spec
let integrity t = t.integrity
let rounds_total t = t.rounds_done
let backend t d = t.backends.(d)
let disk_down t d = t.down.(d)
(* A loop, not [Array.blit], which takes the write barrier cell by
   cell when [dst] is long-lived. *)
(* pdm-lint: domain local — copies into the caller's own array *)
let disks_down t dst =
  for d = 0 to Array.length t.down - 1 do
    dst.(d) <- t.down.(d)
  done
let remapped_replicas t = Hashtbl.length t.remap

let add_write_listener t f = t.write_listeners <- t.write_listeners @ [ f ]

let set_sanitize = Sanitize.set
let sanitize_enabled = Sanitize.active

(* Tell every listener the logical block's stored bits are about to
   change (or just changed): caches drop their copy. Listeners must
   not touch the machine. *)
let notify_write t a =
  match t.write_listeners with
  | [] -> ()
  | fs -> List.iter (fun f -> f a) fs

(* Replica j of logical block {d, b} lives on disk (d + j) mod D in
   that disk's j-th block region — r distinct disks per block, and the
   identity map for j = 0, so an unreplicated machine has the exact
   physical layout of the seed simulator. Repair may move a replica
   elsewhere (a spare disk); the remap table records those moves.
   With [a] in range and [j < replicas <= D], [d + j < 2D]: the modulo
   is one subtraction, not a division. *)
let home_disk t a j =
  let d = a.disk + j in
  if d >= t.disks then d - t.disks else d

let home t a j =
  if j = 0 then a
  else { disk = home_disk t a j; block = (j * t.blocks_per_disk) + a.block }

let phys t a j =
  if Hashtbl.length t.remap = 0 then home t a j
  else
    match Hashtbl.find_opt t.remap (a, j) with
    | Some p -> p
    | None -> home t a j

(* [(phys t a j).disk] and [(phys t a j).block] without building the
   address. *)
let phys_disk t a j =
  if Hashtbl.length t.remap = 0 then home_disk t a j
  else (phys t a j).disk

let phys_block t a j =
  if Hashtbl.length t.remap = 0 then (j * t.blocks_per_disk) + a.block
  else (phys t a j).block

let check_addr t { disk; block } =
  if disk < 0 || disk >= t.disks then invalid_arg "Pdm: disk out of range";
  if block < 0 || block >= t.blocks_per_disk then
    invalid_arg "Pdm: block out of range"

let replica_disk t a j =
  check_addr t a;
  if j < 0 || j >= t.replicas then
    invalid_arg "Pdm.replica_disk: replica out of range";
  phys_disk t a j

(* pdm-lint: domain local — fills the caller's own array *)
let replica_disks t a dst ~off =
  check_addr t a;
  for j = 0 to t.replicas - 1 do
    dst.(off + j) <- phys_disk t a j
  done

let replica_addr t a ~replica =
  check_addr t a;
  if replica < 0 || replica >= t.replicas then
    invalid_arg "Pdm.replica_addr: replica out of range";
  phys t a replica

let block_number t a =
  check_addr t a;
  (a.disk * t.blocks_per_disk) + a.block

(* pdm-lint: domain local — fills the caller's own array *)
let block_numbers t addrs dst =
  let n = Array.length addrs and i = ref 0 in
  while
    !i < n
    &&
    let a = addrs.(!i) in
    a.disk >= 0 && a.disk < t.disks && a.block >= 0
    && a.block < t.blocks_per_disk
  do
    let a = addrs.(!i) in
    dst.(!i) <- (a.disk * t.blocks_per_disk) + a.block;
    incr i
  done;
  !i

(* The closed form, counted on the distinct addresses independently of
   the read path's own coalescing. *)
let rounds_for t addrs =
  List.iter (check_addr t) addrs;
  let addrs = List.sort_uniq compare addrs in
  match t.model with
  | Parallel_heads -> Imath.cdiv (List.length addrs) t.disks
  | Independent_disks ->
    let per_disk = Array.make t.disks 0 in
    List.iter (fun a -> per_disk.(a.disk) <- per_disk.(a.disk) + 1) addrs;
    Array.fold_left max 0 per_disk

let block_copy t = function
  | None -> Array.make t.block_size None
  | Some slots -> Array.copy slots

let add_disk_blocks t ~op per_disk =
  match op with
  | Trace.Read -> Stats.add_disk_reads t.stats per_disk
  | Trace.Write -> Stats.add_disk_writes t.stats per_disk

(* Why a block transfer finally failed. *)
type fail_reason = R_lost | R_corrupt | R_flaky

let raise_failure t ~disk ~block reason attempts =
  let round = t.rounds_done in
  match reason with
  | R_lost -> raise (Backend.Disk_failed { disk; block; round })
  | R_corrupt -> raise (Backend.Corrupt_block { disk; block; round })
  | R_flaky ->
    raise (Backend.Retries_exhausted { disk; block; attempts; round })

(* Sanitizer verdict on one finished round: every perform call must
   have been accounted as delivered, retried or failed; no disk may
   have been touched twice (independent-disks model); the round cannot
   move more blocks than it has channels; and no disk may be charged
   for more blocks than were actually transferred from it. *)
let sanitize_round t ~round_id ~channels ~touched ~performs ~accounted
    ~per_disk =
  (match t.model with
   | Independent_disks ->
     Array.iteri
       (fun d n ->
         if n > 1 then
           Sanitize.fail ~check:"one-block-per-disk-per-round" ~round:round_id
             (Printf.sprintf "disk %d touched %d blocks in one round" d n))
       touched
   | Parallel_heads -> ());
  let total = Array.fold_left ( + ) 0 touched in
  if total > channels then
    Sanitize.fail ~check:"round-width" ~round:round_id
      (Printf.sprintf "%d blocks moved in one round on %d channels" total
         channels);
  if performs <> accounted then
    Sanitize.fail ~check:"charge-accounting" ~round:round_id
      (Printf.sprintf "%d transfers performed but %d accounted" performs
         accounted);
  Array.iteri
    (fun d n ->
      if n > touched.(d) then
        Sanitize.fail ~check:"phantom-charge" ~round:round_id
          (Printf.sprintf "disk %d charged %d blocks but touched %d" d n
             touched.(d)))
    per_disk

(* Sanitizer verdict on a request that ran clean — no retry, no
   failover, every transfer one round: it must deliver every block and
   charge exactly the closed-form rounds of its physical addresses.
   The closed form is recomputed independently of the scheduler: sort
   the disks and count the longest same-disk run. *)
let sanitize_clean_request t ~channels ~disks ~n ~rounds ~delivered =
  let expect =
    match t.model with
    | Parallel_heads -> Imath.cdiv n channels
    | Independent_disks ->
      let sorted = List.sort compare (Array.to_list (Array.sub disks 0 n)) in
      let worst, _, _ =
        List.fold_left
          (fun (worst, prev, run) d ->
            let run = if prev = Some d then run + 1 else 1 in
            (max worst run, Some d, run))
          (0, None, 0) sorted
      in
      worst
  in
  if rounds <> expect || delivered <> n then
    Sanitize.fail ~check:"closed-form-rounds" ~round:t.rounds_done
      (Printf.sprintf
         "clean request of %d blocks charged %d rounds and delivered %d; \
          recomputed %d rounds"
         n rounds delivered expect)

(* Append transfer [k] to the FIFO of queue [q]. *)
(* pdm-lint: domain local — the machine's workspace queues; one scheduler per simulation, never shared *)
let enqueue ws q k =
  ws.next.(k) <- -1;
  if ws.head.(q) < 0 then ws.head.(q) <- k else ws.next.(ws.tail.(q)) <- k;
  ws.tail.(q) <- k

(* Make room for [n] transfers in the workspace. *)
(* pdm-lint: domain local — the machine's workspace arrays; one scheduler per simulation, never shared *)
let reserve ws n =
  if Array.length ws.next < n then begin
    let len = max n (2 * Array.length ws.next) in
    ws.pdisk <- Array.make len 0;
    ws.pblock <- Array.make len 0;
    ws.owner <- Array.make len 0;
    ws.next <- Array.make len (-1);
    ws.attempts <- Array.make len 0
  end

(* Round-by-round execution of one request over the physical disks —
   the only way a block moves. The request's [n] transfers are laid
   out in the workspace: transfer [k] moves block [ws.pblock.(k)] of
   disk [ws.pdisk.(k)]. [perform t ws env k ~attempt] completes it,
   answering [`Done], [`Retry reason] (re-queue for a later round, up
   to the budget) or [`Fail reason] (the block cannot be served here;
   the caller's [on_fail] decides whether a replica takes over or the
   failure is terminal). The callbacks take the request's state as
   [env], so a caller can pass top-level functions and build no
   closure per request. Each disk
   is a channel draining its own FIFO queue in the independent-disks
   model; the head model has interchangeable channels over one queue.
   A transfer occupies [cost] rounds of its channel, so a straggling
   or retried block honestly delays everything queued behind it; a
   retry goes to the tail of its channel's queue. The addresses must
   be distinct. Returns the number of rounds used and leaves the
   number of transfers delivered in [ws.delivered]. The queues live in
   the machine's workspace, so a request allocates nothing per block
   or per round unless a trace records the round. *)
(* pdm-lint: domain local — scheduler round ledger and the machine's workspace queues; one scheduler per simulation, never shared *)
let schedule_on t ws ~op ~n ~perform ~on_fail env =
  let channels = Array.length ws.cur in
  let pdisk = ws.pdisk in
  let head = ws.head and next = ws.next in
  let cur = ws.cur and left = ws.left and attempts = ws.attempts in
  let one_queue = t.model = Parallel_heads in
  Array.fill head 0 channels (-1);
  Array.fill cur 0 channels (-1);
  for k = 0 to n - 1 do
    attempts.(k) <- 0;
    enqueue ws (if one_queue then 0 else pdisk.(k)) k
  done;
  let queued = ref n and in_flight = ref 0 in
  let rounds_used = ref 0 in
  let delivered = ref 0 in
  let clean = ref true in
  let sanitizing = Sanitize.active () in
  while !in_flight > 0 || !queued > 0 do
    let round_id = t.rounds_done + 1 in
    let per_disk =
      match t.trace with
      | None ->
        Array.fill ws.per_disk 0 channels 0;
        ws.per_disk
      | Some _ -> Array.make channels 0
    in
    let retries = ref 0 in
    let degraded = ref false in
    let touched = if sanitizing then Array.make channels 0 else [||] in
    let performs = ref 0 and accounted = ref 0 in
    for c = 0 to channels - 1 do
      let q = if one_queue then 0 else c in
      (if cur.(c) < 0 && head.(q) >= 0 then begin
         let k = head.(q) in
         head.(q) <- next.(k);
         decr queued;
         let disk = pdisk.(k) in
         let cost = t.backends.(disk).Backend.cost in
         if sanitizing && cost < 1 then
           Sanitize.fail ~check:"backend-cost" ~round:round_id
             (Printf.sprintf
                "disk %d advertises cost %d; a transfer takes >= 1 round"
                disk cost);
         cur.(c) <- k;
         left.(c) <- cost;
         incr in_flight
       end);
      let k = cur.(c) in
      if k >= 0 then begin
        let disk = pdisk.(k) in
        let bk = t.backends.(disk) in
        if bk.Backend.cost > 1 then degraded := true;
        let remaining = left.(c) - 1 in
        if remaining > 0 then left.(c) <- remaining
        else begin
          cur.(c) <- -1;
          decr in_flight;
          if sanitizing then begin
            incr performs;
            touched.(disk) <- touched.(disk) + 1
          end;
          match perform t ws env k ~attempt:attempts.(k) with
          | `Done ->
            incr accounted;
            incr delivered;
            per_disk.(disk) <- per_disk.(disk) + 1
          | `Fail reason ->
            incr accounted;
            degraded := true;
            on_fail t ws env k reason ~attempts:attempts.(k)
          | `Retry reason ->
            incr accounted;
            incr retries;
            degraded := true;
            let again = attempts.(k) + 1 in
            if again > bk.Backend.max_retries then
              on_fail t ws env k reason ~attempts:again
            else begin
              attempts.(k) <- again;
              enqueue ws q k;
              incr queued
            end
        end
      end
    done;
    if sanitizing then
      sanitize_round t ~round_id ~channels ~touched ~performs:!performs
        ~accounted:!accounted ~per_disk;
    if !degraded then clean := false;
    t.rounds_done <- t.rounds_done + 1;
    incr rounds_used;
    (match t.trace with
     | None -> ()
     | Some tr ->
       Trace.record tr
         { Trace.round = round_id; op; per_disk; retries = !retries;
           degraded = !degraded; shard = Trace.shard tr; attempt = 0 });
    add_disk_blocks t ~op per_disk
  done;
  if sanitizing && !clean then
    sanitize_clean_request t ~channels ~disks:pdisk ~n ~rounds:!rounds_used
      ~delivered:!delivered;
  ws.delivered <- !delivered;
  !rounds_used

(* A request that starts while another runs on this machine (a
   backend or callback re-entering it) takes a fresh workspace. *)
(* pdm-lint: domain local — the machine's workspace flag; one scheduler per simulation, never shared *)
let acquire t =
  let ws = if t.ws.busy then workspace (Array.length t.ws.cur) else t.ws in
  ws.busy <- true;
  ws

(* Free [ws] after [e] escaped a request on it, and re-raise [e]. *)
(* pdm-lint: domain local — the machine's workspace flag; one scheduler per simulation, never shared *)
let release ws e =
  let bt = Printexc.get_raw_backtrace () in
  ws.busy <- false;
  Printexc.raise_with_backtrace e bt

(* The request's transfers at physical addresses [paddrs], on a
   workspace of its own: the rounds used and the transfers delivered. *)
(* pdm-lint: domain local — the machine's workspace flag and arrays; one scheduler per simulation, never shared *)
let schedule t ~op ~paddrs ~perform ~on_fail env =
  let ws = acquire t in
  let n = Array.length paddrs in
  reserve ws n;
  for k = 0 to n - 1 do
    ws.pdisk.(k) <- paddrs.(k).disk;
    ws.pblock.(k) <- paddrs.(k).block
  done;
  match schedule_on t ws ~op ~n ~perform ~on_fail env with
  | rounds ->
    ws.busy <- false;
    (rounds, ws.delivered)
  | exception e -> release ws e

(* One read attempt of transfer [k], as a scheduler transfer: [`Done]
   once [deliver t ws env k] has the payload — [None] for a
   never-written block, checksum cells stripped and verified when the
   machine carries an integrity envelope — or why the block must be
   retried or served elsewhere. *)
(* pdm-lint: domain local — down-disk mask on t, owned by the scheduler *)
let read_attempt ~deliver t ws env k ~attempt =
  let disk = ws.pdisk.(k) in
  match t.backends.(disk).Backend.read ~attempt ws.pblock.(k) with
  | Backend.Data stored ->
    (match t.integrity, stored with
     | None, payload | Some _, (None as payload) ->
       deliver t ws env k payload;
       `Done
     | Some itg, Some image ->
       (match itg.check image with
        | Some _ as payload ->
          deliver t ws env k payload;
          `Done
        | None -> `Retry R_corrupt))
  | Backend.Transient -> `Retry R_flaky
  | Backend.Lost ->
    t.down.(disk) <- true;
    `Fail R_lost

(* pdm-lint: domain local — the caller's own verdict array *)
let deliver_verdict _ _ results k payload = results.(k) <- Ok payload

let perform_verdict t ws results k ~attempt =
  read_attempt ~deliver:deliver_verdict t ws results k ~attempt

(* pdm-lint: domain local — the caller's own verdict array *)
let fail_verdict _ _ results k reason ~attempts:_ = results.(k) <- Error reason

(* Counted read of distinct physical addresses with no replica
   failover: entry [k] of the answer is [Ok payload] or [Error reason]
   for [paddrs.(k)]. Used by scrub, which wants per-replica verdicts
   rather than one healthy answer. *)
(* pdm-lint: domain local — machine state; every machine belongs to
   one shard, driven by that shard's single owning domain *)
let read_phys_batch t paddrs =
  let results = Array.make (Array.length paddrs) (Error R_lost) in
  let rounds, delivered =
    schedule t ~op:Trace.Read ~paddrs ~perform:perform_verdict
      ~on_fail:fail_verdict results
  in
  Stats.add_read_round t.stats ~blocks:delivered ~rounds;
  results

(* The sanitizer's read-only-view check: every image the last
   {!read_preferring} handed out must still equal its snapshot when
   the machine's next counted request starts. Off, nothing is
   recorded and this is one field read; on, the check allocates
   nothing, so a request measures the same with the sanitizer on. *)
let rec check_view_list t = function
  | [] -> ()
  | (a, image, snapshot) :: views ->
    if image <> snapshot then
      Sanitize.fail ~check:"read-only-view" ~round:t.rounds_done
        (Printf.sprintf
           "block %d.%d was modified after read_preferring handed it out \
            read-only"
           a.disk a.block);
    check_view_list t views

(* pdm-lint: domain local — machine state; every machine belongs to
   one shard, driven by that shard's single owning domain *)
let check_views t =
  match t.views with
  | [] -> ()
  | views ->
    t.views <- [];
    check_view_list t views

(* Replica [j] is among a block's remaining candidates [mask]. *)
let has mask j = mask land (1 lsl j) <> 0

let rec lowest mask j = if has mask j then j else lowest mask (j + 1)

(* The first remaining candidate other than [pref], ascending from [j],
   whose disk is not known down; -1 if none. *)
let rec next_live t a ~pref mask j =
  if j >= t.replicas then -1
  else if j <> pref && has mask j && not t.down.(phys_disk t a j) then j
  else next_live t a ~pref mask (j + 1)

(* The replica to try next among the candidates [mask], in failover
   order — the preference, then the others ascending: the first whose
   disk is not known down, else the first. *)
let choose t a ~pref mask =
  if has mask pref && not t.down.(phys_disk t a pref) then pref
  else
    match next_live t a ~pref mask 0 with
    | -1 -> if has mask pref then pref else lowest mask 0
    | j -> j

(* Replicated, verifying read of distinct logical blocks [addrs], each
   tried first on its preferred replica [prefs.(i)]. Each pass
   schedules one physical candidate per still-unserved block ({!choose})
   and blocks that fail move to their next replica for the following
   pass, the most recent failure first. A healthy request is one pass
   (the seed's cost); discovering a dead disk costs one extra pass for
   the affected blocks, after which the health cache routes straight
   to the survivors. Only when a block runs out of replicas does the
   terminal failure escape as a structured exception. Answer [i] is
   block [addrs.(i)]'s stored image itself (or the machine's one [empty]
   block for a never-written address); the answer array is the only one
   the bookkeeping allocates, the rest lives in the workspace [ws], and
   the scheduler's callbacks are top-level functions over it. *)
(* pdm-lint: domain local — the caller's answer array *)
let deliver_candidate t ws results k payload =
  results.(ws.pending.(k)) <-
    (match payload with Some image -> image | None -> t.empty)

let perform_candidate t ws results k ~attempt =
  read_attempt ~deliver:deliver_candidate t ws results k ~attempt

(* pdm-lint: domain local — the machine's workspace; one scheduler per simulation, never shared *)
let fail_candidate t ws _ k reason ~attempts =
  let i = ws.pending.(k) in
  if ws.remaining.(i) = 0 then
    raise_failure t ~disk:ws.pdisk.(k) ~block:ws.pblock.(k) reason attempts
  else begin
    ws.failed.(ws.nfailed) <- i;
    ws.nfailed <- ws.nfailed + 1
  end

(* pdm-lint: domain local — down-disk mask and the machine's workspace on t, owned by the scheduler *)
let read_candidates_on t ws addrs prefs =
  let n = Array.length addrs in
  if Array.length ws.remaining < n then begin
    let len = max n (2 * Array.length ws.remaining) in
    ws.remaining <- Array.make len 0;
    ws.pending <- Array.make len 0;
    ws.failed <- Array.make len 0
  end;
  reserve ws n;
  let results = Array.make n t.empty in
  let remaining = ws.remaining and pending = ws.pending in
  let failed = ws.failed in
  let pdisk = ws.pdisk and pblock = ws.pblock in
  let all = (1 lsl t.replicas) - 1 in
  for i = 0 to n - 1 do
    remaining.(i) <- all;
    pending.(i) <- i
  done;
  let npending = ref n in
  while !npending > 0 do
    for k = 0 to !npending - 1 do
      let i = pending.(k) in
      let a = addrs.(i) in
      let j = choose t a ~pref:prefs.(i) remaining.(i) in
      remaining.(i) <- remaining.(i) land lnot (1 lsl j);
      pdisk.(k) <- phys_disk t a j;
      pblock.(k) <- phys_block t a j
    done;
    ws.nfailed <- 0;
    let rounds =
      schedule_on t ws ~op:Trace.Read ~n:!npending ~perform:perform_candidate
        ~on_fail:fail_candidate results
    in
    Stats.add_read_round t.stats ~blocks:ws.delivered ~rounds;
    let nfailed = ws.nfailed in
    npending := nfailed;
    for x = 0 to nfailed - 1 do
      pending.(x) <- failed.(nfailed - 1 - x)
    done
  done;
  results

(* pdm-lint: domain local — the machine's workspace flag; one scheduler per simulation, never shared *)
let read_candidates t addrs prefs =
  let ws = acquire t in
  match read_candidates_on t ws addrs prefs with
  | results ->
    ws.busy <- false;
    results
  | exception e -> release ws e

(* Chain the first position of each distinct address of [addrs]
   through the workspace, by disk and newest first, and answer how many
   positions repeat an earlier one; a repeat's own chain entry names
   its address's first position. A position is compared only with the
   first positions on its disk, so a request with one block per disk
   compares no two addresses. *)
(* pdm-lint: domain local — the machine's workspace chains; one scheduler per simulation, never shared *)
let chain_distinct t addrs =
  let ws = t.ws in
  let n = Array.length addrs in
  if Array.length ws.chain < n then
    ws.chain <- Array.make (max n (2 * Array.length ws.chain)) (-1);
  let last = ws.last and chain = ws.chain in
  Array.fill last 0 t.disks (-1);
  let repeats = ref 0 in
  for i = 0 to n - 1 do
    let a = addrs.(i) in
    let k = ref last.(a.disk) in
    while !k >= 0 && addrs.(!k).block <> a.block do
      k := chain.(!k)
    done;
    if !k >= 0 then begin
      chain.(i) <- !k;
      incr repeats
    end
    else begin
      chain.(i) <- last.(a.disk);
      last.(a.disk) <- i
    end
  done;
  !repeats

(* Raise [Invalid_argument what] unless [addrs] are distinct: the
   check of read_preferring and of write. *)
let check_distinct t ~what addrs =
  if chain_distinct t addrs > 0 then invalid_arg what

(* Fresh copies of distinct blocks [addrs], answer [i] for [addrs.(i)]. *)
let read_copies t addrs =
  let blocks = read_candidates t addrs (Array.make (Array.length addrs) 0) in
  for i = 0 to Array.length blocks - 1 do
    blocks.(i) <- Array.copy blocks.(i)
  done;
  blocks

(* Answer [i] is block [addrs.(i)]. A repeated address is read once, at
   its first position, and every position naming it shares that copy;
   the distinct addresses are scheduled in first-occurrence order. A
   position's chain entry names an earlier position on its disk: its
   first occurrence when the blocks match, else the previous distinct
   address. *)
let read t addrs =
  check_views t;
  for i = 0 to Array.length addrs - 1 do
    check_addr t addrs.(i)
  done;
  match chain_distinct t addrs with
  | 0 -> read_copies t addrs
  | repeats ->
    let n = Array.length addrs and chain = t.ws.chain in
    let slot = Array.make n 0 in
    let distinct = Array.make (n - repeats) addrs.(0) in
    let next = ref 0 in
    for i = 0 to n - 1 do
      let k = chain.(i) in
      if k >= 0 && addrs.(k).block = addrs.(i).block then slot.(i) <- slot.(k)
      else begin
        distinct.(!next) <- addrs.(i);
        slot.(i) <- !next;
        incr next
      end
    done;
    let blocks = read_copies t distinct in
    Array.map (fun s -> blocks.(s)) slot

let read_one t a = (read t [| a |]).(0)

(* Replica-directed read: the caller chose which replica should serve
   each block (e.g. two-choice assignment onto the least-loaded disk);
   the chosen replica is tried first and the remaining ones stay as
   failover candidates in home order. On an unreplicated machine every
   preference is 0 and this is {!read} without the copies: the answers
   are the stored images themselves, read-only, answer [i] for
   [addrs.(i)]. Every preference is validated before the addresses are
   checked for duplicates. Under the sanitizer each image is
   snapshotted for {!check_views}. *)
(* pdm-lint: domain local — down-disk mask and sanitizer views on t, owned by the scheduler *)
let read_preferring t addrs prefs =
  check_views t;
  let n = Array.length addrs in
  if Array.length prefs <> n then
    invalid_arg "Pdm.read_preferring: one preference per address";
  for i = 0 to n - 1 do
    check_addr t addrs.(i);
    if prefs.(i) < 0 || prefs.(i) >= t.replicas then
      invalid_arg "Pdm.read_preferring: replica out of range"
  done;
  check_distinct t ~what:"Pdm.read_preferring: duplicate address" addrs;
  let blocks = read_candidates t addrs prefs in
  if Sanitize.active () then
    t.views <-
      List.init n (fun i -> (addrs.(i), blocks.(i), Array.copy blocks.(i)));
  blocks

let read_views t addrs =
  read_preferring t addrs (Array.make (Array.length addrs) 0)

(* Run a user-supplied integrity envelope, cross-checking (under the
   sanitizer) that it really produces stored images of the size it
   declared — a lying envelope would silently shift every block's
   payload boundary. *)
let apply_envelope t itg slots =
  let sealed = itg.seal slots in
  if
    Sanitize.active ()
    && Array.length sealed <> t.block_size + itg.overhead
  then
    Sanitize.fail ~check:"integrity-envelope" ~round:t.rounds_done
      (Printf.sprintf
         "envelope %S declared overhead %d but sealed %d cells to %d"
         itg.tag itg.overhead t.block_size (Array.length sealed));
  sealed

(* Seal a payload for storage: a fresh image the machine owns, the
   payload's copy or its envelope (checksum appended), which every
   replica then stores as is. No backend writes into a stored image
   (a write or poke replaces it), so replicas can share one. *)
let seal t slots =
  if Array.length slots <> t.block_size then
    invalid_arg "Pdm.write: block has wrong length";
  match t.integrity with
  | None -> Array.copy slots
  | Some itg -> apply_envelope t itg slots

(* One write attempt of already-sealed data at a physical address, as
   a scheduler transfer: [`Done], or [`Fail] when the disk is dead (the
   allocation counter left untouched). *)
(* pdm-lint: domain local — allocation high-water mark and down-disk mask on t, owned by the scheduler *)
let write_attempt t ~disk ~block data =
  let bk = t.backends.(disk) in
  let fresh = not (bk.Backend.exists block) in
  match bk.Backend.write block data with
  | () ->
    if fresh then t.allocated <- t.allocated + 1;
    `Done
  | exception Backend.Disk_failed _ ->
    t.down.(disk) <- true;
    `Fail R_lost

let perform_phys_write t ws data k ~attempt:_ =
  write_attempt t ~disk:ws.pdisk.(k) ~block:ws.pblock.(k) data

let ignore_failure _ _ _ _ _ ~attempts:_ = ()

(* Single-block counted write used by repair; false when the target
   disk turns out to be dead. *)
(* pdm-lint: domain local — machine state; every machine belongs to
   one shard, driven by that shard's single owning domain *)
let write_phys_one t p data =
  let rounds, delivered =
    schedule t ~op:Trace.Write ~paddrs:[| p |] ~perform:perform_phys_write
      ~on_fail:ignore_failure data
  in
  Stats.add_write_round t.stats ~blocks:delivered ~rounds;
  delivered = 1

(* A replica of logical block [i] failed for good: the write raises
   once all of the block's replicas have. *)
(* pdm-lint: domain local — the write's own failure counts *)
let fail_replica t failed i ~disk ~block reason attempts =
  failed.(i) <- failed.(i) + 1;
  if failed.(i) >= t.replicas then
    raise_failure t ~disk ~block reason attempts

let perform_write t ws (sealed, _) k ~attempt:_ =
  write_attempt t ~disk:ws.pdisk.(k) ~block:ws.pblock.(k)
    sealed.(ws.owner.(k))

let fail_write t ws (_, failed) k reason ~attempts =
  fail_replica t failed ws.owner.(k) ~disk:ws.pdisk.(k) ~block:ws.pblock.(k)
    reason attempts

(* Replicated write: every logical block is sealed once and stored on
   all r of its replica disks in one request. A replica
   landing on a disk that is (or turns out to be) dead is skipped —
   the block survives as long as one replica is stored; only when all
   r replicas fail does the write raise. The replicas are laid out in
   the workspace, block by block in replica order, each with its
   owning block. *)
(* pdm-lint: domain local — down-disk mask and the machine's workspace on t, owned by the scheduler *)
let write t blocks =
  check_views t;
  let blocks = Array.of_list blocks in
  let n = Array.length blocks in
  let addrs = Array.map fst blocks in
  for i = 0 to n - 1 do
    check_addr t addrs.(i)
  done;
  check_distinct t ~what:"Pdm.write: duplicate address in one request" addrs;
  for i = 0 to n - 1 do
    notify_write t addrs.(i)
  done;
  let sealed = Array.map (fun (_, slots) -> seal t slots) blocks in
  let failed = Array.make n 0 in
  let ws = acquire t in
  match
    reserve ws (n * t.replicas);
    (* replicas on disks already known down fail without costing a
       round — there is nothing to schedule there *)
    let targets = ref 0 in
    for i = 0 to n - 1 do
      for j = 0 to t.replicas - 1 do
        let disk = phys_disk t addrs.(i) j
        and block = phys_block t addrs.(i) j in
        if t.down.(disk) then fail_replica t failed i ~disk ~block R_lost 0
        else begin
          ws.owner.(!targets) <- i;
          ws.pdisk.(!targets) <- disk;
          ws.pblock.(!targets) <- block;
          incr targets
        end
      done
    done;
    schedule_on t ws ~op:Trace.Write ~n:!targets ~perform:perform_write
      ~on_fail:fail_write (sealed, failed)
  with
  | rounds ->
    ws.busy <- false;
    Stats.add_write_round t.stats ~blocks:ws.delivered ~rounds
  | exception e -> release ws e

let write_one t a slots = write t [ (a, slots) ]

(* Uncounted view of one logical block: the first replica whose
   stored bits exist and pass the integrity check, as a payload. *)
let stored_payload t a =
  let rec go j =
    if j >= t.replicas then None
    else
      let p = phys t a j in
      match t.backends.(p.disk).Backend.peek p.block with
      | None -> go (j + 1)
      | Some stored ->
        (match t.integrity with
         | None -> Some stored
         | Some itg ->
           (match itg.check stored with
            | Some payload -> Some payload
            | None -> go (j + 1)))
  in
  go 0

let peek t a =
  check_addr t a;
  block_copy t (stored_payload t a)

let poke t a slots =
  check_addr t a;
  if Array.length slots <> t.block_size then
    invalid_arg "Pdm.poke: block has wrong length";
  notify_write t a;
  let data =
    match t.integrity with
    | None -> slots
    | Some itg -> apply_envelope t itg slots
  in
  for j = 0 to t.replicas - 1 do
    let p = phys t a j in
    let bk = t.backends.(p.disk) in
    if not (bk.Backend.exists p.block) then t.allocated <- t.allocated + 1;
    bk.Backend.poke p.block (Some (Array.copy data))
  done

(* Durability barrier across every live disk (uncounted: PDM rounds
   model block transfers, not flushes). The journal calls this at its
   commit points so real-I/O backends are crash-consistent. *)
let barrier t = Array.iter (fun bk -> bk.Backend.barrier ()) t.backends

let allocated_blocks t = t.allocated

let capacity_items t = t.disks * t.blocks_per_disk * t.block_size

let iter_allocated t f =
  for d = 0 to t.disks - 1 do
    for b = 0 to t.blocks_per_disk - 1 do
      let a = { disk = d; block = b } in
      match stored_payload t a with
      | None -> ()
      | Some payload -> f a payload
    done
  done

(* ------------------------------------------------------------------ *)
(* Failure, damage and repair                                          *)

(* pdm-lint: domain local — machine state; every machine belongs to
   one shard, driven by that shard's single owning domain *)
let kill_disk t d =
  if d < 0 || d >= physical_disks t then
    invalid_arg "Pdm.kill_disk: disk out of range";
  let blocks = physical_blocks_of ~replicas:t.replicas
      ~blocks_per_disk:t.blocks_per_disk in
  t.backends.(d) <- Backend.dead ~disk:d ~blocks;
  t.down.(d) <- true

let damage_stored t a ~replica =
  check_addr t a;
  if replica < 0 || replica >= t.replicas then
    invalid_arg "Pdm.damage_stored: replica out of range";
  let p = phys t a replica in
  let bk = t.backends.(p.disk) in
  match bk.Backend.peek p.block with
  | None -> ()
  | Some slots ->
    let n = Array.length slots in
    if n >= 2 then
      bk.Backend.poke p.block
        (Some (Array.init n (fun i -> slots.((i + n - 1) mod n))))

type scrub_report = {
  scanned_blocks : int;
  intact_replicas : int;
  corrupt_replicas : int;
  missing_replicas : int;
  repaired_replicas : int;
  remapped_replicas : int;
  unrepairable_replicas : int;
  lost_blocks : int;
  scan_rounds : int;
  repair_rounds : int;
}

(* Next free block on a healthy spare disk, or None when the spare
   budget is exhausted. *)
(* pdm-lint: domain local — machine state; every machine belongs to
   one shard, driven by that shard's single owning domain *)
let alloc_spare t =
  let rec go s =
    if s >= t.spares then None
    else
      let d = t.disks + s in
      let cap =
        physical_blocks_of ~replicas:t.replicas
          ~blocks_per_disk:t.blocks_per_disk
      in
      if t.down.(d) || t.spare_next.(s) >= cap then go (s + 1)
      else begin
        let b = t.spare_next.(s) in
        t.spare_next.(s) <- b + 1;
        Some { disk = d; block = b }
      end
  in
  go 0

(* Does any replica of [a] hold raw bits? Decides whether the logical
   block was ever written — an uncounted metadata question (a real
   system reads its allocation map, not the platters). *)
let raw_allocated t a =
  let rec go j =
    j < t.replicas
    &&
    let p = phys t a j in
    t.backends.(p.disk).Backend.exists p.block || go (j + 1)
  in
  go 0

(* Scrub: sweep every allocated logical block, read all its replicas
   (one request per block — r distinct disks, so one round
   when healthy), verify checksums, and rewrite every bad replica
   from an intact one: in place when its disk still answers, onto a
   spare disk (recording the move in the remap table) when it does
   not. Every verification read and repair write is charged through
   the normal scheduler, so the report's round counts are the honest
   repair I/O budget. *)
(* pdm-lint: domain local — machine state; every machine belongs to
   one shard, driven by that shard's single owning domain *)
let scrub t =
  let scanned = ref 0 and intact = ref 0 and corrupt = ref 0 in
  let missing = ref 0 and repaired = ref 0 and remapped = ref 0 in
  let unrepairable = ref 0 and lost = ref 0 in
  let scan_rounds = ref 0 and repair_rounds = ref 0 in
  let counting counter f =
    let before = t.rounds_done in
    let r = f () in
    counter := !counter + (t.rounds_done - before);
    r
  in
  (* Re-store [payload] for replica [j] of [a]: in place if that disk
     answers, else onto a spare; verify the write by reading it back. *)
  let repair_replica a j payload =
    (* The stored bits of this logical block are about to be
       rewritten; any cache must drop its copy (conservatively, even
       if the repair then fails). *)
    notify_write t a;
    let data = seal t payload in
    let home = phys t a j in
    let try_target target =
      counting repair_rounds (fun () ->
          write_phys_one t target data
          &&
          match (read_phys_batch t [| target |]).(0) with
          | Ok (Some _) -> true
          | Ok None | Error _ -> false)
    in
    let record target =
      incr repaired;
      if target <> home then begin
        Hashtbl.replace t.remap (a, j) target;
        incr remapped
      end
    in
    let to_spare () =
      match alloc_spare t with
      | None -> incr unrepairable
      | Some target ->
        if try_target target then record target else incr unrepairable
    in
    if t.down.(home.disk) then to_spare ()
    else if try_target home then record home
    else to_spare ()
  in
  for d = 0 to t.disks - 1 do
    for b = 0 to t.blocks_per_disk - 1 do
      let a = { disk = d; block = b } in
      if raw_allocated t a then begin
        incr scanned;
        let homes = List.init t.replicas (fun j -> (j, phys t a j)) in
        let live, dead =
          List.partition (fun (_, p) -> not t.down.(p.disk)) homes
        in
        let verdicts =
          counting scan_rounds (fun () ->
              read_phys_batch t (Array.of_list (List.map snd live)))
        in
        let status verdict (j, p) =
          if t.down.(p.disk) then (j, `Missing)
          else
            match verdict with
            | Ok (Some payload) -> (j, `Intact payload)
            | Error R_corrupt -> (j, `Corrupt)
            | Ok None | Error (R_lost | R_flaky) -> (j, `Missing)
        in
        let statuses =
          List.mapi (fun k jp -> status verdicts.(k) jp) live
          @ List.map (fun (j, _) -> (j, `Missing)) dead
        in
        let good =
          List.find_map
            (function _, `Intact payload -> Some payload | _ -> None)
            (List.sort (fun (j, _) (k, _) -> compare j k) statuses)
        in
        List.iter
          (fun (_, st) ->
            match st with
            | `Intact _ -> incr intact
            | `Corrupt -> incr corrupt
            | `Missing -> incr missing)
          statuses;
        match good with
        | None -> incr lost
        | Some payload ->
          List.iter
            (fun (j, st) ->
              match st with
              | `Intact _ -> ()
              | `Corrupt | `Missing -> repair_replica a j payload)
            statuses
      end
    done
  done;
  { scanned_blocks = !scanned;
    intact_replicas = !intact;
    corrupt_replicas = !corrupt;
    missing_replicas = !missing;
    repaired_replicas = !repaired;
    remapped_replicas = !remapped;
    unrepairable_replicas = !unrepairable;
    lost_blocks = !lost;
    scan_rounds = !scan_rounds;
    repair_rounds = !repair_rounds }
