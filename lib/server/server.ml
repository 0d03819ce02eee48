module Backend = Pdm_sim.Backend
module Engine = Pdm_engine.Engine

(* ------------------------------------------------------------------ *)
(* Cross-domain plumbing: per-worker mailboxes and a completion queue, *)
(* all mutex-guarded; counters are atomics.                            *)

type admin = Kill of int | Scrub_shard

type job =
  | Data of {
      conn : int;
      frame : int;
      shard : int;
      ops : (int * Wire.op) list;  (* (original op index, op) *)
    }
  | Admin of { conn : int; frame : int; shard : int; action : admin }
  | Quit

type completion =
  | C_data of {
      conn : int;
      frame : int;
      results : (int * (Wire.result_, exn) result) list;
    }
  | C_admin of { conn : int; frame : int; outcome : (unit, exn) result }

type mailbox = {
  mb_mu : Mutex.t;
  mb_cond : Condition.t;
  mb_q : job Queue.t;
  mutable mb_depth : int;
  mutable mb_peak : int;
}

let mailbox_create () =
  { mb_mu = Mutex.create (); mb_cond = Condition.create ();
    mb_q = Queue.create (); mb_depth = 0; mb_peak = 0 }

let mailbox_push mb job =
  Mutex.lock mb.mb_mu;
  Queue.add job mb.mb_q;
  mb.mb_depth <- mb.mb_depth + 1;
  if mb.mb_depth > mb.mb_peak then mb.mb_peak <- mb.mb_depth;
  Condition.signal mb.mb_cond;
  Mutex.unlock mb.mb_mu

let mailbox_pop mb =
  Mutex.lock mb.mb_mu;
  while Queue.is_empty mb.mb_q do
    Condition.wait mb.mb_cond mb.mb_mu
  done;
  let job = Queue.pop mb.mb_q in
  mb.mb_depth <- mb.mb_depth - 1;
  Mutex.unlock mb.mb_mu;
  job

(* A racy-but-monotone admission read: only the listener pushes, so a
   stale depth can only over-admit by completed work, never hang. *)
let mailbox_depth mb =
  Mutex.lock mb.mb_mu;
  let d = mb.mb_depth in
  Mutex.unlock mb.mb_mu;
  d

type done_queue = { dq_mu : Mutex.t; dq_q : completion Queue.t }

let done_push dq c =
  Mutex.lock dq.dq_mu;
  Queue.add c dq.dq_q;
  Mutex.unlock dq.dq_mu

let done_drain dq =
  Mutex.lock dq.dq_mu;
  let r = Queue.fold (fun acc c -> c :: acc) [] dq.dq_q in
  Queue.clear dq.dq_q;
  Mutex.unlock dq.dq_mu;
  List.rev r

(* ------------------------------------------------------------------ *)
(* Listener-side connection state (touched only by the listener).      *)

type frame_kind = K_single | K_batch | K_admin

type pending_frame = {
  p_rid : int;
  p_kind : frame_kind;
  p_results : (Wire.result_, exn) result option array;
  mutable p_admin : (unit, exn) result;
  mutable p_remaining : int;
}

type conn = {
  fd : Unix.file_descr;
  cid : int;
  framing : Wire.Framing.t;
  pending : (int, pending_frame) Hashtbl.t;
  mutable next_frame : int;
  mutable alive : bool;
}

type config = {
  plane : Data_plane.config;
  domains : int;
  queue_cap : int;
}

let default_config =
  { plane = Data_plane.default_config; domains = 1; queue_cap = 1024 }

type t = {
  plane : Data_plane.t;
  cfg : config;
  listen_fd : Unix.file_descr;
  port : int;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  mailboxes : mailbox array;
  dq : done_queue;
  stopping : bool Atomic.t;
  conns : (int, conn) Hashtbl.t;  (* listener-owned *)
  by_fd : (Unix.file_descr, conn) Hashtbl.t;  (* listener-owned: [conns] by socket *)
  mutable next_cid : int;         (* listener-owned *)
  c_conns : int Atomic.t;
  c_frames : int Atomic.t;
  c_busy : int Atomic.t;
  c_unavailable : int Atomic.t;
  c_proto : int Atomic.t;
  mutable workers : unit Domain.t array;
  mutable listener : unit Domain.t option;
  mutable stopped : bool;
}

type counters = {
  conns : int;
  frames : int;
  busy : int;
  unavailable : int;
  proto_errors : int;
  peak_depth : int;
}

let counters (t : t) =
  { conns = Atomic.get t.c_conns;
    frames = Atomic.get t.c_frames;
    busy = Atomic.get t.c_busy;
    unavailable = Atomic.get t.c_unavailable;
    proto_errors = Atomic.get t.c_proto;
    peak_depth =
      Array.fold_left
        (fun acc mb ->
          Mutex.lock mb.mb_mu;
          let p = mb.mb_peak in
          Mutex.unlock mb.mb_mu;
          max acc p)
        0 t.mailboxes }

let port t = t.port

let plane t = t.plane

(* ------------------------------------------------------------------ *)
(* Worker domains: each owns the shards [s mod W = w] and is the only  *)
(* domain that ever executes on them.                                  *)

let describe_error e =
  let underlying =
    match e with Engine.Request_failed { error; _ } -> error | e -> e
  in
  match Backend.describe underlying with
  | Some m -> m
  | None -> Printexc.to_string underlying

let worker_loop t w =
  let mb = t.mailboxes.(w) in
  let running = ref true in
  while !running do
    match mailbox_pop mb with
    | Quit -> running := false
    | Data { conn; frame; shard; ops } ->
      let results =
        match Data_plane.execute t.plane ~shard (List.map snd ops) with
        | rs -> List.map2 (fun (i, _) r -> (i, r)) ops rs
        | exception e -> List.map (fun (i, _) -> (i, Error e)) ops
      in
      done_push t.dq (C_data { conn; frame; results });
      ignore (Unix.write t.wake_w (Bytes.make 1 '!') 0 1)
    | Admin { conn; frame; shard; action } ->
      let outcome =
        try
          (match action with
           | Kill disk -> Data_plane.kill_disk t.plane ~shard ~disk
           | Scrub_shard -> ignore (Data_plane.scrub t.plane ~shard));
          Ok ()
        with e -> Error e
      in
      done_push t.dq (C_admin { conn; frame; outcome });
      ignore (Unix.write t.wake_w (Bytes.make 1 '!') 0 1)
  done

(* ------------------------------------------------------------------ *)
(* Listener: socket I/O, framing, routing, reply assembly.             *)

let rec write_all fd buf off len =
  if len > 0 then begin
    let n = Unix.write fd buf off len in
    write_all fd buf (off + n) (len - n)
  end

(* Close a connection and forget it. Once its socket is closed the
   kernel may hand the same fd number to the next accepted connection,
   so its [by_fd] entry goes with it. *)
(* pdm-lint: domain local — connection teardown on listener state *)
let retire_conn (t : t) conn =
  if conn.alive then begin
    conn.alive <- false;
    (try Unix.close conn.fd with Unix.Unix_error _ -> ());
    Hashtbl.remove t.conns conn.cid;
    Hashtbl.remove t.by_fd conn.fd
  end

(* pdm-lint: domain local — conn records belong to the listener; a
   failed write just retires the connection *)
let send_reply (t : t) conn rep_frame =
  if conn.alive then
    let frame = Wire.encode_reply rep_frame in
    try write_all conn.fd frame 0 (Bytes.length frame)
    with Unix.Unix_error ((EPIPE | ECONNRESET | EBADF), _, _) ->
      retire_conn t conn

let send_proto_error t conn ~rid code message =
  Atomic.incr t.c_proto;
  send_reply t conn
    { Wire.rid; rep = Wire.Proto_error { code; message } }

let owner_of_shard t shard = shard mod Array.length t.mailboxes

(* Group a batch's ops by target shard, preserving op order within
   each shard — the order every domain count replays identically. *)
(* pdm-lint: domain local — grouping scratch lives on the listener *)
let group_by_shard t ops =
  let tbl = Hashtbl.create 8 in
  let order = ref [] in
  List.iteri
    (fun i op ->
      let key =
        match op with
        | Wire.Get k | Wire.Insert (k, _) | Wire.Delete k -> k
      in
      let shard = Data_plane.shard_of_key t.plane key in
      (match Hashtbl.find_opt tbl shard with
       | Some l -> l := (i, op) :: !l
       | None ->
         Hashtbl.add tbl shard (ref [ (i, op) ]);
         order := shard :: !order))
    ops;
  List.rev_map (fun shard -> (shard, List.rev !(Hashtbl.find tbl shard)))
    !order

(* pdm-lint: domain local — pending-frame assembly is listener-only *)
let admit_data t conn ~rid ~kind groups ~total =
  let jobs =
    List.map
      (fun (shard, ops) -> (t.mailboxes.(owner_of_shard t shard), shard, ops))
      groups
  in
  let fits (mb, _, _) = mailbox_depth mb < t.cfg.queue_cap in
  if not (List.for_all fits jobs) then begin
    Atomic.incr t.c_busy;
    send_reply t conn { Wire.rid; rep = Wire.Busy }
  end
  else begin
    Atomic.incr t.c_frames;
    let frame = conn.next_frame in
    conn.next_frame <- frame + 1;
    Hashtbl.replace conn.pending frame
      { p_rid = rid; p_kind = kind; p_results = Array.make total None;
        p_admin = Ok (); p_remaining = List.length jobs };
    List.iter
      (fun (mb, shard, ops) ->
        mailbox_push mb (Data { conn = conn.cid; frame; shard; ops }))
      jobs
  end

(* pdm-lint: domain local — see [admit_data] *)
let admit_admin t conn ~rid ~shard action =
  if shard < 0 || shard >= Data_plane.shards t.plane then
    send_proto_error t conn ~rid Wire.Server_error
      (Printf.sprintf "unknown shard %d" shard)
  else begin
    let mb = t.mailboxes.(owner_of_shard t shard) in
    if mailbox_depth mb >= t.cfg.queue_cap then begin
      Atomic.incr t.c_busy;
      send_reply t conn { Wire.rid; rep = Wire.Busy }
    end
    else begin
      Atomic.incr t.c_frames;
      let frame = conn.next_frame in
      conn.next_frame <- frame + 1;
      Hashtbl.replace conn.pending frame
        { p_rid = rid; p_kind = K_admin; p_results = [||]; p_admin = Ok ();
          p_remaining = 1 };
      mailbox_push mb (Admin { conn = conn.cid; frame; shard; action })
    end
  end

let handle_frame t conn payload =
  match Wire.decode_request payload with
  | Error (code, message) -> send_proto_error t conn ~rid:0 code message
  | Ok { Wire.rid; req } -> (
    match req with
    | Wire.Ping ->
      Atomic.incr t.c_frames;
      send_reply t conn { Wire.rid; rep = Wire.Pong }
    | Wire.Stats ->
      Atomic.incr t.c_frames;
      send_reply t conn
        { Wire.rid; rep = Wire.Stats_reply (Data_plane.shard_stats t.plane) }
    | Wire.Op op ->
      admit_data t conn ~rid ~kind:K_single (group_by_shard t [ op ]) ~total:1
    | Wire.Batch [] ->
      Atomic.incr t.c_frames;
      send_reply t conn { Wire.rid; rep = Wire.Results [] }
    | Wire.Batch ops ->
      admit_data t conn ~rid ~kind:K_batch (group_by_shard t ops)
        ~total:(List.length ops)
    | Wire.Kill_disk { shard; disk } ->
      admit_admin t conn ~rid ~shard (Kill disk)
    | Wire.Scrub { shard } -> admit_admin t conn ~rid ~shard Scrub_shard)

(* pdm-lint: domain local — reply assembly on listener-owned state *)
let finish_frame t conn p =
  let rep =
    match p.p_kind with
    | K_admin -> (
      match p.p_admin with
      | Ok () -> Wire.Admin_ok
      | Error e ->
        Atomic.incr t.c_unavailable;
        Wire.Unavailable (describe_error e))
    | K_single | K_batch -> (
      let failed = ref None in
      Array.iter
        (fun slot ->
          match slot with
          | Some (Error e) when !failed = None -> failed := Some e
          | _ -> ())
        p.p_results;
      match !failed with
      | Some e ->
        Atomic.incr t.c_unavailable;
        Wire.Unavailable (describe_error e)
      | None -> (
        let results =
          Array.to_list p.p_results
          |> List.map (function
               | Some (Ok r) -> r
               | Some (Error _) | None ->
                 (* a lost slot is a bug in assembly, not in storage *)
                 Wire.Absent)
        in
        match p.p_kind with
        | K_single -> (
          match results with
          | [ r ] -> Wire.Result r
          | _ -> Wire.Results results)
        | _ -> Wire.Results results))
  in
  send_reply t conn { Wire.rid = p.p_rid; rep }

(* pdm-lint: domain local — completions are applied by the listener *)
let apply_completion (t : t) c =
  let resolve cid frame =
    match Hashtbl.find_opt t.conns cid with
    | None -> None
    | Some conn -> (
      match Hashtbl.find_opt conn.pending frame with
      | None -> None
      | Some p -> Some (conn, p))
  in
  match c with
  | C_data { conn = cid; frame; results } -> (
    match resolve cid frame with
    | None -> ()
    | Some (conn, p) ->
      List.iter (fun (i, r) -> p.p_results.(i) <- Some r) results;
      p.p_remaining <- p.p_remaining - 1;
      if p.p_remaining = 0 then begin
        Hashtbl.remove conn.pending frame;
        finish_frame t conn p
      end)
  | C_admin { conn = cid; frame; outcome } -> (
    match resolve cid frame with
    | None -> ()
    | Some (conn, p) ->
      p.p_admin <- outcome;
      p.p_remaining <- p.p_remaining - 1;
      if p.p_remaining = 0 then begin
        Hashtbl.remove conn.pending frame;
        finish_frame t conn p
      end)

let scratch_len = 65536

(* pdm-lint: domain local — read path runs only on the listener *)
let service_conn t conn scratch =
  let n =
    try Unix.read conn.fd scratch 0 scratch_len
    with Unix.Unix_error ((ECONNRESET | EBADF), _, _) -> 0
  in
  if n = 0 then retire_conn t conn
  else begin
    Wire.Framing.feed conn.framing scratch n;
    let continue = ref true in
    while !continue && conn.alive do
      match Wire.Framing.next conn.framing with
      | `Await -> continue := false
      | `Frame payload -> handle_frame t conn payload
      | `Oversized len ->
        send_proto_error t conn ~rid:0 Wire.Oversized
          (Printf.sprintf "frame length %d exceeds %d" len Wire.max_frame);
        retire_conn t conn
    done
  end

(* pdm-lint: domain local — accept path runs only on the listener *)
let accept_conn (t : t) =
  match Unix.accept t.listen_fd with
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  | fd, _addr ->
    (* Replies go out as soon as they are written: with Nagle on, a
       reply written while the previous one is unacknowledged waits
       for the client's next segment to carry that ACK. *)
    (try Unix.setsockopt fd TCP_NODELAY true with Unix.Unix_error _ -> ());
    Atomic.incr t.c_conns;
    let cid = t.next_cid in
    t.next_cid <- cid + 1;
    let conn =
      { fd; cid; framing = Wire.Framing.create ();
        pending = Hashtbl.create 8; next_frame = 0; alive = true }
    in
    Hashtbl.replace t.conns cid conn;
    Hashtbl.replace t.by_fd fd conn

let drain_wake t =
  let b = Bytes.create 256 in
  let rec go () =
    match Unix.read t.wake_r b 0 256 with
    | 256 -> go ()
    | _ -> ()
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  in
  go ()

let pending_total (t : t) =
  Hashtbl.fold (fun _ c acc -> acc + Hashtbl.length c.pending) t.conns 0

(* pdm-lint: domain local — the listener event loop owns all conn
   state; cross-domain traffic goes through the guarded mailboxes,
   the completion queue and the self-pipe *)
let run (t : t) =
  let scratch = Bytes.create scratch_len in
  (* Serve until asked to stop; then keep looping (without accepting
     or reading) until every admitted frame has been answered, so a
     graceful shutdown never drops an in-flight request. *)
  while (not (Atomic.get t.stopping)) || pending_total t > 0 do
    let accepting = not (Atomic.get t.stopping) in
    let conn_fds =
      Hashtbl.fold (fun _ c acc -> if c.alive then c.fd :: acc else acc)
        t.conns []
    in
    let watch =
      t.wake_r :: (if accepting then t.listen_fd :: conn_fds else [])
    in
    let readable, _, _ =
      try Unix.select watch [] [] 0.2
      with Unix.Unix_error (EINTR, _, _) -> ([], [], [])
    in
    if List.mem t.wake_r readable then drain_wake t;
    List.iter (apply_completion t) (done_drain t.dq);
    if accepting then begin
      List.iter
        (fun fd ->
          match Hashtbl.find_opt t.by_fd fd with
          | Some conn -> service_conn t conn scratch
          | None -> ())
        readable;
      (* Accept last: a socket closed since the select may come back
         with its fd number, which [readable] still lists. *)
      if List.mem t.listen_fd readable then accept_conn t
    end
  done;
  (* Drained: release the workers and close every socket. *)
  Array.iter (fun mb -> mailbox_push mb Quit) t.mailboxes;
  Array.iter Domain.join t.workers;
  t.workers <- [||];
  Hashtbl.iter (fun _ c -> try Unix.close c.fd with Unix.Unix_error _ -> ())
    t.conns;
  Hashtbl.reset t.conns;
  Hashtbl.reset t.by_fd;
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  (try Unix.close t.wake_r with Unix.Unix_error _ -> ());
  try Unix.close t.wake_w with Unix.Unix_error _ -> ()

let create ?(port = 0) cfg =
  if cfg.domains < 1 then invalid_arg "Server: domains must be >= 1";
  if cfg.queue_cap < 1 then invalid_arg "Server: queue_cap must be >= 1";
  let plane = Data_plane.create cfg.plane in
  let listen_fd = Unix.socket PF_INET SOCK_STREAM 0 in
  Unix.setsockopt listen_fd SO_REUSEADDR true;
  Unix.bind listen_fd (ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen listen_fd 64;
  let bound_port =
    match Unix.getsockname listen_fd with
    | ADDR_INET (_, p) -> p
    | ADDR_UNIX _ -> port
  in
  let wake_r, wake_w = Unix.pipe () in
  Unix.set_nonblock wake_r;
  let domains = min cfg.domains cfg.plane.Data_plane.shards in
  let t =
    { plane; cfg; listen_fd; port = bound_port; wake_r; wake_w;
      mailboxes = Array.init domains (fun _ -> mailbox_create ());
      dq = { dq_mu = Mutex.create (); dq_q = Queue.create () };
      stopping = Atomic.make false; conns = Hashtbl.create 16;
      by_fd = Hashtbl.create 16; next_cid = 0;
      c_conns = Atomic.make 0; c_frames = Atomic.make 0;
      c_busy = Atomic.make 0; c_unavailable = Atomic.make 0;
      c_proto = Atomic.make 0; workers = [||]; listener = None;
      stopped = false }
  in
  t.workers <- Array.init domains (fun w -> Domain.spawn (fun () ->
      worker_loop t w));
  t

let request_stop t =
  Atomic.set t.stopping true;
  try ignore (Unix.write t.wake_w (Bytes.make 1 '!') 0 1)
  with Unix.Unix_error _ -> ()

let start ?port cfg =
  let t = create ?port cfg in
  t.listener <- Some (Domain.spawn (fun () -> run t));
  t

(* pdm-lint: domain local — shutdown bookkeeping runs on the caller
   after every other domain is joined *)
let stop t =
  if not t.stopped then begin
    request_stop t;
    (match t.listener with
     | Some d ->
       Domain.join d;
       t.listener <- None
     | None -> ());
    t.stopped <- true
  end
