(* The load generator: one process, one TCP connection. A single
   connection keeps every shard's op order equal to the send order, so
   the daemon's round and I/O ledgers are exact and its answers can be
   checked op by op. *)

module Wire = Pdm_server.Wire

type conn = { fd : Unix.file_descr; framing : Wire.Framing.t; buf : Bytes.t }

let connect ~port =
  { fd = Host.connect ~port; framing = Wire.Framing.create ();
    buf = Bytes.create 65536 }

let close c = Host.close c.fd

(* A silent daemon fails the run after this long instead of hanging it. *)
let stall_s = 20.0

let send c ~rid req = Host.write_all c.fd (Wire.encode_request { Wire.rid; req })

(* Wait up to [timeout_s] for reply bytes and decode every complete
   frame that arrived. *)
let receive c ~timeout_s =
  if not (Host.readable c.fd ~timeout_s) then []
  else begin
    let n = Host.read c.fd c.buf in
    if n = 0 then failwith "daemon closed the connection";
    Wire.Framing.feed c.framing c.buf n;
    let rec pop acc =
      match Wire.Framing.next c.framing with
      | `Await -> List.rev acc
      | `Oversized n -> failwith (Printf.sprintf "oversized reply (%d bytes)" n)
      | `Frame payload -> (
        match Wire.decode_reply payload with
        | Ok { Wire.rid; rep } -> pop ((rid, rep) :: acc)
        | Error (_, msg) -> failwith ("undecodable reply: " ^ msg))
    in
    pop []
  end

(* Control requests use rid 0 and are made only with no frame in
   flight. *)
let call c req =
  send c ~rid:0 req;
  let rec wait () =
    match receive c ~timeout_s:stall_s with
    | [] -> failwith "daemon did not answer a control request"
    | replies -> (
      match List.assoc_opt 0 replies with Some rep -> rep | None -> wait ())
  in
  wait ()

let stats c =
  match call c Wire.Stats with
  | Wire.Stats_reply s -> s
  | _ -> failwith "unexpected reply to stats"

type run = {
  answers : string array;  (** per frame, see Answers *)
  sent_ns : int array;  (** per frame *)
  done_ns : int array;  (** per frame: when its reply arrived *)
  latency_ns : int array;
      (** per frame: closed loop send → reply, open loop due → reply *)
  late_ns : int array;
      (** per frame: how long after it could have been sent it was — in
          an open loop its due time, in a closed loop the arrival of the
          reply that freed its window slot *)
  elapsed_ns : int;
  stats_at_pause : Wire.shard_stat list option;
}

(* Send [count] frames of [ops] ops, frame [i] = [frame i] with rid
   [i + 1], and collect the replies. With [pause_at = Some k], the
   generator stops before frame [k] until every earlier frame is
   answered and reads the daemon's ledgers: a quiescent snapshot after
   exactly [k] frames. An open loop's schedule then restarts from the
   end of the pause rather than sending the frames it fell behind on in
   one burst. *)
let drive c ~loop ~ops ~count:n ~frame ~pause_at =
  let answers = Array.make n "" in
  let ready = Array.make n 0 and sent = Array.make n 0 in
  let done_ = Array.make n 0 in
  let next = ref 0 and outstanding = ref 0 and completed = ref 0 in
  let paused = ref None in
  let t0 = Host.now_ns () in
  let free_slots = Queue.create () in
  let interval_ns =
    match loop with
    | Workloads.Closed w ->
      for _ = 1 to w do Queue.push t0 free_slots done;
      0.0
    | Workloads.Open rate -> 1e9 /. rate
  in
  let shift = ref 0 in
  let due i = t0 + !shift + int_of_float (float_of_int i *. interval_ns) in
  let send_frame i now =
    sent.(i) <- now;
    (match loop with
     | Workloads.Closed _ -> ready.(i) <- Queue.pop free_slots
     | Workloads.Open _ -> ready.(i) <- due i);
    let req = match frame i with [ op ] -> Wire.Op op | ops -> Wire.Batch ops in
    send c ~rid:(i + 1) req;
    incr outstanding
  in
  let last_progress = ref t0 in
  while !completed < n do
    let sending = ref true in
    while !sending && !next < n do
      let i = !next in
      if pause_at = Some i && !paused = None then begin
        if !outstanding = 0 then begin
          paused := Some (stats c);
          shift := !shift + max 0 (Host.now_ns () - due i)
        end
        else sending := false
      end
      else begin
        let now = Host.now_ns () in
        let go =
          match loop with
          | Workloads.Closed _ -> not (Queue.is_empty free_slots)
          | Workloads.Open _ -> now >= due i
        in
        if go then begin
          send_frame i now;
          incr next
        end
        else sending := false
      end
    done;
    (* An open loop sleeps until its next frame is due, except while it
       waits for the replies that let the pause begin. *)
    let draining = pause_at = Some !next && !paused = None in
    let timeout_s =
      match loop with
      | Workloads.Open _ when !next < n && not draining ->
        float_of_int (max 0 (due !next - Host.now_ns ())) /. 1e9
      | _ -> stall_s
    in
    let got = receive c ~timeout_s in
    let now = Host.now_ns () in
    List.iter
      (fun (rid, rep) ->
        let i = rid - 1 in
        if i < 0 || i >= n || answers.(i) <> "" then
          failwith (Printf.sprintf "reply with unexpected rid %d" rid);
        answers.(i) <- Answers.of_reply ~ops rep;
        done_.(i) <- now;
        decr outstanding;
        incr completed;
        (match loop with
         | Workloads.Closed _ -> Queue.push now free_slots
         | Workloads.Open _ -> ()))
      got;
    if got <> [] then last_progress := now
    else if now - !last_progress > int_of_float (stall_s *. 1e9) then
      failwith "daemon stopped answering"
  done;
  let elapsed_ns = Host.now_ns () - t0 in
  let latency_ns =
    Array.init n (fun i ->
        match loop with
        | Workloads.Closed _ -> done_.(i) - sent.(i)
        | Workloads.Open _ -> done_.(i) - ready.(i))
  in
  { answers; sent_ns = sent; done_ns = done_; latency_ns;
    late_ns = Array.init n (fun i -> sent.(i) - ready.(i));
    elapsed_ns; stats_at_pause = !paused }
