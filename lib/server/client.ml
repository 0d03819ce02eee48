type t = {
  sock : Unix.file_descr;
  framing : Wire.Framing.t;
  mutable next_rid : int;
  unclaimed : (int, Wire.reply) Hashtbl.t;
  mutable eof : bool;
}

let connect ~port =
  let sock = Unix.socket PF_INET SOCK_STREAM 0 in
  Unix.connect sock (ADDR_INET (Unix.inet_addr_loopback, port));
  (* each request leaves when it is sent, not when the last one is
     acknowledged *)
  Unix.setsockopt sock TCP_NODELAY true;
  { sock; framing = Wire.Framing.create (); next_rid = 1;
    unclaimed = Hashtbl.create 16; eof = false }

let close t =
  try Unix.close t.sock with Unix.Unix_error _ -> ()

let fd t = t.sock

let rec write_all fd buf off len =
  if len > 0 then begin
    let n = Unix.write fd buf off len in
    write_all fd buf (off + n) (len - n)
  end

let send_raw t bytes = write_all t.sock bytes 0 (Bytes.length bytes)

(* pdm-lint: domain local — rid counter on this connection's single
   owner *)
let send t req =
  let rid = t.next_rid in
  t.next_rid <- rid + 1;
  send_raw t (Wire.encode_request { Wire.rid; req });
  rid

let pop_frames t =
  let rec go acc =
    match Wire.Framing.next t.framing with
    | `Await -> List.rev acc
    | `Oversized n -> failwith (Printf.sprintf "Client: oversized reply %d" n)
    | `Frame payload -> (
      match Wire.decode_reply payload with
      | Ok { Wire.rid; rep } -> go ((rid, rep) :: acc)
      | Error (_, msg) -> failwith ("Client: undecodable reply: " ^ msg))
  in
  go []

(* pdm-lint: domain local — see [send] *)
let drain t =
  if t.eof then []
  else begin
    let buf = Bytes.create 65536 in
    let n =
      try Unix.read t.sock buf 0 65536
      with Unix.Unix_error (ECONNRESET, _, _) -> 0
    in
    if n = 0 then begin
      t.eof <- true;
      []
    end
    else begin
      Wire.Framing.feed t.framing buf n;
      pop_frames t
    end
  end

let rec wait t rid =
  match Hashtbl.find_opt t.unclaimed rid with
  | Some rep ->
    Hashtbl.remove t.unclaimed rid;
    rep
  | None ->
    if t.eof then raise Not_found;
    let got = drain t in
    if got = [] && t.eof then raise Not_found;
    List.iter (fun (r, rep) -> Hashtbl.replace t.unclaimed r rep) got;
    wait t rid

let call t req = wait t (send t req)

let pending t = Hashtbl.length t.unclaimed
