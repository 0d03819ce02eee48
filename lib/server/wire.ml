let version = 1
let max_frame = 1 lsl 20

type op =
  | Get of int
  | Insert of int * Bytes.t
  | Delete of int

type request =
  | Ping
  | Op of op
  | Batch of op list
  | Stats
  | Kill_disk of { shard : int; disk : int }
  | Scrub of { shard : int }

type req_frame = { rid : int; req : request }

type result_ =
  | Found of Bytes.t
  | Absent
  | Inserted
  | Deleted of bool

type shard_stat = { shard : int; rounds : int; served : int; fetched : int }

type error_code =
  | Bad_version
  | Bad_opcode
  | Bad_length
  | Oversized
  | Server_error

type reply =
  | Pong
  | Result of result_
  | Results of result_ list
  | Stats_reply of shard_stat list
  | Admin_ok
  | Busy
  | Unavailable of string
  | Proto_error of { code : error_code; message : string }

type rep_frame = { rid : int; rep : reply }

let error_code_to_int = function
  | Bad_version -> 1
  | Bad_opcode -> 2
  | Bad_length -> 3
  | Oversized -> 4
  | Server_error -> 5

let error_code_of_int = function
  | 1 -> Some Bad_version
  | 2 -> Some Bad_opcode
  | 3 -> Some Bad_length
  | 4 -> Some Oversized
  | 5 -> Some Server_error
  | _ -> None

(* --- encoding ---------------------------------------------------- *)

(* pdm-lint: domain local — encoding buffers are per-call scratch,
   never shared between domains *)
let put_u8 b v = Buffer.add_char b (Char.chr (v land 0xff))

let put_u16 b v =
  put_u8 b v;
  put_u8 b (v lsr 8)

(* A count, shard or disk in a 16-bit field: one above 0xffff would
   wrap onto another (and a wrapped count would frame the wrong number
   of entries). *)
let put_field16 b what v =
  if v < 0 || v > 0xffff then
    invalid_arg (Printf.sprintf "Wire: %s %d out of 16-bit range" what v);
  put_u16 b v

let put_u32 b v =
  put_u16 b (v land 0xffff);
  put_u16 b ((v lsr 16) land 0xffff)

let put_u64 b v =
  put_u32 b (v land 0xffffffff);
  put_u32 b ((v lsr 32) land 0x3fffffff)

(* pdm-lint: domain local — see [put_u8] *)
let put_bytes b v =
  put_u32 b (Bytes.length v);
  Buffer.add_bytes b v

let op_code = function Get _ -> 2 | Insert _ -> 3 | Delete _ -> 4

let put_op_body b = function
  | Get k | Delete k -> put_u64 b k
  | Insert (k, v) ->
    put_u64 b k;
    put_bytes b v

let put_result b = function
  | Found v ->
    put_u8 b 1;
    put_bytes b v
  | Absent -> put_u8 b 2
  | Inserted -> put_u8 b 3
  | Deleted present ->
    put_u8 b 4;
    put_u8 b (if present then 1 else 0)

let frame_of_payload payload =
  let n = Bytes.length payload in
  if n > max_frame then invalid_arg "Wire: payload exceeds max_frame";
  let b = Buffer.create (n + 4) in
  put_u32 b n;
  Buffer.add_bytes b payload;
  Buffer.to_bytes b

let check_key k = if k < 0 then invalid_arg "Wire: negative key"

let encode_request { rid; req } =
  if rid < 0 || rid > 0xffffffff then invalid_arg "Wire: rid out of range";
  let b = Buffer.create 32 in
  put_u8 b version;
  let opcode =
    match req with
    | Ping -> 1
    | Op o -> op_code o
    | Batch _ -> 5
    | Stats -> 6
    | Kill_disk _ -> 7
    | Scrub _ -> 8
  in
  put_u8 b opcode;
  put_u32 b rid;
  (match req with
   | Ping | Stats -> ()
   | Op o ->
     check_key (match o with Get k | Delete k | Insert (k, _) -> k);
     put_op_body b o
   | Batch ops ->
     put_field16 b "batch count" (List.length ops);
     List.iter
       (fun o ->
         check_key (match o with Get k | Delete k | Insert (k, _) -> k);
         put_u8 b (op_code o);
         put_op_body b o)
       ops
   | Kill_disk { shard; disk } ->
     put_field16 b "shard" shard;
     put_field16 b "disk" disk
   | Scrub { shard } -> put_field16 b "shard" shard);
  frame_of_payload (Buffer.to_bytes b)

let encode_reply { rid; rep } =
  let b = Buffer.create 32 in
  put_u8 b version;
  let opcode =
    match rep with
    | Pong -> 0x81
    | Result _ -> 0x82
    | Results _ -> 0x83
    | Stats_reply _ -> 0x84
    | Admin_ok -> 0x85
    | Busy -> 0xe0
    | Unavailable _ -> 0xe1
    | Proto_error _ -> 0xef
  in
  put_u8 b opcode;
  put_u32 b rid;
  (match rep with
   | Pong | Admin_ok | Busy -> ()
   | Result r -> put_result b r
   | Results rs ->
     put_field16 b "result count" (List.length rs);
     List.iter (put_result b) rs
   | Stats_reply ss ->
     put_field16 b "stat count" (List.length ss);
     List.iter
       (fun s ->
         put_field16 b "shard" s.shard;
         put_u64 b s.rounds;
         put_u64 b s.served;
         put_u64 b s.fetched)
       ss
   | Unavailable msg ->
     put_bytes b (Bytes.of_string msg)
   | Proto_error { code; message } ->
     put_u16 b (error_code_to_int code);
     put_bytes b (Bytes.of_string message));
  frame_of_payload (Buffer.to_bytes b)

(* --- decoding ---------------------------------------------------- *)

(* Cursor over one frame payload. All reads bounds-check through
   [Short]; the decoders catch it and answer [Bad_length] — the codec
   is total by construction. *)
exception Short

type cursor = { data : Bytes.t; mutable pos : int }

(* pdm-lint: domain local — cursor advances over one frame on one
   connection's reader; never shared *)
let take c n =
  if c.pos + n > Bytes.length c.data then raise Short;
  let p = c.pos in
  c.pos <- p + n;
  p

let get_u8 c = Char.code (Bytes.get c.data (take c 1))

let get_u16 c =
  let a = get_u8 c in
  let b = get_u8 c in
  a lor (b lsl 8)

let get_u32 c =
  let a = get_u16 c in
  let b = get_u16 c in
  a lor (b lsl 16)

let get_u64 c =
  let a = get_u32 c in
  let b = get_u32 c in
  a lor (b lsl 32)

let get_bytes c =
  let n = get_u32 c in
  if n > max_frame then raise Short;
  Bytes.sub c.data (take c n) n

let get_op c code =
  match code with
  | 2 -> Some (Get (get_u64 c))
  | 3 ->
    let k = get_u64 c in
    let v = get_bytes c in
    Some (Insert (k, v))
  | 4 -> Some (Delete (get_u64 c))
  | _ -> None

let get_result c =
  match get_u8 c with
  | 1 -> Found (get_bytes c)
  | 2 -> Absent
  | 3 -> Inserted
  | 4 -> Deleted (get_u8 c <> 0)
  | _ -> raise Short

let finish c v =
  if c.pos <> Bytes.length c.data then
    Error (Bad_length, "trailing bytes after frame body")
  else Ok v

let header payload =
  let c = { data = payload; pos = 0 } in
  let v = get_u8 c in
  if v <> version then
    Error (Bad_version, Printf.sprintf "version %d, expected %d" v version)
  else
    let opcode = get_u8 c in
    let rid = get_u32 c in
    Ok (c, opcode, rid)

let decode_request payload =
  match
    (match header payload with
     | Error _ as e -> e
     | Ok (c, opcode, rid) -> (
       let frame req = finish c { rid; req } in
       match opcode with
       | 1 -> frame Ping
       | 2 | 3 | 4 -> (
         match get_op c opcode with
         | Some o -> frame (Op o)
         | None -> Error (Bad_opcode, "unreachable op code"))
       | 5 ->
         let n = get_u16 c in
         let ops = ref [] in
         for _ = 1 to n do
           let code = get_u8 c in
           match get_op c code with
           | Some o -> ops := o :: !ops
           | None -> raise Short
         done;
         frame (Batch (List.rev !ops))
       | 6 -> frame Stats
       | 7 ->
         let shard = get_u16 c in
         let disk = get_u16 c in
         frame (Kill_disk { shard; disk })
       | 8 ->
         let shard = get_u16 c in
         frame (Scrub { shard })
       | n -> Error (Bad_opcode, Printf.sprintf "unknown opcode 0x%02x" n)))
  with
  | r -> r
  | exception Short -> Error (Bad_length, "truncated frame body")

let decode_reply payload =
  match
    (match header payload with
     | Error _ as e -> e
     | Ok (c, opcode, rid) -> (
       let frame rep = finish c { rid; rep } in
       match opcode with
       | 0x81 -> frame Pong
       | 0x82 -> frame (Result (get_result c))
       | 0x83 ->
         let n = get_u16 c in
         let rs = ref [] in
         for _ = 1 to n do
           rs := get_result c :: !rs
         done;
         frame (Results (List.rev !rs))
       | 0x84 ->
         let n = get_u16 c in
         let ss = ref [] in
         for _ = 1 to n do
           let shard = get_u16 c in
           let rounds = get_u64 c in
           let served = get_u64 c in
           let fetched = get_u64 c in
           ss := { shard; rounds; served; fetched } :: !ss
         done;
         frame (Stats_reply (List.rev !ss))
       | 0x85 -> frame Admin_ok
       | 0xe0 -> frame Busy
       | 0xe1 -> frame (Unavailable (Bytes.to_string (get_bytes c)))
       | 0xef ->
         let code =
           match error_code_of_int (get_u16 c) with
           | Some code -> code
           | None -> raise Short
         in
         let message = Bytes.to_string (get_bytes c) in
         frame (Proto_error { code; message })
       | n -> Error (Bad_opcode, Printf.sprintf "unknown opcode 0x%02x" n)))
  with
  | r -> r
  | exception Short -> Error (Bad_length, "truncated frame body")

(* --- incremental framing ----------------------------------------- *)

module Framing = struct
  (* The unread bytes are [buf.[start .. stop)]: a frame is taken by
     moving [start] past it, and [feed] compacts them to the front once
     per call, growing the buffer only when they and the new bytes do
     not fit. Each payload is a fresh [Bytes]. *)
  type t = { mutable buf : Bytes.t; mutable start : int; mutable stop : int }

  let create () = { buf = Bytes.empty; start = 0; stop = 0 }

  (* pdm-lint: domain local — a Framing.t belongs to one connection,
     fed and drained from the connection's single reader *)
  let feed t src n =
    let unread = t.stop - t.start in
    if unread + n > Bytes.length t.buf then begin
      let grown = Bytes.create (max (unread + n) (2 * Bytes.length t.buf)) in
      Bytes.blit t.buf t.start grown 0 unread;
      t.buf <- grown
    end
    else if t.start > 0 then Bytes.blit t.buf t.start t.buf 0 unread;
    Bytes.blit src 0 t.buf unread n;
    t.start <- 0;
    t.stop <- unread + n

  (* pdm-lint: domain local — see [feed] *)
  let next t =
    let b = t.buf and s = t.start in
    if t.stop - s < 4 then `Await
    else
      let n =
        Char.code (Bytes.get b s)
        lor (Char.code (Bytes.get b (s + 1)) lsl 8)
        lor (Char.code (Bytes.get b (s + 2)) lsl 16)
        lor (Char.code (Bytes.get b (s + 3)) lsl 24)
      in
      if n > max_frame then `Oversized n
      else if t.stop - s < 4 + n then `Await
      else begin
        t.start <- s + 4 + n;
        `Frame (Bytes.sub b (s + 4) n)
      end

  let buffered t = t.stop - t.start
end
