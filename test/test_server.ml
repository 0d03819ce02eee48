(* Tests for the pdm-serve daemon stack: wire-codec round trips for
   every frame type, malformed-frame handling (pure decoder and live
   connection — structured protocol errors, never a crash or a leaked
   connection), multi-domain determinism (same seeded workload on 1
   vs 2 domains answers byte-identically with identical per-shard
   ledgers), and a soak under chaos + overload (disk kill and scrub
   mid-run with zero wrong answers; a full admission queue answers a
   typed Busy for every rejected frame, never a silent drop). *)

module Wire = Pdm_server.Wire
module Server = Pdm_server.Server
module Client = Pdm_server.Client
module Data_plane = Pdm_server.Data_plane
module Loadgen = Pdm_server.Loadgen
module Sim_gen = Pdm_simtest.Sim_gen
module Prng = Pdm_util.Prng

let tc = Alcotest.test_case
let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

(* --- wire codec: generators -------------------------------------- *)

let gen_key = QCheck.Gen.(map (fun i -> i land max_int) int)
let gen_rid = QCheck.Gen.(map (fun i -> i land 0xffffffff) int)
let gen_u16 = QCheck.Gen.int_bound 0xffff
let gen_value = QCheck.Gen.(map Bytes.of_string (string_size (int_bound 24)))
let gen_msg = QCheck.Gen.(string_size (int_bound 40))

let gen_op =
  QCheck.Gen.(
    oneof
      [ map (fun k -> Wire.Get k) gen_key;
        map2 (fun k v -> Wire.Insert (k, v)) gen_key gen_value;
        map (fun k -> Wire.Delete k) gen_key ])

let gen_request =
  QCheck.Gen.(
    oneof
      [ return Wire.Ping;
        map (fun o -> Wire.Op o) gen_op;
        map (fun ops -> Wire.Batch ops) (list_size (int_bound 8) gen_op);
        return Wire.Stats;
        map2 (fun shard disk -> Wire.Kill_disk { shard; disk }) gen_u16 gen_u16;
        map (fun shard -> Wire.Scrub { shard }) gen_u16 ])

let gen_result =
  QCheck.Gen.(
    oneof
      [ map (fun v -> Wire.Found v) gen_value;
        return Wire.Absent;
        return Wire.Inserted;
        map (fun b -> Wire.Deleted b) bool ])

let gen_stat =
  QCheck.Gen.(
    map2
      (fun shard (rounds, served, fetched) ->
        { Wire.shard; rounds; served; fetched })
      gen_u16
      (triple gen_key gen_key gen_key))

let gen_error_code =
  QCheck.Gen.oneofl
    [ Wire.Bad_version; Wire.Bad_opcode; Wire.Bad_length; Wire.Oversized;
      Wire.Server_error ]

let gen_reply =
  QCheck.Gen.(
    oneof
      [ return Wire.Pong;
        map (fun r -> Wire.Result r) gen_result;
        map (fun rs -> Wire.Results rs) (list_size (int_bound 8) gen_result);
        map (fun ss -> Wire.Stats_reply ss) (list_size (int_bound 5) gen_stat);
        return Wire.Admin_ok;
        return Wire.Busy;
        map (fun m -> Wire.Unavailable m) gen_msg;
        map2
          (fun code message -> Wire.Proto_error { code; message })
          gen_error_code gen_msg ])

(* A full frame starts with the u32 length prefix; the decoders take
   the payload alone. *)
let payload_of frame = Bytes.sub frame 4 (Bytes.length frame - 4)

let print_hex b =
  String.concat "" (List.map (Printf.sprintf "%02x") (List.init (Bytes.length b) (fun i -> Char.code (Bytes.get b i))))

let prop_request_roundtrip =
  QCheck.Test.make ~name:"request frames roundtrip" ~count:300
    (QCheck.make
       ~print:(fun f -> print_hex (Wire.encode_request f))
       QCheck.Gen.(map2 (fun rid req -> { Wire.rid; req }) gen_rid gen_request))
    (fun f ->
      match Wire.decode_request (payload_of (Wire.encode_request f)) with
      | Ok f' -> f' = f
      | Error _ -> false)

let prop_reply_roundtrip =
  QCheck.Test.make ~name:"reply frames roundtrip" ~count:300
    (QCheck.make
       ~print:(fun f -> print_hex (Wire.encode_reply f))
       QCheck.Gen.(map2 (fun rid rep -> { Wire.rid; rep }) gen_rid gen_reply))
    (fun f ->
      match Wire.decode_reply (payload_of (Wire.encode_reply f)) with
      | Ok f' -> f' = f
      | Error _ -> false)

(* The decoders are total: arbitrary bytes decode to Ok or a
   structured error, never an exception. *)
let prop_decoder_total =
  QCheck.Test.make ~name:"decoders never raise on garbage" ~count:500
    (QCheck.make ~print:(fun s -> print_hex (Bytes.of_string s))
       QCheck.Gen.(string_size (int_bound 64)))
    (fun s ->
      let b = Bytes.of_string s in
      (match Wire.decode_request b with Ok _ | Error _ -> true)
      && (match Wire.decode_reply b with Ok _ | Error _ -> true))

(* One canonical frame per request constructor (and one per reply
   constructor) — the deterministic every-frame-type round trip the
   random generator only covers in expectation. *)
let canonical_requests =
  [ Wire.Ping;
    Wire.Op (Wire.Get 42);
    Wire.Op (Wire.Insert (7, Bytes.of_string "payload"));
    Wire.Op (Wire.Delete max_int);
    Wire.Batch [];
    Wire.Batch
      [ Wire.Insert (1, Bytes.empty); Wire.Get 2; Wire.Delete 3 ];
    Wire.Stats;
    Wire.Kill_disk { shard = 3; disk = 0xffff };
    Wire.Scrub { shard = 0 } ]

let canonical_replies =
  [ Wire.Pong;
    Wire.Result (Wire.Found (Bytes.of_string "v"));
    Wire.Result Wire.Absent;
    Wire.Result Wire.Inserted;
    Wire.Result (Wire.Deleted true);
    Wire.Results [ Wire.Inserted; Wire.Deleted false; Wire.Absent ];
    Wire.Stats_reply
      [ { Wire.shard = 0; rounds = 12; served = 34; fetched = 56 };
        { Wire.shard = 1; rounds = max_int; served = 0; fetched = 1 } ];
    Wire.Admin_ok;
    Wire.Busy;
    Wire.Unavailable "disk 3 is gone";
    Wire.Proto_error { code = Wire.Oversized; message = "too big" } ]

let test_canonical_roundtrips () =
  List.iteri
    (fun i req ->
      let f = { Wire.rid = i; req } in
      match Wire.decode_request (payload_of (Wire.encode_request f)) with
      | Ok f' -> checkb "request roundtrips" true (f' = f)
      | Error (_, m) -> Alcotest.failf "request %d undecodable: %s" i m)
    canonical_requests;
  List.iteri
    (fun i rep ->
      let f = { Wire.rid = i * 1000; rep } in
      match Wire.decode_reply (payload_of (Wire.encode_reply f)) with
      | Ok f' -> checkb "reply roundtrips" true (f' = f)
      | Error (_, m) -> Alcotest.failf "reply %d undecodable: %s" i m)
    canonical_replies

(* --- wire codec: malformed payloads ------------------------------ *)

let code_of = function
  | Ok _ -> "ok"
  | Error (c, _) ->
    string_of_int (Wire.error_code_to_int c)

let test_decoder_malformed () =
  let valid = payload_of (Wire.encode_request { Wire.rid = 9; req = Wire.Op (Wire.Insert (5, Bytes.of_string "vv")) }) in
  (* every strict prefix is a structured truncation error *)
  for n = 0 to Bytes.length valid - 1 do
    match Wire.decode_request (Bytes.sub valid 0 n) with
    | Ok _ -> Alcotest.failf "truncation to %d bytes decoded" n
    | Error ((Wire.Bad_length | Wire.Bad_version), _) -> ()
    | Error (c, m) ->
      Alcotest.failf "truncation to %d: unexpected %s (%s)"
        n (code_of (Error (c, m))) m
  done;
  (* trailing bytes are rejected, not ignored *)
  (match Wire.decode_request (Bytes.cat valid (Bytes.make 1 'x')) with
   | Error (Wire.Bad_length, _) -> ()
   | r -> Alcotest.failf "trailing byte: %s" (code_of r));
  (* wrong version byte *)
  let bad_version = Bytes.copy valid in
  Bytes.set bad_version 0 (Char.chr 9);
  (match Wire.decode_request bad_version with
   | Error (Wire.Bad_version, _) -> ()
   | r -> Alcotest.failf "bad version: %s" (code_of r));
  (* garbage opcode *)
  let bad_opcode = Bytes.copy valid in
  Bytes.set bad_opcode 1 (Char.chr 0x7f);
  (match Wire.decode_request bad_opcode with
   | Error (Wire.Bad_opcode, _) -> ()
   | r -> Alcotest.failf "bad opcode: %s" (code_of r));
  (* a value length prefix pointing past the frame *)
  let huge_value =
    let b = Buffer.create 32 in
    Buffer.add_char b (Char.chr Wire.version);
    Buffer.add_char b (Char.chr 3) (* Insert *);
    Buffer.add_string b "\x01\x00\x00\x00" (* rid *);
    Buffer.add_string b (String.make 8 '\x00') (* key *);
    Buffer.add_string b "\xff\xff\xff\x00" (* value len way past end *);
    Buffer.to_bytes b
  in
  (match Wire.decode_request huge_value with
   | Error (Wire.Bad_length, _) -> ()
   | r -> Alcotest.failf "runaway value length: %s" (code_of r))

let test_framing_oversized () =
  let f = Wire.Framing.create () in
  let prefix = Bytes.create 4 in
  let n = Wire.max_frame + 1 in
  Bytes.set prefix 0 (Char.chr (n land 0xff));
  Bytes.set prefix 1 (Char.chr ((n lsr 8) land 0xff));
  Bytes.set prefix 2 (Char.chr ((n lsr 16) land 0xff));
  Bytes.set prefix 3 (Char.chr ((n lsr 24) land 0xff));
  Wire.Framing.feed f prefix 4;
  (match Wire.Framing.next f with
   | `Oversized m -> check "oversized length surfaced" n m
   | `Frame _ | `Await -> Alcotest.fail "oversized prefix not detected");
  (* split delivery still assembles frames *)
  let g = Wire.Framing.create () in
  let frame = Wire.encode_request { Wire.rid = 1; req = Wire.Ping } in
  Bytes.iter
    (fun c ->
      checkb "await mid-frame" true (Wire.Framing.next g = `Await);
      Wire.Framing.feed g (Bytes.make 1 c) 1)
    (Bytes.sub frame 0 (Bytes.length frame - 1));
  Wire.Framing.feed g
    (Bytes.make 1 (Bytes.get frame (Bytes.length frame - 1))) 1;
  (match Wire.Framing.next g with
   | `Frame p -> checkb "byte-at-a-time assembly" true (p = payload_of frame)
   | `Await | `Oversized _ -> Alcotest.fail "frame not assembled")

(* --- 16-bit fields and framing cost ------------------------------ *)

(* Counts, shards and disks travel in 16-bit fields: the encoder
   rejects what would wrap onto another value, and the largest
   representable value still roundtrips. *)
let out_of_range what f =
  match f () with
  | _ -> Alcotest.failf "%s: encoded" what
  | exception Invalid_argument _ -> ()

let test_encode_rejects_wide_shard () =
  out_of_range "kill_disk shard"
    (fun () ->
      Wire.encode_request
        { Wire.rid = 1; req = Wire.Kill_disk { shard = 65536; disk = 3 } });
  out_of_range "scrub shard" (fun () ->
      Wire.encode_request { Wire.rid = 1; req = Wire.Scrub { shard = 65537 } });
  out_of_range "negative shard" (fun () ->
      Wire.encode_request { Wire.rid = 1; req = Wire.Scrub { shard = -1 } });
  let widest = { Wire.rid = 1; req = Wire.Kill_disk { shard = 0xffff; disk = 0xffff } } in
  checkb "0xffff roundtrips" true
    (Wire.decode_request (payload_of (Wire.encode_request widest)) = Ok widest)

let test_encode_rejects_wide_disk () =
  out_of_range "kill_disk disk" (fun () ->
      Wire.encode_request
        { Wire.rid = 1; req = Wire.Kill_disk { shard = 0; disk = 65536 } })

let test_encode_rejects_wide_batch () =
  out_of_range "batch of 65,536 ops" (fun () ->
      Wire.encode_request
        { Wire.rid = 1; req = Wire.Batch (List.init 65_536 (fun k -> Wire.Get k)) })

let test_encode_rejects_wide_replies () =
  out_of_range "65,536 results" (fun () ->
      Wire.encode_reply
        { Wire.rid = 1; rep = Wire.Results (List.init 65_536 (fun _ -> Wire.Absent)) });
  out_of_range "stat of shard 65536" (fun () ->
      Wire.encode_reply
        { Wire.rid = 1;
          rep =
            Wire.Stats_reply
              [ { Wire.shard = 65536; rounds = 0; served = 0; fetched = 0 } ] })

(* Words allocated decoding [n] 18-byte Get frames delivered in one
   feed: linear in [n], so ten times the frames cost about ten times
   the words. *)
let framing_words n =
  let frames =
    Bytes.concat Bytes.empty
      (List.init n (fun k ->
           Wire.encode_request { Wire.rid = k; req = Wire.Op (Wire.Get k) }))
  in
  let f = Wire.Framing.create () in
  (* an empty minor heap: nothing older is promoted during the count *)
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  Wire.Framing.feed f frames (Bytes.length frames);
  let rec drain got =
    match Wire.Framing.next f with
    | `Frame _ -> drain (got + 1)
    | `Await -> got
    | `Oversized _ -> Alcotest.fail "oversized"
  in
  let got = drain 0 in
  let words = (Gc.allocated_bytes () -. before) /. float_of_int (Sys.word_size / 8) in
  check "every frame decoded" n got;
  check "nothing left" 0 (Wire.Framing.buffered f);
  words

let test_framing_linear () =
  let small = framing_words 1_000 and large = framing_words 10_000 in
  if large > 12.0 *. small then
    Alcotest.failf "10,000 frames allocate %.0f words, 1,000 allocate %.0f"
      large small

(* --- live server helpers ----------------------------------------- *)

let small_config ?(shards = 2) ?(domains = 1) ?(queue_cap = 1024) () =
  let plane =
    { Data_plane.default_config with
      Data_plane.shards; universe = 1 lsl 16; shard_capacity = 192 }
  in
  { Server.plane; domains; queue_cap }

let with_server cfg f =
  let t = Server.start cfg in
  Fun.protect ~finally:(fun () -> Server.stop t) (fun () -> f t)

let with_client t f =
  let c = Client.connect ~port:(Server.port t) in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

let raw_frame payload =
  let n = Bytes.length payload in
  let f = Bytes.create (4 + n) in
  Bytes.set f 0 (Char.chr (n land 0xff));
  Bytes.set f 1 (Char.chr ((n lsr 8) land 0xff));
  Bytes.set f 2 (Char.chr ((n lsr 16) land 0xff));
  Bytes.set f 3 (Char.chr ((n lsr 24) land 0xff));
  Bytes.blit payload 0 f 4 n;
  f

let expect_proto c code =
  match Client.wait c 0 with
  | Wire.Proto_error { code = got; _ } ->
    checkb "protocol error code" true (got = code)
  | r ->
    Alcotest.failf "expected Proto_error, got %s"
      (match r with
       | Wire.Pong -> "Pong"
       | Wire.Result _ -> "Result"
       | Wire.Results _ -> "Results"
       | Wire.Stats_reply _ -> "Stats_reply"
       | Wire.Admin_ok -> "Admin_ok"
       | Wire.Busy -> "Busy"
       | Wire.Unavailable _ -> "Unavailable"
       | Wire.Proto_error _ -> assert false)

let ping_alive c =
  match Client.call c Wire.Ping with
  | Wire.Pong -> ()
  | _ -> Alcotest.fail "connection did not answer a ping"

(* --- live server: malformed frames and the fuzzer ----------------- *)

let test_live_malformed_frames () =
  with_server (small_config ()) (fun t ->
      with_client t (fun c ->
          let valid =
            payload_of
              (Wire.encode_request { Wire.rid = 0; req = Wire.Ping })
          in
          (* wrong version: structured reply, connection survives *)
          let bad_version = Bytes.copy valid in
          Bytes.set bad_version 0 (Char.chr 3);
          Client.send_raw c (raw_frame bad_version);
          expect_proto c Wire.Bad_version;
          ping_alive c;
          (* garbage opcode *)
          let bad_opcode = Bytes.copy valid in
          Bytes.set bad_opcode 1 (Char.chr 0x6a);
          Client.send_raw c (raw_frame bad_opcode);
          expect_proto c Wire.Bad_opcode;
          ping_alive c;
          (* truncated body: frame shorter than its header needs *)
          Client.send_raw c (raw_frame (Bytes.sub valid 0 3));
          expect_proto c Wire.Bad_length;
          ping_alive c;
          (* admin op on an unknown shard: structured server error *)
          (match
             Client.call c (Wire.Kill_disk { shard = 999; disk = 0 })
           with
           | Wire.Proto_error { code = Wire.Server_error; _ } -> ()
           | _ -> Alcotest.fail "unknown shard must be a structured error");
          ping_alive c);
      (* oversized length prefix: reply then close — and only that
         connection dies *)
      with_client t (fun c ->
          let huge = Bytes.make 4 '\xff' in
          Client.send_raw c huge;
          expect_proto c Wire.Oversized;
          checkb "stream poisoned: connection closed" true
            (Client.drain c = []));
      with_client t ping_alive;
      let counters = Server.counters t in
      checkb "protocol errors counted" true
        (counters.Server.proto_errors >= 4))

(* 150 seeded-random frames (rid bytes pinned clear of the client's
   own rid space); whatever they decode to, the server must answer
   every subsequent ping — no crash, no wedged connection. *)
let test_live_fuzz_never_crashes () =
  with_server (small_config ()) (fun t ->
      with_client t (fun c ->
          let g = Prng.create 0xf022 in
          for _ = 1 to 150 do
            let n = Prng.int g 32 in
            let payload =
              Bytes.init n (fun _ -> Char.chr (Prng.int g 256))
            in
            if n >= 6 then begin
              (* pin the rid to 0xffffffff so a frame that happens to
                 decode cannot collide with the pings' rids *)
              Bytes.fill payload 2 4 '\xff'
            end;
            Client.send_raw c (raw_frame payload);
            ping_alive c
          done);
      with_client t ping_alive)

(* --- live server: sockets ----------------------------------------- *)

let test_client_nodelay () =
  with_server (small_config ()) (fun t ->
      with_client t (fun c ->
          checkb "TCP_NODELAY on the client socket" true
            (Unix.getsockopt (Client.fd c) Unix.TCP_NODELAY)))

(* With Nagle on at the daemon, a reply written while the previous one
   is still unacknowledged waits for the client's next segment to
   carry that ACK. Two frames back to back start such a chain; on an
   open-loop schedule every later reply would then arrive one send
   period late. Sends here are due every [period]; replies are read
   as they come. *)
let test_replies_not_held () =
  with_server (small_config ()) (fun t ->
      with_client t (fun c ->
          let period = 0.002 and n = 300 in
          let sent = Hashtbl.create (n + 2) and waits = ref [] in
          let send () =
            let rid = Client.send c (Wire.Op (Wire.Get 1)) in
            Hashtbl.replace sent rid (Unix.gettimeofday ())
          in
          (* read replies until [deadline]; with [~all], stop early
             once every frame has its reply *)
          let collect ?(all = false) deadline =
            let rec go () =
              let left = deadline -. Unix.gettimeofday () in
              if left > 0. && not (all && Hashtbl.length sent = 0) then
                match Unix.select [ Client.fd c ] [] [] left with
                | [], _, _ -> ()
                | _ ->
                  let now = Unix.gettimeofday () in
                  List.iter
                    (fun (rid, _) ->
                      match Hashtbl.find_opt sent rid with
                      | Some t0 ->
                        Hashtbl.remove sent rid;
                        waits := (now -. t0) :: !waits
                      | None -> Alcotest.failf "reply to unknown rid %d" rid)
                    (Client.drain c);
                  go ()
                | exception Unix.Unix_error (EINTR, _, _) -> go ()
            in
            go ()
          in
          send ();
          send ();
          let start = Unix.gettimeofday () in
          for i = 1 to n do
            collect (start +. (float_of_int i *. period));
            send ()
          done;
          collect ~all:true (Unix.gettimeofday () +. 1.0);
          check "every frame answered" 0 (Hashtbl.length sent);
          let sorted = List.sort compare !waits in
          let median = List.nth sorted (List.length sorted / 2) in
          if median >= period /. 2. then
            Alcotest.failf "median send-to-reply %.0f us for a %.0f us period"
              (median *. 1e6) (period *. 1e6)))

(* Replies are routed by socket. Once a connection's socket is closed
   the kernel hands its fd number to the next one accepted (the lowest
   free number): the new connection must get its own replies, and the
   surviving one only its own. *)
let test_fd_reuse_routes_replies () =
  with_server (small_config ()) (fun t ->
      let port = Server.port t in
      let c1 = Client.connect ~port and c2 = Client.connect ~port in
      ping_alive c1;
      ping_alive c2;
      (* allocate the third client's descriptor now, so the fd the
         daemon frees below is the lowest free one when it accepts *)
      let s3 = Unix.socket PF_INET SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () ->
          Client.close c1;
          Client.close c2;
          try Unix.close s3 with Unix.Unix_error _ -> ())
        (fun () ->
          (* an oversized prefix makes the daemon reply and close c1 *)
          Client.send_raw c1 (Bytes.make 4 '\xff');
          expect_proto c1 Wire.Oversized;
          checkb "c1 closed by the daemon" true (Client.drain c1 = []);
          Unix.connect s3 (ADDR_INET (Unix.inet_addr_loopback, port));
          let value tag = Bytes.of_string (Printf.sprintf "%-8s" tag) in
          (match Client.call c2 (Wire.Op (Wire.Insert (2, value "two"))) with
           | Wire.Result Wire.Inserted -> ()
           | _ -> Alcotest.fail "c2 insert");
          let framing = Wire.Framing.create () in
          let buf = Bytes.create 4096 in
          let call3 rid req =
            let frame = Wire.encode_request { Wire.rid; req } in
            let rec write off =
              if off < Bytes.length frame then
                write (off + Unix.write s3 frame off (Bytes.length frame - off))
            in
            write 0;
            let rec next () =
              match Wire.Framing.next framing with
              | `Frame payload -> (
                match Wire.decode_reply payload with
                | Ok { Wire.rid = got; rep } ->
                  check "c3 reply rid" rid got;
                  rep
                | Error (_, msg) -> Alcotest.fail msg)
              | `Oversized _ -> Alcotest.fail "c3: oversized reply"
              | `Await -> (
                match Unix.select [ s3 ] [] [] 5.0 with
                | [], _, _ -> Alcotest.fail "c3: no reply"
                | _ ->
                  let n = Unix.read s3 buf 0 (Bytes.length buf) in
                  if n = 0 then Alcotest.fail "c3: closed";
                  Wire.Framing.feed framing buf n;
                  next ())
            in
            next ()
          in
          (match call3 7 (Wire.Op (Wire.Insert (3, value "three"))) with
           | Wire.Result Wire.Inserted -> ()
           | _ -> Alcotest.fail "c3 insert");
          (* interleave: each side must read back only its own key *)
          let r2 = Client.send c2 (Wire.Op (Wire.Get 2)) in
          (match call3 8 (Wire.Op (Wire.Get 3)) with
           | Wire.Result (Wire.Found v) ->
             checkb "c3 reads its own value" true (Bytes.equal v (value "three"))
           | _ -> Alcotest.fail "c3 get");
          (match Client.wait c2 r2 with
           | Wire.Result (Wire.Found v) ->
             checkb "c2 reads its own value" true (Bytes.equal v (value "two"))
           | _ -> Alcotest.fail "c2 get");
          check "c2 has no stray replies" 0 (Client.pending c2)))

(* --- multi-domain determinism ------------------------------------ *)

let determinism_spec =
  { Sim_gen.default with
    Sim_gen.seed = 5; universe = 1 lsl 16; key_count = 64; count = 240;
    dist = Sim_gen.Zipf_skew 1.1; value_bytes = 8;
    lookup_fraction = 0.5; delete_fraction = 0.25 }

let run_workload ~domains ~queue_cap ~events spec =
  with_server (small_config ~shards:4 ~domains ~queue_cap ()) (fun t ->
      let scenario =
        { Loadgen.spec; conns = 1; mode = Loadgen.Closed; events }
      in
      let r =
        Loadgen.run
          ~name:(Printf.sprintf "test-d%d" domains)
          ~port:(Server.port t) scenario
      in
      (r, Server.counters t))

let test_multi_domain_determinism () =
  let r1, _ = run_workload ~domains:1 ~queue_cap:1024 ~events:[] determinism_spec in
  let r2, _ = run_workload ~domains:2 ~queue_cap:1024 ~events:[] determinism_spec in
  check "single-domain run answers everything" 0
    (r1.Loadgen.wrong + r1.Loadgen.busy + r1.Loadgen.unavailable
     + r1.Loadgen.proto_errors);
  check "multi-domain run answers everything" 0
    (r2.Loadgen.wrong + r2.Loadgen.busy + r2.Loadgen.unavailable
     + r2.Loadgen.proto_errors);
  checks "byte-identical answers" r1.Loadgen.answers_digest
    r2.Loadgen.answers_digest;
  checkb "identical per-shard ledgers" true
    (r1.Loadgen.shard_stats = r2.Loadgen.shard_stats);
  check "identical rounds" r1.Loadgen.rounds r2.Loadgen.rounds;
  check "identical ios" r1.Loadgen.ios r2.Loadgen.ios

(* --- soak: chaos and overload ------------------------------------ *)

let test_soak_chaos () =
  let spec =
    { Sim_gen.default with
      Sim_gen.seed = 11; universe = 1 lsl 16; key_count = 96; count = 360;
      dist = Sim_gen.Adversarial; value_bytes = 8;
      lookup_fraction = 0.5; delete_fraction = 0.25 }
  in
  let events =
    [ (120, Loadgen.Kill_disk { shard = 1; disk = 0 });
      (240, Loadgen.Scrub { shard = 1 }) ]
  in
  let chaos d =
    let r, counters = run_workload ~domains:d ~queue_cap:1024 ~events spec in
    check "every op answered" 360 r.Loadgen.requests;
    check "zero wrong answers under kill + scrub" 0 r.Loadgen.wrong;
    check "replication absorbs the kill" 0 r.Loadgen.unavailable;
    check "no protocol errors" 0 r.Loadgen.proto_errors;
    checkb "queue depth bounded" true (counters.Server.peak_depth <= 1024);
    r
  in
  let r1 = chaos 1 in
  let r2 = chaos 2 in
  checks "chaos run still deterministic across domains"
    r1.Loadgen.answers_digest r2.Loadgen.answers_digest;
  checkb "chaos ledgers identical" true
    (r1.Loadgen.shard_stats = r2.Loadgen.shard_stats)

let test_overload_typed_busy () =
  with_server (small_config ~queue_cap:1 ()) (fun t ->
      with_client t (fun c ->
          let n = 200 in
          (* values must be exactly the plane's configured value_bytes *)
          let value = Bytes.make 8 'v' in
          (* burst n pipelined single-key inserts into 1-deep mailboxes:
             some must bounce, and each bounce is a typed Busy echoing
             the frame's rid — never a dropped or unanswered frame *)
          let rids =
            Array.init n (fun i ->
                Client.send c (Wire.Op (Wire.Insert (i * 7, value))))
          in
          let admitted = Array.make n false in
          let busy = ref 0 in
          Array.iteri
            (fun i rid ->
              match Client.wait c rid with
              | Wire.Result Wire.Inserted -> admitted.(i) <- true
              | Wire.Busy -> incr busy
              | Wire.Unavailable m ->
                Alcotest.failf "op %d: unavailable: %s" i m
              | _ -> Alcotest.failf "op %d: unexpected reply" i)
            rids;
          checkb "overload produced typed Busy replies" true (!busy > 0);
          checkb "some frames were admitted" true (!busy < n);
          (* the server's own ledger agrees with what we saw *)
          let counters = Server.counters t in
          check "busy counter matches" !busy counters.Server.busy;
          checkb "mailbox depth never exceeded the cap" true
            (counters.Server.peak_depth <= 1);
          (* state is exactly the admitted prefix: a key answers Found
             iff its insert was admitted (closed-loop reads can't bounce) *)
          Array.iteri
            (fun i admitted_i ->
              match Client.call c (Wire.Op (Wire.Get (i * 7))) with
              | Wire.Result (Wire.Found v) ->
                checkb "found only admitted keys" true
                  (admitted_i && Bytes.equal v value)
              | Wire.Result Wire.Absent ->
                checkb "absent only bounced keys" false admitted_i
              | _ -> Alcotest.failf "get %d: unexpected reply" i)
            admitted))

let suite =
  [ ("server.wire",
     List.map QCheck_alcotest.to_alcotest
       [ prop_request_roundtrip; prop_reply_roundtrip; prop_decoder_total ]
     @ [ tc "canonical frames roundtrip" `Quick test_canonical_roundtrips;
         tc "malformed payloads are structured errors" `Quick
           test_decoder_malformed;
         tc "framing: oversized and split delivery" `Quick
           test_framing_oversized;
         tc "encode: a shard above 0xffff is rejected" `Quick
           test_encode_rejects_wide_shard;
         tc "encode: a disk above 0xffff is rejected" `Quick
           test_encode_rejects_wide_disk;
         tc "encode: a batch above 0xffff ops is rejected" `Quick
           test_encode_rejects_wide_batch;
         tc "encode: reply counts above 0xffff are rejected" `Quick
           test_encode_rejects_wide_replies;
         tc "framing: allocation linear in frames" `Quick test_framing_linear ]);
    ("server.live",
     [ tc "malformed frames keep the connection" `Quick
         test_live_malformed_frames;
       tc "seeded frame fuzzer never crashes the daemon" `Quick
         test_live_fuzz_never_crashes;
       tc "client sets TCP_NODELAY" `Quick test_client_nodelay;
       tc "open-loop replies are not held back" `Quick test_replies_not_held;
       tc "a reused fd number gets its own replies" `Quick
         test_fd_reuse_routes_replies ]);
    ("server.determinism",
     [ tc "1 vs 2 domains: identical answers and ledgers" `Quick
         test_multi_domain_determinism ]);
    ("server.soak",
     [ tc "kill + scrub mid-run: zero wrong answers" `Quick test_soak_chaos;
       tc "overload answers typed Busy, never drops" `Quick
         test_overload_typed_busy ]) ]
