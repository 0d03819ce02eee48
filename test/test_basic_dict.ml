(* Tests for the Section 4.1 basic dictionary (and the shared codec). *)

open Pdm_sim
module Basic = Pdm_dictionary.Basic_dict
module Codec = Pdm_dictionary.Codec
module Prng = Pdm_util.Prng
module Sampling = Pdm_util.Sampling

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let check_bytes = Alcotest.(check string)

(* --- Codec --- *)

let test_codec_words_roundtrip () =
  let b = Bytes.of_string "hello, parallel disks" in
  let words = Codec.words_of_bytes b in
  check_bytes "roundtrip" (Bytes.to_string b)
    (Bytes.to_string (Codec.bytes_of_words_len words ~len:(Bytes.length b)))

let test_codec_bit_level () =
  let b = Bytes.make 2 '\000' in
  Bytes.set b 0 '\xF0';
  let words = Codec.words_of_bits b ~nbits:4 in
  check "one word" 1 (Array.length words);
  (* 4 bits 1111 followed by 28 zero pad bits, MSB-first in the word. *)
  check "packing" (0xF lsl 28) words.(0);
  let back = Codec.bytes_of_words words ~nbits:4 in
  check_bytes "back" "\xF0" (Bytes.to_string back)

let prop_codec_roundtrip =
  QCheck.Test.make ~name:"codec bytes roundtrip" ~count:100 QCheck.string
    (fun s ->
      let b = Bytes.of_string s in
      Codec.bytes_of_words_len (Codec.words_of_bytes b) ~len:(Bytes.length b)
      = b)

let test_slots () =
  let block = Array.make 16 None in
  let width = 3 in
  check "slots per block" 5 (Codec.Slots.per_block ~block_words:16 ~width);
  Codec.Slots.write block ~width 0 (Some [| 10; 1; 2 |]);
  Codec.Slots.write block ~width 4 (Some [| 20; 3; 4 |]);
  check "count" 2 (Codec.Slots.count block ~width);
  Alcotest.(check (option int)) "find 20" (Some 4)
    (Codec.Slots.find_key block ~width ~key:20);
  Alcotest.(check (option int)) "missing" None
    (Codec.Slots.find_key block ~width ~key:99);
  Alcotest.(check (option int)) "first free" (Some 1)
    (Codec.Slots.first_free block ~width);
  Codec.Slots.write block ~width 0 None;
  check "after clear" 1 (Codec.Slots.count block ~width);
  Alcotest.(check (option int)) "freed" (Some 0)
    (Codec.Slots.first_free block ~width)

(* --- Basic dictionary --- *)

let universe = 1 lsl 20

let mk ?(capacity = 500) ?(block_words = 64) ?(degree = 8) ?(value_bytes = 8) ()
    =
  let cfg =
    Basic.plan ~universe ~capacity ~block_words ~degree ~value_bytes ~seed:42 ()
  in
  let machine =
    Pdm.create ~disks:degree ~block_size:block_words
      ~blocks_per_disk:(Basic.blocks_per_disk cfg) ()
  in
  (machine, Basic.create ~machine ~disk_offset:0 ~block_offset:0 cfg)

let value_of i = Bytes.of_string (Printf.sprintf "%08d" (i mod 100_000_000))

let test_insert_find () =
  let _, d = mk () in
  Basic.insert d 17 (value_of 17);
  (match Basic.find d 17 with
   | Some v -> check_bytes "value" "00000017" (Bytes.to_string v)
   | None -> Alcotest.fail "key not found");
  Alcotest.(check (option string)) "absent" None
    (Option.map Bytes.to_string (Basic.find d 18))

let test_update_in_place () =
  let _, d = mk () in
  Basic.insert d 5 (value_of 1);
  Basic.insert d 5 (value_of 2);
  check "size unchanged" 1 (Basic.size d);
  check_bytes "updated" "00000002"
    (Bytes.to_string (Option.get (Basic.find d 5)))

let test_bulk_and_membership () =
  let _, d = mk ~capacity:400 () in
  let rng = Prng.create 1 in
  let members, absent = Sampling.disjoint_pair rng ~universe ~count:400 in
  Array.iter (fun k -> Basic.insert d k (value_of k)) members;
  check "size" 400 (Basic.size d);
  Array.iter
    (fun k ->
      match Basic.find d k with
      | Some v -> check_bytes "member value" (Bytes.to_string (value_of k)) (Bytes.to_string v)
      | None -> Alcotest.failf "member %d missing" k)
    members;
  Array.iter
    (fun k -> checkb "non-member absent" false (Basic.mem d k))
    absent

let test_lookup_is_one_io () =
  let machine, d = mk () in
  let rng = Prng.create 2 in
  let keys = Sampling.distinct rng ~universe ~count:300 in
  Array.iter (fun k -> Basic.insert d k (value_of k)) keys;
  Stats.reset (Pdm.stats machine);
  Array.iter (fun k -> ignore (Basic.find d k)) keys;
  let s = Stats.snapshot (Pdm.stats machine) in
  check "1 read round per lookup" 300 s.Stats.parallel_reads;
  check "no writes" 0 s.Stats.parallel_writes

let test_unsuccessful_lookup_one_io () =
  let machine, d = mk () in
  Basic.insert d 1 (value_of 1);
  Stats.reset (Pdm.stats machine);
  ignore (Basic.find d 999);
  check "1 I/O" 1 (Stats.parallel_ios (Stats.snapshot (Pdm.stats machine)))

let test_insert_is_two_ios () =
  let machine, d = mk () in
  Stats.reset (Pdm.stats machine);
  Basic.insert d 7 (value_of 7);
  let s = Stats.snapshot (Pdm.stats machine) in
  check "read round" 1 s.Stats.parallel_reads;
  check "write round" 1 s.Stats.parallel_writes

let test_delete () =
  let machine, d = mk () in
  Basic.insert d 3 (value_of 3);
  Basic.insert d 4 (value_of 4);
  Stats.reset (Pdm.stats machine);
  checkb "delete hits" true (Basic.delete d 3);
  let s = Stats.snapshot (Pdm.stats machine) in
  check "delete = 2 I/Os" 2 (Stats.parallel_ios s);
  checkb "gone" false (Basic.mem d 3);
  checkb "other kept" true (Basic.mem d 4);
  checkb "delete misses" false (Basic.delete d 3);
  check "size" 1 (Basic.size d)

let test_slot_reuse_after_delete () =
  let _, d = mk ~capacity:100 () in
  for k = 0 to 99 do Basic.insert d k (value_of k) done;
  for k = 0 to 49 do ignore (Basic.delete d k) done;
  (* Freed slots must be reusable. *)
  for k = 200 to 249 do Basic.insert d k (value_of k) done;
  check "size" 100 (Basic.size d);
  for k = 200 to 249 do checkb "new keys present" true (Basic.mem d k) done

let test_capacity_enforced () =
  let _, d = mk ~capacity:10 () in
  for k = 0 to 9 do Basic.insert d k (value_of k) done;
  checkb "over capacity rejected" true
    (try
       Basic.insert d 100 (value_of 100);
       false
     with Invalid_argument _ -> true)

let test_max_load_respects_lemma3 () =
  let _, d = mk ~capacity:2000 () in
  let rng = Prng.create 3 in
  let keys = Sampling.distinct rng ~universe ~count:2000 in
  Array.iter (fun k -> Basic.insert d k (value_of k)) keys;
  checkb "no overflow; max load within slots" true
    (Basic.max_load d <= Basic.slots_per_bucket d)

let test_value_too_large_rejected () =
  let _, d = mk ~value_bytes:4 () in
  checkb "oversized value" true
    (try
       Basic.insert d 1 (Bytes.of_string "too large for four");
       false
     with Invalid_argument _ -> true)

let test_combined_fetch_decoding () =
  (* find_in must work from a combined fetch (the 2d-disk trick used by
     the composite structures): the key's plan sits at an offset of a
     larger fetch, here after another key's plan. *)
  let machine, d = mk () in
  Basic.insert d 11 (value_of 11);
  let fetch_after other key =
    let n = Basic.plan_blocks d in
    let addrs = Array.make (2 * n) { Pdm.disk = 0; block = 0 } in
    Basic.fill_addresses d other addrs ~off:0;
    Basic.fill_addresses d key addrs ~off:n;
    (Pdm.read machine addrs, n)
  in
  let blocks, off = fetch_after 9999 11 in
  (match Basic.find_in d 11 blocks ~off with
   | Some v -> check_bytes "value via find_in" "00000011" (Bytes.to_string v)
   | None -> Alcotest.fail "find_in missed");
  Alcotest.(check (option string)) "the part before it decodes alone" None
    (Option.map Bytes.to_string (Basic.find_in d 9999 blocks ~off:0));
  let blocks, off = fetch_after 11 9999 in
  Alcotest.(check (option string)) "absent via find_in" None
    (Option.map Bytes.to_string (Basic.find_in d 9999 blocks ~off))

let test_shared_machine_disk_offset () =
  (* Two dictionaries on disjoint disk groups of one machine: one
     combined read serves both in a single parallel I/O. *)
  let degree = 4 in
  let cfg =
    Basic.plan ~universe ~capacity:100 ~block_words:64 ~degree ~value_bytes:4
      ~seed:1 ()
  in
  let machine =
    Pdm.create ~disks:(2 * degree) ~block_size:64
      ~blocks_per_disk:(Basic.blocks_per_disk cfg) ()
  in
  let d1 = Basic.create ~machine ~disk_offset:0 ~block_offset:0 cfg in
  let d2 = Basic.create ~machine ~disk_offset:degree ~block_offset:0 cfg in
  Basic.insert d1 42 (Bytes.of_string "aaaa");
  Basic.insert d2 42 (Bytes.of_string "bbbb");
  Stats.reset (Pdm.stats machine);
  let blocks =
    Pdm.read_views machine
      (Array.append (Basic.addresses d1 42) (Basic.addresses d2 42))
  in
  check "combined read = 1 I/O" 1
    (Stats.parallel_ios (Stats.snapshot (Pdm.stats machine)));
  Alcotest.(check (option string)) "d1 decodes" (Some "aaaa")
    (Option.map Bytes.to_string (Basic.find_in d1 42 blocks ~off:0));
  Alcotest.(check (option string)) "d2 decodes" (Some "bbbb")
    (Option.map Bytes.to_string
       (Basic.find_in d2 42 blocks ~off:(Basic.plan_blocks d1)))

let test_deterministic_layout () =
  let build () =
    let machine, d = mk ~capacity:200 () in
    let rng = Prng.create 9 in
    Array.iter
      (fun k -> Basic.insert d k (value_of k))
      (Sampling.distinct rng ~universe ~count:200);
    ignore machine;
    Basic.bucket_loads d
  in
  Alcotest.(check (array int)) "identical layouts" (build ()) (build ())

let prop_insert_find_random =
  QCheck.Test.make ~name:"basic dict stores what was inserted" ~count:20
    QCheck.(list_of_size Gen.(int_range 0 80) (int_bound (universe - 1)))
    (fun keys ->
      let keys = List.sort_uniq compare keys in
      let _, d = mk ~capacity:100 () in
      List.iter (fun k -> Basic.insert d k (value_of k)) keys;
      List.for_all (fun k -> Basic.find d k = Some (value_of k)) keys)

let suite =
  let tc = Alcotest.test_case in
  [ ("dictionary.codec",
     [ tc "words roundtrip" `Quick test_codec_words_roundtrip;
       tc "bit-level packing" `Quick test_codec_bit_level;
       tc "slots" `Quick test_slots;
       QCheck_alcotest.to_alcotest prop_codec_roundtrip ]);
    ("dictionary.basic",
     [ tc "insert and find" `Quick test_insert_find;
       tc "update in place" `Quick test_update_in_place;
       tc "bulk and membership" `Quick test_bulk_and_membership;
       tc "lookup costs 1 I/O" `Quick test_lookup_is_one_io;
       tc "unsuccessful lookup 1 I/O" `Quick test_unsuccessful_lookup_one_io;
       tc "insert costs 2 I/Os" `Quick test_insert_is_two_ios;
       tc "delete" `Quick test_delete;
       tc "slot reuse after delete" `Quick test_slot_reuse_after_delete;
       tc "capacity enforced" `Quick test_capacity_enforced;
       tc "max load within bucket" `Quick test_max_load_respects_lemma3;
       tc "oversized value rejected" `Quick test_value_too_large_rejected;
       tc "combined fetch decoding" `Quick test_combined_fetch_decoding;
       tc "shared machine / disk offsets" `Quick test_shared_machine_disk_offset;
       tc "deterministic layout" `Quick test_deterministic_layout;
       QCheck_alcotest.to_alcotest prop_insert_find_random ]) ]

(* --- bulk load (appended) --- *)

let test_bulk_load_matches_incremental () =
  let mk2 () = mk ~capacity:300 () in
  let rng = Prng.create 77 in
  let keys = Sampling.distinct rng ~universe ~count:300 in
  let data = Array.map (fun k -> (k, value_of k)) keys in
  let _, inc = mk2 () in
  Array.iter (fun (k, v) -> Basic.insert inc k v) data;
  let _, bulk = mk2 () in
  Basic.bulk_load bulk data;
  Alcotest.(check (array int)) "identical bucket layout"
    (Basic.bucket_loads inc) (Basic.bucket_loads bulk);
  Array.iter
    (fun (k, v) ->
      Alcotest.(check (option string)) "same values"
        (Some (Bytes.to_string v))
        (Option.map Bytes.to_string (Basic.find bulk k)))
    data

let test_bulk_load_io_cost () =
  let machine, d = mk ~capacity:400 () in
  let rng = Prng.create 78 in
  let keys = Sampling.distinct rng ~universe ~count:400 in
  let data = Array.map (fun k -> (k, value_of k)) keys in
  Stats.reset (Pdm.stats machine);
  Basic.bulk_load d data;
  let s = Stats.snapshot (Pdm.stats machine) in
  check "no reads" 0 s.Stats.parallel_reads;
  (* Far fewer write rounds than the 400 of incremental loading. *)
  checkb
    (Printf.sprintf "%d write rounds << 400" s.Stats.parallel_writes)
    true
    (s.Stats.parallel_writes <= Basic.blocks_per_disk (Basic.config d))

let test_bulk_load_validation () =
  let _, d = mk ~capacity:10 () in
  checkb "duplicates rejected" true
    (try
       Basic.bulk_load d [| (1, value_of 1); (1, value_of 1) |];
       false
     with Invalid_argument _ -> true);
  let _, d = mk ~capacity:10 () in
  Basic.insert d 1 (value_of 1);
  checkb "non-empty rejected" true
    (try
       Basic.bulk_load d [| (2, value_of 2) |];
       false
     with Invalid_argument _ -> true)

let suite =
  suite
  @ [ ("dictionary.bulk_load",
       [ Alcotest.test_case "matches incremental" `Quick
           test_bulk_load_matches_incremental;
         Alcotest.test_case "I/O cost" `Quick test_bulk_load_io_cost;
         Alcotest.test_case "validation" `Quick test_bulk_load_validation ]) ]
