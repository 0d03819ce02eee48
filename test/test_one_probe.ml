(* Tests for the field store, the Theorem 6 field codecs, and the
   one-probe static dictionary of Section 4.2. *)

open Pdm_sim
module Field_store = Pdm_dictionary.Field_store
module Field_codec = Pdm_dictionary.Field_codec
module One_probe = Pdm_dictionary.One_probe_static
module Seeded = Pdm_expander.Seeded
module Prng = Pdm_util.Prng
module Sampling = Pdm_util.Sampling

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* --- Field_store --- *)

let mk_store ?(u = 10_000) ?(v = 240) ?(d = 8) ?(field_bits = 40)
    ?(block_words = 16) () =
  let graph = Seeded.striped ~seed:1 ~u ~v ~d in
  let field_words = Pdm_dictionary.Codec.words_for_bits field_bits in
  let fpb = max 1 (block_words / field_words) in
  let machine =
    Pdm.create ~disks:d ~block_size:block_words
      ~blocks_per_disk:(max 1 ((v / d / fpb) + 1)) ()
  in
  let fs =
    Field_store.create ~machine ~disk_offset:0 ~block_offset:0 ~graph
      ~field_bits
  in
  (machine, fs)

(* A field's words: four bytes [tag + i] per word, most significant
   first. *)
let field_value tag fs =
  Array.init (Field_store.field_words fs) (fun w ->
      List.fold_left
        (fun acc j -> (acc lsl 8) lor ((tag + (4 * w) + j) land 0xff))
        0 [ 0; 1; 2; 3 ])

let mask_last_bits fs words =
  (* Bits beyond field_bits come back as zero; zero them for compare. *)
  let bits = Field_store.field_bits fs in
  Array.mapi
    (fun w x ->
      let valid = bits - (32 * w) in
      if valid >= 32 then x else x land (((1 lsl valid) - 1) lsl (32 - valid)))
    words

let check_words = Alcotest.(check (array int))

let test_fs_write_read () =
  let _, fs = mk_store () in
  let v0 = field_value 3 fs and v1 = field_value 90 fs in
  Field_store.write_fields fs [ (0, Some v0); (100, Some v1) ];
  (match Field_store.read_fields fs [ 0; 100; 7 ] with
   | [ (0, Some a); (100, Some b); (7, None) ] ->
     check_words "field 0" (mask_last_bits fs v0) a;
     check_words "field 100" (mask_last_bits fs v1) b
   | _ -> Alcotest.fail "unexpected read_fields result")

let test_fs_clear () =
  let _, fs = mk_store () in
  Field_store.write_fields fs [ (5, Some (field_value 1 fs)) ];
  Field_store.write_fields fs [ (5, None) ];
  match Field_store.read_fields fs [ 5 ] with
  | [ (5, None) ] -> ()
  | _ -> Alcotest.fail "field not cleared"

let test_fs_lookup_is_one_io () =
  let machine, fs = mk_store () in
  Stats.reset (Pdm.stats machine);
  let addrs = Field_store.addresses fs 1234 in
  check "d addresses" 8 (Array.length addrs);
  let _ = Pdm.read_views machine addrs in
  check "one parallel I/O" 1
    (Stats.parallel_ios (Stats.snapshot (Pdm.stats machine)))

let test_fs_neighbors_same_block_share_io () =
  (* Fields in the same block on the same disk are fetched together. *)
  let machine, fs = mk_store () in
  Stats.reset (Pdm.stats machine);
  ignore (Field_store.read_fields fs [ 0; 1; 2 ]);
  (* fields 0,1,2 are in stripe 0 and likely the same block (fpb=8). *)
  let s = Stats.snapshot (Pdm.stats machine) in
  check "1 block read" 1 s.Stats.block_reads

let test_fs_preserves_block_sharing () =
  (* Writing one field must not disturb its block-mates. *)
  let _, fs = mk_store () in
  let a = field_value 10 fs and b = field_value 20 fs in
  Field_store.write_fields fs [ (0, Some a) ];
  Field_store.write_fields fs [ (1, Some b) ];
  match Field_store.read_fields fs [ 0; 1 ] with
  | [ (0, Some x); (1, Some y) ] ->
    check_words "a survived" (mask_last_bits fs a) x;
    check_words "b written" (mask_last_bits fs b) y
  | _ -> Alcotest.fail "sharing broken"

let test_fs_bulk_write () =
  let machine, fs = mk_store () in
  let updates = List.init 60 (fun i -> (i * 4, field_value i fs)) in
  Stats.reset (Pdm.stats machine);
  Field_store.bulk_write fs updates;
  check "occupied" 60 (Field_store.count_occupied fs);
  checkb "duplicate rejected" true
    (try
       Field_store.bulk_write fs [ (0, field_value 1 fs); (0, field_value 2 fs) ];
       false
     with Invalid_argument _ -> true)

let test_fs_field_too_big () =
  checkb "field must fit block" true
    (try
       ignore (mk_store ~field_bits:(33 * 16) ~block_words:16 ());
       false
     with Invalid_argument _ -> true)

(* --- Field_codec, case (b) --- *)

let test_codec_b_roundtrip () =
  (* 4 assigned fields out of d = 7 is a strict majority. *)
  let field_bits = 30 and id_bits = 10 and sigma_bits = 64 and d = 7 in
  let satellite = Bytes.of_string "IOdictAB" in
  let indices = [ 1; 3; 4; 6 ] in
  let enc =
    Field_codec.encode_b ~field_bits ~id_bits ~id:513 ~satellite ~sigma_bits
      ~indices
  in
  check "four fields" 4 (List.length enc);
  let v = Field_views.of_encoded ~field_bits ~fields:d enc in
  match Field_codec.decode_b ~field_bits ~id_bits ~sigma_bits ~d v with
  | Some (id, merged) ->
    check "id" 513 id;
    Alcotest.(check string) "satellite" "IOdictAB" (Bytes.to_string merged)
  | None -> Alcotest.fail "decode_b failed"

let test_codec_b_no_majority () =
  let field_bits = 30 and id_bits = 10 and sigma_bits = 16 and d = 8 in
  (* Three of eight fields share an id: not a strict majority. *)
  let satellite = Bytes.of_string "zz" in
  let enc =
    Field_codec.encode_b ~field_bits ~id_bits ~id:7 ~satellite ~sigma_bits
      ~indices:[ 0; 1; 2 ]
  in
  let v = Field_views.of_encoded ~field_bits ~fields:d enc in
  checkb "no majority -> None" true
    (Field_codec.decode_b ~field_bits ~id_bits ~sigma_bits ~d v = None)

let test_codec_b_mixed_ids () =
  (* A majority id wins even when other fields hold a different id. *)
  let field_bits = 26 and id_bits = 10 and sigma_bits = 32 and d = 7 in
  let own =
    Field_codec.encode_b ~field_bits ~id_bits ~id:11 ~satellite:(Bytes.of_string "ABCD")
      ~sigma_bits ~indices:[ 0; 2; 4; 5 ]
  in
  let other =
    Field_codec.encode_b ~field_bits ~id_bits ~id:99 ~satellite:(Bytes.of_string "XY")
      ~sigma_bits:16 ~indices:[ 1; 6 ]
  in
  let all = own @ other in
  let v = Field_views.of_encoded ~field_bits ~fields:d all in
  match Field_codec.decode_b ~field_bits ~id_bits ~sigma_bits ~d v with
  | Some (id, merged) ->
    check "majority id" 11 id;
    Alcotest.(check string) "clean merge" "ABCD" (Bytes.to_string merged)
  | None -> Alcotest.fail "majority not found"

let test_codec_b_capacity_checked () =
  checkb "capacity" true
    (try
       ignore
         (Field_codec.encode_b ~field_bits:12 ~id_bits:10 ~id:0
            ~satellite:(Bytes.of_string "abcd") ~sigma_bits:32 ~indices:[ 0; 1 ]);
       false
     with Invalid_argument _ -> true)

(* --- Field_codec, case (a) --- *)

let test_codec_a_roundtrip () =
  let field_bits = 40 and sigma_bits = 96 in
  let satellite = Bytes.of_string "twelve bytes" in
  let indices = [ 0; 2; 3; 7 ] in
  let enc = Field_codec.encode_a ~field_bits ~indices ~satellite ~sigma_bits in
  let v = Field_views.of_encoded ~field_bits enc in
  match Field_codec.decode_a ~field_bits ~head:0 ~sigma_bits v with
  | Some merged ->
    Alcotest.(check string) "satellite" "twelve bytes" (Bytes.to_string merged)
  | None -> Alcotest.fail "decode_a failed"

let test_codec_a_pointer_overhead () =
  (* Pointer bits: deltas (2 + 1 + 4 ones) + 4 separators = 11. *)
  let indices = [ 0; 2; 3; 7 ] in
  check "capacity" ((4 * 40) - 11)
    (Field_codec.a_capacity_bits ~field_bits:40 ~indices)

let test_codec_a_missing_field () =
  let field_bits = 40 and sigma_bits = 64 in
  let enc =
    Field_codec.encode_a ~field_bits ~indices:[ 1; 4 ]
      ~satellite:(Bytes.of_string "IOdictAB") ~sigma_bits
  in
  (* Drop the tail field: decode must fail gracefully. *)
  let v =
    Field_views.of_encoded ~field_bits ~fields:5
      (List.filter (fun (i, _) -> i = 1) enc)
  in
  checkb "missing tail" true
    (Field_codec.decode_a ~field_bits ~head:1 ~sigma_bits v = None);
  checkb "missing head" true
    (Field_codec.decode_a ~field_bits ~head:4 ~sigma_bits v = None)

let test_codec_a_single_field () =
  let enc =
    Field_codec.encode_a ~field_bits:20 ~indices:[ 5 ]
      ~satellite:(Bytes.of_string "ab") ~sigma_bits:16
  in
  check "one field" 1 (List.length enc);
  let v = Field_views.of_encoded ~field_bits:20 enc in
  match Field_codec.decode_a ~field_bits:20 ~head:5 ~sigma_bits:16 v with
  | Some b -> Alcotest.(check string) "payload" "ab" (Bytes.to_string b)
  | None -> Alcotest.fail "single-field decode failed"

let test_codec_a_capacity_checked () =
  checkb "too small" true
    (try
       ignore
         (Field_codec.encode_a ~field_bits:10 ~indices:[ 0; 1 ]
            ~satellite:(Bytes.of_string "abcd") ~sigma_bits:32);
       false
     with Invalid_argument _ -> true)

let prop_codec_a_random =
  QCheck.Test.make ~name:"case (a) roundtrip on random index sets" ~count:100
    QCheck.(pair (int_range 2 10) small_string)
    (fun (count, payload) ->
      QCheck.assume (String.length payload >= 1);
      let d = 16 in
      let count = min count d in
      let rng = Prng.create (Hashtbl.hash (count, payload)) in
      let indices =
        Array.to_list (Sampling.distinct rng ~universe:d ~count)
        |> List.sort compare
      in
      let sigma_bits = 8 * String.length payload in
      let field_bits = max 24 ((sigma_bits / count) + d + 2) in
      let enc =
        Field_codec.encode_a ~field_bits ~indices
          ~satellite:(Bytes.of_string payload) ~sigma_bits
      in
      let v = Field_views.of_encoded ~field_bits ~fields:d enc in
      Field_codec.decode_a ~field_bits ~head:(List.hd indices) ~sigma_bits v
      = Some (Bytes.of_string payload))

(* --- One_probe_static --- *)

let universe = 1 lsl 22

let mk_config ?(capacity = 300) ?(degree = 9) ?(sigma_bits = 128)
    ?(case = One_probe.Case_b) () =
  { One_probe.universe; capacity; degree; sigma_bits; v_factor = 3; case;
    seed = 17 }

let dataset ?(seed = 5) cfg n =
  let rng = Prng.create seed in
  let sigma_bytes = (cfg.One_probe.sigma_bits + 7) / 8 in
  let members, absent = Sampling.disjoint_pair rng ~universe ~count:n in
  let data =
    Array.map
      (fun k ->
        (k, Bytes.init sigma_bytes (fun i -> Char.chr ((k + (i * 7)) land 0xff))))
      members
  in
  (data, absent)

let test_one_probe_b_roundtrip () =
  let cfg = mk_config () in
  let data, absent = dataset cfg 300 in
  let t = One_probe.build ~block_words:64 cfg data in
  Array.iter
    (fun (k, v) ->
      match One_probe.find t k with
      | Some got -> Alcotest.(check string) "satellite" (Bytes.to_string v) (Bytes.to_string got)
      | None -> Alcotest.failf "member %d missing" k)
    data;
  Array.iter
    (fun k -> checkb "absent" false (One_probe.mem t k))
    absent

let test_one_probe_a_roundtrip () =
  let cfg = mk_config ~case:One_probe.Case_a () in
  let data, absent = dataset cfg 300 in
  let t = One_probe.build ~block_words:64 cfg data in
  Array.iter
    (fun (k, v) ->
      match One_probe.find t k with
      | Some got -> Alcotest.(check string) "satellite" (Bytes.to_string v) (Bytes.to_string got)
      | None -> Alcotest.failf "member %d missing" k)
    data;
  Array.iter (fun k -> checkb "absent" false (One_probe.mem t k)) absent

let test_one_probe_single_io () =
  List.iter
    (fun case ->
      let cfg = mk_config ~case () in
      let data, absent = dataset cfg 200 in
      let t = One_probe.build ~block_words:64 cfg data in
      let machine = One_probe.machine t in
      Stats.reset (Pdm.stats machine);
      Array.iter (fun (k, _) -> ignore (One_probe.find t k)) data;
      Array.iter (fun k -> ignore (One_probe.find t k)) absent;
      let s = Stats.snapshot (Pdm.stats machine) in
      check "exactly 1 I/O per lookup"
        (Array.length data + Array.length absent)
        (Stats.parallel_ios s))
    [ One_probe.Case_b; One_probe.Case_a ]

let test_one_probe_construction_near_sort () =
  let cfg = mk_config ~capacity:500 () in
  let data, _ = dataset cfg 500 in
  let t = One_probe.build ~block_words:64 cfg data in
  let r = One_probe.report t in
  checkb "peeling terminates quickly" true (r.One_probe.peel_rounds <= 12);
  checkb
    (Printf.sprintf "construction %d within constant of sort %d"
       r.One_probe.construction_ios r.One_probe.sort_nd_ios)
    true
    (r.One_probe.construction_ios <= 40 * r.One_probe.sort_nd_ios)

let test_one_probe_space_formula () =
  (* Case (b) space: v fields of (lg n + ceil(sigma / (2d/3))) bits. *)
  let cfg = mk_config ~capacity:200 () in
  let data, _ = dataset cfg 200 in
  let t = One_probe.build ~block_words:64 cfg data in
  let r = One_probe.report t in
  let d = cfg.One_probe.degree in
  let v = 3 * cfg.One_probe.capacity * d in
  let expected_field_bits = 8 (* lg 200 *) + (128 / 6) + 1 in
  check "field bits" expected_field_bits r.One_probe.field_bits;
  check "space bits" (v * expected_field_bits) r.One_probe.space_bits

let test_one_probe_duplicate_keys_rejected () =
  let cfg = mk_config ~capacity:10 () in
  let payload = Bytes.make 16 'x' in
  checkb "duplicates" true
    (try
       ignore (One_probe.build ~block_words:64 cfg [| (1, payload); (1, payload) |]);
       false
     with Invalid_argument _ -> true)

let test_one_probe_no_false_positive_satellites () =
  (* Lookups of absent keys must not fabricate data even under heavy
     occupancy. *)
  let cfg = mk_config ~capacity:400 ~degree:12 () in
  let data, absent = dataset ~seed:11 cfg 400 in
  let t = One_probe.build ~block_words:64 cfg data in
  let wrong = ref 0 in
  Array.iter (fun k -> if One_probe.mem t k then incr wrong) absent;
  check "no false positives" 0 !wrong

let test_one_probe_deterministic () =
  let cfg = mk_config () in
  let data, _ = dataset cfg 100 in
  let t1 = One_probe.build ~block_words:64 cfg data in
  let t2 = One_probe.build ~block_words:64 cfg data in
  Array.iter
    (fun (k, _) ->
      Alcotest.(check (option string)) "same answers"
        (Option.map Bytes.to_string (One_probe.find t1 k))
        (Option.map Bytes.to_string (One_probe.find t2 k)))
    data

let suite =
  let tc = Alcotest.test_case in
  [ ("dictionary.field_store",
     [ tc "write/read" `Quick test_fs_write_read;
       tc "clear" `Quick test_fs_clear;
       tc "lookup is one I/O" `Quick test_fs_lookup_is_one_io;
       tc "block sharing on read" `Quick test_fs_neighbors_same_block_share_io;
       tc "block sharing on write" `Quick test_fs_preserves_block_sharing;
       tc "bulk write" `Quick test_fs_bulk_write;
       tc "field must fit block" `Quick test_fs_field_too_big ]);
    ("dictionary.field_codec",
     [ tc "case b roundtrip" `Quick test_codec_b_roundtrip;
       tc "case b no majority" `Quick test_codec_b_no_majority;
       tc "case b mixed ids" `Quick test_codec_b_mixed_ids;
       tc "case b capacity" `Quick test_codec_b_capacity_checked;
       tc "case a roundtrip" `Quick test_codec_a_roundtrip;
       tc "case a pointer overhead" `Quick test_codec_a_pointer_overhead;
       tc "case a missing field" `Quick test_codec_a_missing_field;
       tc "case a single field" `Quick test_codec_a_single_field;
       tc "case a capacity" `Quick test_codec_a_capacity_checked;
       QCheck_alcotest.to_alcotest prop_codec_a_random ]);
    ("dictionary.one_probe",
     [ tc "case b roundtrip" `Quick test_one_probe_b_roundtrip;
       tc "case a roundtrip" `Quick test_one_probe_a_roundtrip;
       tc "lookups are single I/O" `Quick test_one_probe_single_io;
       tc "construction near sort cost" `Quick test_one_probe_construction_near_sort;
       tc "space formula (case b)" `Quick test_one_probe_space_formula;
       tc "duplicate keys rejected" `Quick test_one_probe_duplicate_keys_rejected;
       tc "no false positives" `Quick test_one_probe_no_false_positive_satellites;
       tc "deterministic" `Quick test_one_probe_deterministic ]) ]
