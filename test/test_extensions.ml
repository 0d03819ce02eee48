(* Tests for the extension structures: tombstone deletion, the
   small-block dictionary, parallel instances, the disk-head-model
   dictionary, and the Section 6 one-probe dynamic structure. *)

open Pdm_sim
module Basic = Pdm_dictionary.Basic_dict
module Small = Pdm_dictionary.Small_block_dict
module Par = Pdm_dictionary.Parallel_instances
module Head = Pdm_dictionary.Head_model_dict
module Opd = Pdm_dictionary.One_probe_dynamic
module Seeded = Pdm_expander.Seeded
module Semi = Pdm_expander.Semi_explicit
module Prng = Pdm_util.Prng
module Sampling = Pdm_util.Sampling

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let universe = 1 lsl 20
let val8 k = Bytes.of_string (Printf.sprintf "%08d" (k mod 100_000_000))
let ios m = Stats.parallel_ios (Stats.snapshot (Pdm.stats m))

(* --- tombstone deletion mode --- *)

let mk_tombstone_dict () =
  let cfg =
    Basic.plan ~tombstone:true ~universe ~capacity:200 ~block_words:64
      ~degree:8 ~value_bytes:8 ~seed:1 ()
  in
  let machine =
    Pdm.create ~disks:8 ~block_size:64
      ~blocks_per_disk:(Basic.blocks_per_disk cfg) ()
  in
  (machine, Basic.create ~machine ~disk_offset:0 ~block_offset:0 cfg)

let test_tombstone_semantics () =
  let _, d = mk_tombstone_dict () in
  Basic.insert d 1 (val8 1);
  Basic.insert d 2 (val8 2);
  checkb "delete hits" true (Basic.delete d 1);
  check "tombstone held" 1 (Basic.tombstones d);
  check "size" 1 (Basic.size d);
  checkb "deleted key gone" false (Basic.mem d 1);
  checkb "other kept" true (Basic.mem d 2);
  checkb "re-delete misses" false (Basic.delete d 1)

let test_tombstone_never_moves_data () =
  (* The whole point of marking: surviving records keep their exact
     slots across arbitrary deletions. *)
  let machine, d = mk_tombstone_dict () in
  let rng = Prng.create 2 in
  let keys = Sampling.distinct rng ~universe ~count:150 in
  Array.iter (fun k -> Basic.insert d k (val8 k)) keys;
  let placement k =
    List.filter_map
      (fun a ->
        let block = Pdm.peek machine a in
        Option.map
          (fun s -> (a, s))
          (Pdm_dictionary.Codec.Slots.find_key block
             ~width:(Basic.record_width d) ~key:k))
      (Array.to_list (Basic.addresses d k))
  in
  let survivors = Array.sub keys 0 50 in
  let before = Array.map placement survivors in
  (* Delete the other 100 keys. *)
  Array.iteri (fun i k -> if i >= 50 then ignore (Basic.delete d k)) keys;
  check "100 tombstones" 100 (Basic.tombstones d);
  Array.iteri
    (fun i k ->
      checkb "survivor never moved" true (placement k = before.(i)))
    survivors

let test_tombstone_entries_exclude_dead () =
  let _, d = mk_tombstone_dict () in
  Basic.insert d 1 (val8 1);
  Basic.insert d 2 (val8 2);
  ignore (Basic.delete d 1);
  let live = List.map fst (Basic.entries d) in
  Alcotest.(check (list int)) "only live" [ 2 ] live

let test_tombstone_reinsert () =
  let _, d = mk_tombstone_dict () in
  Basic.insert d 7 (val8 1);
  ignore (Basic.delete d 7);
  Basic.insert d 7 (val8 2);
  checkb "reinserted" true (Basic.mem d 7);
  check "size" 1 (Basic.size d);
  Alcotest.(check string) "fresh value"
    (Bytes.to_string (val8 2))
    (Bytes.to_string (Option.get (Basic.find d 7)))

(* --- small-block dictionary --- *)

let mk_small ?(capacity = 400) ?(block_words = 6) () =
  let cfg =
    Small.plan ~universe ~capacity ~block_words ~degree:8 ~value_bytes:8
      ~seed:3 ()
  in
  let machine =
    Pdm.create ~disks:8 ~block_size:block_words
      ~blocks_per_disk:(Small.blocks_per_disk cfg) ()
  in
  (machine, Small.create ~machine ~disk_offset:0 ~block_offset:0 cfg)

let test_small_roundtrip () =
  let _, d = mk_small () in
  let rng = Prng.create 4 in
  let members, absent = Sampling.disjoint_pair rng ~universe ~count:400 in
  Array.iter (fun k -> Small.insert d k (val8 k)) members;
  check "size" 400 (Small.size d);
  Array.iter
    (fun k ->
      Alcotest.(check string) "value" (Bytes.to_string (val8 k))
        (Bytes.to_string (Option.get (Small.find d k))))
    members;
  Array.iter (fun k -> checkb "absent" false (Small.mem d k)) absent

let test_small_two_rounds_at_tiny_b () =
  (* B = 6 words holds only 2 records; the flat layout would need many
     rounds, the two-probe layout needs exactly 2. *)
  let machine, d = mk_small ~block_words:6 () in
  let rng = Prng.create 5 in
  let keys = Sampling.distinct rng ~universe ~count:300 in
  Array.iter (fun k -> Small.insert d k (val8 k)) keys;
  Stats.reset (Pdm.stats machine);
  Array.iter (fun k -> ignore (Small.find d k)) keys;
  check "2 rounds per lookup" (2 * 300) (ios machine)

let test_small_insert_three_rounds () =
  let machine, d = mk_small () in
  Stats.reset (Pdm.stats machine);
  Small.insert d 42 (val8 42);
  let s = Stats.snapshot (Pdm.stats machine) in
  check "2 read rounds" 2 s.Stats.parallel_reads;
  check "1 write round" 1 s.Stats.parallel_writes

let test_small_update_delete () =
  let _, d = mk_small () in
  Small.insert d 9 (val8 1);
  Small.insert d 9 (val8 2);
  check "size 1" 1 (Small.size d);
  Alcotest.(check string) "updated" (Bytes.to_string (val8 2))
    (Bytes.to_string (Option.get (Small.find d 9)));
  checkb "delete" true (Small.delete d 9);
  checkb "gone" false (Small.mem d 9)

let test_small_load_within_slots () =
  let _, d = mk_small ~capacity:800 () in
  let rng = Prng.create 6 in
  Array.iter
    (fun k -> Small.insert d k (val8 k))
    (Sampling.distinct rng ~universe ~count:800);
  checkb "sub-block load within slots" true
    (Small.max_sub_block_load d <= Small.slots_per_sub_block d)

(* --- parallel instances --- *)

let mk_par ?(instances = 4) () =
  Par.create
    { Par.instances; universe; capacity = 400; degree = 6; value_bytes = 8;
      block_words = 64; seed = 7 }

let test_par_batch_is_two_ios () =
  let t = mk_par () in
  let machine = Par.machine t in
  Stats.reset (Pdm.stats machine);
  Par.insert_batch t [ (1, val8 1); (2, val8 2); (3, val8 3); (4, val8 4) ];
  let s = Stats.snapshot (Pdm.stats machine) in
  check "1 read round for 4 inserts" 1 s.Stats.parallel_reads;
  check "1 write round for 4 inserts" 1 s.Stats.parallel_writes;
  check "all stored" 4 (Par.size t)

let test_par_lookup_one_io () =
  let t = mk_par () in
  Par.insert_batch t [ (10, val8 10); (20, val8 20) ];
  let machine = Par.machine t in
  Stats.reset (Pdm.stats machine);
  checkb "found" true (Par.mem t 10);
  checkb "absent" false (Par.mem t 999);
  check "1 I/O per lookup" 2 (ios machine)

let test_par_roundtrip_and_updates () =
  let t = mk_par () in
  let rng = Prng.create 8 in
  let keys = Sampling.distinct rng ~universe ~count:200 in
  Array.iteri
    (fun i _ ->
      if i mod 4 = 0 && i + 4 <= 200 then
        Par.insert_batch t
          (List.init 4 (fun j -> (keys.(i + j), val8 keys.(i + j)))))
    keys;
  check "size" 200 (Par.size t);
  (* Single-insert updates reach the copy wherever it lives. *)
  Par.insert t keys.(0) (val8 999);
  check "no duplicate" 200 (Par.size t);
  Alcotest.(check string) "updated" (Bytes.to_string (val8 999))
    (Bytes.to_string (Option.get (Par.find t keys.(0))));
  checkb "delete" true (Par.delete t keys.(0));
  check "size after delete" 199 (Par.size t)

let test_par_batch_validation () =
  let t = mk_par ~instances:2 () in
  checkb "oversized batch" true
    (try
       Par.insert_batch t [ (1, val8 1); (2, val8 2); (3, val8 3) ];
       false
     with Invalid_argument _ -> true);
  checkb "duplicate keys" true
    (try
       Par.insert_batch t [ (1, val8 1); (1, val8 2) ];
       false
     with Invalid_argument _ -> true)

(* --- head-model dictionary --- *)

let test_head_model_with_unstriped_graph () =
  let d = 8 and v = 512 in
  let graph = Seeded.unstriped ~seed:9 ~u:universe ~v ~d in
  let machine =
    Pdm.create ~model:Pdm.Parallel_heads ~disks:d ~block_size:64
      ~blocks_per_disk:(v / d) ()
  in
  let t = Head.create ~machine ~graph ~capacity:300 ~value_bytes:8 in
  check "1 round per lookup" 1 (Head.rounds_per_lookup t);
  let rng = Prng.create 10 in
  let members, absent = Sampling.disjoint_pair rng ~universe ~count:300 in
  Array.iter (fun k -> Head.insert t k (val8 k)) members;
  Stats.reset (Pdm.stats machine);
  Array.iter
    (fun k ->
      Alcotest.(check string) "value" (Bytes.to_string (val8 k))
        (Bytes.to_string (Option.get (Head.find t k))))
    members;
  check "1 I/O lookups despite no striping" 300 (ios machine);
  Array.iter (fun k -> checkb "absent" false (Head.mem t k)) absent

let test_head_model_rejects_pdm_machine () =
  let graph = Seeded.unstriped ~seed:9 ~u:universe ~v:64 ~d:4 in
  let machine = Pdm.create ~disks:4 ~block_size:64 ~blocks_per_disk:16 () in
  checkb "needs head model" true
    (try
       ignore (Head.create ~machine ~graph ~capacity:10 ~value_bytes:8);
       false
     with Invalid_argument _ -> true)

let test_head_model_with_semi_explicit_graph () =
  (* The Section 5 payoff: a telescope-product (unstriped) expander
     drives a dictionary directly in the head model — no factor-d
     space copy. Small capacity, matching the composed graph's
     effective reach. *)
  let s = Semi.construct ~seed:11 ~capacity:64 ~u:universe ~beta:0.3 ~eps:0.3 in
  let graph = s.Semi.graph in
  let v = Pdm_expander.Bipartite.v graph in
  let disks = 64 in
  let machine =
    Pdm.create ~model:Pdm.Parallel_heads ~disks ~block_size:64
      ~blocks_per_disk:(Pdm_util.Imath.cdiv v disks) ()
  in
  let t = Head.create ~machine ~graph ~capacity:32 ~value_bytes:8 in
  let rng = Prng.create 12 in
  let keys = Sampling.distinct rng ~universe ~count:32 in
  Array.iter (fun k -> Head.insert t k (val8 k)) keys;
  Array.iter (fun k -> checkb "stored" true (Head.mem t k)) keys;
  checkb "rounds = ceil(d/D)" true
    (Head.rounds_per_lookup t
     = Pdm_util.Imath.cdiv (Pdm_expander.Bipartite.d graph) disks)

(* --- one-probe dynamic (Section 6 exploration) --- *)

let mk_opd ?(capacity = 300) () =
  Opd.create ~block_words:64
    { Opd.universe; capacity; degree = 9; sigma_bits = 256; levels = 6;
      v_factor = 3; seed = 13 }

let test_opd_roundtrip () =
  let t = mk_opd () in
  let rng = Prng.create 14 in
  let members, absent = Sampling.disjoint_pair rng ~universe ~count:300 in
  let payload k =
    Bytes.init 32 (fun i -> Char.chr (Prng.hash2 ~seed:15 k i land 0xff))
  in
  Array.iter (fun k -> Opd.insert t k (payload k)) members;
  check "size" 300 (Opd.size t);
  Array.iter
    (fun k ->
      Alcotest.(check string) "satellite" (Bytes.to_string (payload k))
        (Bytes.to_string (Option.get (Opd.find t k))))
    members;
  Array.iter (fun k -> checkb "absent" false (Opd.mem t k)) absent

let test_opd_every_lookup_one_io () =
  let t = mk_opd () in
  let rng = Prng.create 16 in
  let members, absent = Sampling.disjoint_pair rng ~universe ~count:300 in
  let payload _ = Bytes.make 32 'x' in
  Array.iter (fun k -> Opd.insert t k (payload k)) members;
  let machine = Opd.machine t in
  Stats.reset (Pdm.stats machine);
  Array.iter (fun k -> ignore (Opd.find t k)) members;
  Array.iter (fun k -> ignore (Opd.find t k)) absent;
  check "every lookup exactly 1 I/O" 600 (ios machine)

let test_opd_every_insert_two_ios () =
  let t = mk_opd () in
  let rng = Prng.create 17 in
  let members = Sampling.distinct rng ~universe ~count:300 in
  let machine = Opd.machine t in
  let worst = ref 0 in
  Array.iter
    (fun k ->
      let (), c =
        Stats.measure (Pdm.stats machine) (fun () ->
            Opd.insert t k (Bytes.make 32 'y'))
      in
      worst := max !worst (Stats.parallel_ios c))
    members;
  check "worst insert = 2 I/Os" 2 !worst

let test_opd_disks_cost () =
  let t = mk_opd () in
  (* The price: (levels + 1) * d disks. *)
  check "disks" ((6 + 1) * 9) (Opd.disks t)

let test_opd_update_in_place () =
  let t = mk_opd () in
  Opd.insert t 5 (Bytes.make 32 'a');
  Opd.insert t 5 (Bytes.make 32 'b');
  check "size 1" 1 (Opd.size t);
  Alcotest.(check string) "updated"
    (String.make 32 'b')
    (Bytes.to_string (Option.get (Opd.find t 5)))

let suite =
  let tc = Alcotest.test_case in
  [ ("extensions.tombstone",
     [ tc "semantics" `Quick test_tombstone_semantics;
       tc "never moves data" `Quick test_tombstone_never_moves_data;
       tc "entries exclude dead" `Quick test_tombstone_entries_exclude_dead;
       tc "reinsert after delete" `Quick test_tombstone_reinsert ]);
    ("extensions.small_block",
     [ tc "roundtrip" `Quick test_small_roundtrip;
       tc "2 rounds at tiny B" `Quick test_small_two_rounds_at_tiny_b;
       tc "insert = 3 rounds" `Quick test_small_insert_three_rounds;
       tc "update and delete" `Quick test_small_update_delete;
       tc "load within slots" `Quick test_small_load_within_slots ]);
    ("extensions.parallel_instances",
     [ tc "batch = 2 I/Os" `Quick test_par_batch_is_two_ios;
       tc "lookup = 1 I/O" `Quick test_par_lookup_one_io;
       tc "roundtrip and updates" `Quick test_par_roundtrip_and_updates;
       tc "batch validation" `Quick test_par_batch_validation ]);
    ("extensions.head_model",
     [ tc "unstriped graph, 1 I/O" `Quick test_head_model_with_unstriped_graph;
       tc "rejects PDM machine" `Quick test_head_model_rejects_pdm_machine;
       tc "semi-explicit graph" `Quick test_head_model_with_semi_explicit_graph ]);
    ("extensions.one_probe_dynamic",
     [ tc "roundtrip" `Quick test_opd_roundtrip;
       tc "every lookup 1 I/O" `Quick test_opd_every_lookup_one_io;
       tc "every insert 2 I/Os" `Quick test_opd_every_insert_two_ios;
       tc "disk cost" `Quick test_opd_disks_cost;
       tc "update in place" `Quick test_opd_update_in_place ]) ]
