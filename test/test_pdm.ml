(* Tests for the parallel disk model simulator. *)

open Pdm_sim

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let mk ?model ?(disks = 4) ?(block_size = 8) ?(blocks = 16) () =
  Pdm.create ?model ~disks ~block_size ~blocks_per_disk:blocks ()

let block_of t xs =
  let b = Array.make (Pdm.block_size t) None in
  List.iteri (fun i x -> b.(i) <- Some x) xs;
  b

(* --- basic storage semantics --- *)

let test_read_empty () =
  let t : int Pdm.t = mk () in
  let b = Pdm.read_one t { disk = 0; block = 0 } in
  check "block size" 8 (Array.length b);
  Array.iter (fun c -> checkb "empty" true (c = None)) b

let test_write_then_read () =
  let t = mk () in
  let a = { Pdm.disk = 1; block = 3 } in
  Pdm.write_one t a (block_of t [ 10; 20; 30 ]);
  let b = Pdm.read_one t a in
  Alcotest.(check (option int)) "slot 0" (Some 10) b.(0);
  Alcotest.(check (option int)) "slot 2" (Some 30) b.(2);
  Alcotest.(check (option int)) "slot 3" None b.(3)

let test_read_returns_copy () =
  let t = mk () in
  let a = { Pdm.disk = 0; block = 0 } in
  Pdm.write_one t a (block_of t [ 1 ]);
  let b = Pdm.read_one t a in
  b.(0) <- Some 999;
  let b' = Pdm.read_one t a in
  Alcotest.(check (option int)) "unchanged on disk" (Some 1) b'.(0)

let test_write_stores_copy () =
  let t = mk () in
  let a = { Pdm.disk = 0; block = 0 } in
  let img = block_of t [ 5 ] in
  Pdm.write_one t a img;
  img.(0) <- Some 42;
  Alcotest.(check (option int)) "snapshot semantics" (Some 5)
    (Pdm.read_one t a).(0)

(* --- I/O accounting --- *)

let ios t = Stats.parallel_ios (Stats.snapshot (Pdm.stats t))

let test_one_block_one_io () =
  let t : int Pdm.t = mk () in
  ignore (Pdm.read_one t { disk = 0; block = 0 });
  check "1 I/O" 1 (ios t)

let test_parallel_read_costs_one () =
  let t : int Pdm.t = mk ~disks:4 () in
  ignore
    (Pdm.read t (Array.init 4 (fun d -> { Pdm.disk = d; block = d })));
  check "4 disks, 1 round" 1 (ios t)

let test_same_disk_costs_per_block () =
  let t : int Pdm.t = mk ~disks:4 () in
  ignore
    (Pdm.read t
       [| { disk = 2; block = 0 }; { disk = 2; block = 1 };
         { disk = 2; block = 2 } |]);
  check "3 blocks on one disk = 3 rounds" 3 (ios t)

let test_mixed_request_max_per_disk () =
  let t : int Pdm.t = mk ~disks:4 () in
  ignore
    (Pdm.read t
       [| { disk = 0; block = 0 }; { disk = 0; block = 1 };
         { disk = 1; block = 0 }; { disk = 2; block = 0 } |]);
  check "max per disk = 2" 2 (ios t)

let test_duplicates_coalesced () =
  let t : int Pdm.t = mk () in
  ignore
    (Pdm.read t [| { disk = 0; block = 0 }; { disk = 0; block = 0 } |]);
  check "duplicate read once" 1 (ios t);
  let s = Stats.snapshot (Pdm.stats t) in
  check "one block transferred" 1 s.Stats.block_reads

let test_disk_head_model () =
  let t : int Pdm.t = mk ~model:Pdm.Parallel_heads ~disks:4 () in
  (* 4 blocks on ONE disk still cost a single round with 4 heads. *)
  ignore
    (Pdm.read t (Array.init 4 (fun b -> { Pdm.disk = 0; block = b })));
  check "heads: 1 round" 1 (ios t);
  ignore
    (Pdm.read t (Array.init 5 (fun b -> { Pdm.disk = 0; block = b + 4 })));
  check "heads: ceil(5/4) = 2 more" 3 (ios t)

let test_write_accounting () =
  let t = mk ~disks:3 () in
  Pdm.write t
    (List.init 3 (fun d -> ({ Pdm.disk = d; block = 0 }, block_of t [ d ])));
  let s = Stats.snapshot (Pdm.stats t) in
  check "1 write round" 1 s.Stats.parallel_writes;
  check "3 blocks written" 3 s.Stats.block_writes;
  check "no reads" 0 s.Stats.parallel_reads

let test_rounds_for () =
  let t : int Pdm.t = mk ~disks:4 () in
  check "empty" 0 (Pdm.rounds_for t []);
  check "spread" 1
    (Pdm.rounds_for t [ { disk = 0; block = 0 }; { disk = 1; block = 5 } ]);
  check "clash" 2
    (Pdm.rounds_for t [ { disk = 0; block = 0 }; { disk = 0; block = 5 } ]);
  check "no I/O charged" 0 (ios t)

let test_measure () =
  let t : int Pdm.t = mk () in
  let (), cost =
    Stats.measure (Pdm.stats t) (fun () ->
        ignore (Pdm.read_one t { disk = 0; block = 0 }))
  in
  check "measured" 1 (Stats.parallel_ios cost);
  let (), cost2 = Stats.measure (Pdm.stats t) (fun () -> ()) in
  check "nothing measured" 0 (Stats.parallel_ios cost2)

let test_peek_poke_uncounted () =
  let t = mk () in
  Pdm.poke t { disk = 0; block = 0 } (block_of t [ 7 ]);
  let b = Pdm.peek t { disk = 0; block = 0 } in
  Alcotest.(check (option int)) "poked" (Some 7) b.(0);
  check "no I/O" 0 (ios t)

let test_bounds_checked () =
  let t : int Pdm.t = mk ~disks:2 ~blocks:4 () in
  Alcotest.check_raises "disk range" (Invalid_argument "Pdm: disk out of range")
    (fun () -> ignore (Pdm.read_one t { disk = 2; block = 0 }));
  Alcotest.check_raises "block range"
    (Invalid_argument "Pdm: block out of range") (fun () ->
      ignore (Pdm.read_one t { disk = 0; block = 4 }))

let test_wrong_block_length_rejected () =
  let t : int Pdm.t = mk () in
  Alcotest.check_raises "length" (Invalid_argument "Pdm.write: block has wrong length")
    (fun () -> Pdm.write_one t { disk = 0; block = 0 } [| Some 1 |])

let test_duplicate_write_rejected () =
  let t = mk () in
  Alcotest.check_raises "dup"
    (Invalid_argument "Pdm.write: duplicate address in one request")
    (fun () ->
      Pdm.write t
        [ ({ disk = 0; block = 0 }, block_of t [ 1 ]);
          ({ disk = 0; block = 0 }, block_of t [ 2 ]) ])

let test_allocated_blocks () =
  let t = mk () in
  check "nothing yet" 0 (Pdm.allocated_blocks t);
  Pdm.write_one t { disk = 0; block = 0 } (block_of t [ 1 ]);
  Pdm.write_one t { disk = 1; block = 1 } (block_of t [ 2 ]);
  Pdm.write_one t { disk = 0; block = 0 } (block_of t [ 3 ]);
  check "two distinct" 2 (Pdm.allocated_blocks t);
  check "capacity" (4 * 16 * 8) (Pdm.capacity_items t)

(* --- striping --- *)

let test_striping_roundtrip () =
  let t = mk ~disks:4 ~block_size:4 () in
  let s = Striping.create t in
  check "superblock size" 16 (Striping.superblock_size s);
  let sb = Array.init 16 (fun i -> if i mod 3 = 0 then Some i else None) in
  Striping.write s 5 sb;
  let back = Striping.read s 5 in
  Alcotest.(check (array (option int))) "roundtrip" sb back

let test_striping_costs_one_io () =
  let t : int Pdm.t = mk ~disks:4 ~block_size:4 () in
  let s = Striping.create t in
  ignore (Striping.read s 3);
  check "read = 1" 1 (ios t);
  Striping.write s 3 (Array.make 16 None);
  check "write adds 1" 2 (ios t)

let test_striping_slot_mapping () =
  (* Slot i·B + j of a superblock must live on disk i. *)
  let t = mk ~disks:3 ~block_size:2 () in
  let s = Striping.create t in
  let sb = Array.make 6 None in
  sb.(4) <- Some 99;
  (* slot 4 = disk 2, offset 0 *)
  Striping.write s 0 sb;
  let b = Pdm.peek t { disk = 2; block = 0 } in
  Alcotest.(check (option int)) "on disk 2" (Some 99) b.(0)

(* --- internal memory --- *)

let test_memory_accounting () =
  let m = Internal_memory.create ~capacity_words:100 in
  Internal_memory.alloc m ~words:60;
  Internal_memory.alloc m ~words:40;
  check "in use" 100 (Internal_memory.in_use m);
  Internal_memory.free m ~words:50;
  check "after free" 50 (Internal_memory.in_use m);
  check "peak" 100 (Internal_memory.peak m)

let test_memory_overflow () =
  let m = Internal_memory.create ~capacity_words:10 in
  Internal_memory.alloc m ~words:10;
  checkb "over capacity raises" true
    (try
       Internal_memory.alloc m ~words:1;
       false
     with Invalid_argument _ -> true)

let test_memory_unbounded () =
  let m = Internal_memory.unbounded () in
  Internal_memory.alloc m ~words:1_000_000;
  check "tracks peak" 1_000_000 (Internal_memory.peak m);
  Alcotest.(check (option int)) "no capacity" None (Internal_memory.capacity m)

let suite =
  let tc = Alcotest.test_case in
  [ ("pdm.storage",
     [ tc "read empty" `Quick test_read_empty;
       tc "write then read" `Quick test_write_then_read;
       tc "read returns copy" `Quick test_read_returns_copy;
       tc "write stores copy" `Quick test_write_stores_copy;
       tc "bounds checked" `Quick test_bounds_checked;
       tc "wrong block length" `Quick test_wrong_block_length_rejected;
       tc "duplicate write rejected" `Quick test_duplicate_write_rejected;
       tc "allocated blocks" `Quick test_allocated_blocks;
       tc "peek/poke uncounted" `Quick test_peek_poke_uncounted ]);
    ("pdm.accounting",
     [ tc "one block one I/O" `Quick test_one_block_one_io;
       tc "parallel read costs one" `Quick test_parallel_read_costs_one;
       tc "same disk costs per block" `Quick test_same_disk_costs_per_block;
       tc "mixed request" `Quick test_mixed_request_max_per_disk;
       tc "duplicates coalesced" `Quick test_duplicates_coalesced;
       tc "disk head model" `Quick test_disk_head_model;
       tc "write accounting" `Quick test_write_accounting;
       tc "rounds_for is free" `Quick test_rounds_for;
       tc "measure" `Quick test_measure ]);
    ("pdm.striping",
     [ tc "roundtrip" `Quick test_striping_roundtrip;
       tc "costs one I/O" `Quick test_striping_costs_one_io;
       tc "slot mapping" `Quick test_striping_slot_mapping ]);
    ("pdm.memory",
     [ tc "accounting" `Quick test_memory_accounting;
       tc "overflow" `Quick test_memory_overflow;
       tc "unbounded" `Quick test_memory_unbounded ]) ]

(* --- persistence: a fresh machine over the same disk files --- *)

module Store = Pdm_io.Store

let file_machine ~dir ~disks ~block_size ~blocks =
  Pdm.create ~factory:(Store.factory (Store.spec ~dir Store.File)) ~disks
    ~block_size ~blocks_per_disk:blocks ()

let test_save_load_roundtrip () =
  Store.with_dir (fun dir ->
      let t = file_machine ~dir ~disks:3 ~block_size:4 ~blocks:8 in
      Pdm.write_one t { disk = 1; block = 2 } (block_of t [ 7; 8 ]);
      Pdm.write_one t { disk = 2; block = 5 } (block_of t [ 9 ]);
      Pdm.barrier t;
      let t' : int Pdm.t = file_machine ~dir ~disks:3 ~block_size:4 ~blocks:8 in
      check "allocated counted from the disks" 2 (Pdm.allocated_blocks t');
      Alcotest.(check (option int)) "contents" (Some 8)
        (Pdm.read_one t' { disk = 1; block = 2 }).(1);
      check "counters start at the one read" 1 (ios t'))

let test_save_load_dictionary_survives () =
  (* End-to-end: a dictionary recovered by a second machine over the
     first one's disk files. *)
  let module Basic = Pdm_dictionary.Basic_dict in
  let cfg =
    Basic.plan ~universe:(1 lsl 16) ~capacity:100 ~block_words:32 ~degree:4
      ~value_bytes:8 ~seed:3 ()
  in
  let open_machine dir =
    file_machine ~dir ~disks:4 ~block_size:32
      ~blocks:(Basic.blocks_per_disk cfg)
  in
  Store.with_dir (fun dir ->
      let m1 = open_machine dir in
      let d1 = Basic.create ~machine:m1 ~disk_offset:0 ~block_offset:0 cfg in
      for k = 0 to 99 do
        Basic.insert d1 k (Bytes.of_string (Printf.sprintf "%08d" k))
      done;
      Pdm.barrier m1;
      let d2 =
        Basic.recover ~machine:(open_machine dir) ~disk_offset:0
          ~block_offset:0 cfg
      in
      check "size recovered across processes" 100 (Basic.size d2);
      for k = 0 to 99 do
        Alcotest.(check (option string)) "value"
          (Some (Printf.sprintf "%08d" k))
          (Option.map Bytes.to_string (Basic.find d2 k))
      done)

let suite =
  suite
  @ [ ("pdm.persistence",
       [ Alcotest.test_case "save/load roundtrip" `Quick
           test_save_load_roundtrip;
         Alcotest.test_case "dictionary survives" `Quick
           test_save_load_dictionary_survives ]) ]

(* --- property tests on the cost model (appended) --- *)

let addr_gen ~disks ~blocks =
  QCheck.Gen.(
    map2 (fun d b -> { Pdm.disk = d; block = b }) (int_bound (disks - 1))
      (int_bound (blocks - 1)))

let addrs_arbitrary =
  QCheck.make
    ~print:(fun l ->
      String.concat ","
        (List.map (fun (a : Pdm.addr) -> Printf.sprintf "%d:%d" a.disk a.block) l))
    QCheck.Gen.(list_size (int_range 0 20) (addr_gen ~disks:4 ~blocks:8))

let prop_rounds_is_max_per_disk =
  QCheck.Test.make ~name:"rounds = max distinct blocks per disk" ~count:300
    addrs_arbitrary
    (fun addrs ->
      let t : int Pdm.t = mk ~disks:4 ~blocks:8 () in
      let distinct = List.sort_uniq compare addrs in
      let per_disk = Array.make 4 0 in
      List.iter
        (fun (a : Pdm.addr) -> per_disk.(a.disk) <- per_disk.(a.disk) + 1)
        distinct;
      Pdm.rounds_for t addrs = Array.fold_left max 0 per_disk)

let prop_read_charges_rounds_for =
  QCheck.Test.make ~name:"read charges exactly rounds_for" ~count:200
    addrs_arbitrary
    (fun addrs ->
      let t : int Pdm.t = mk ~disks:4 ~blocks:8 () in
      let expected = Pdm.rounds_for t addrs in
      Stats.reset (Pdm.stats t);
      ignore (Pdm.read t (Array.of_list addrs));
      ios t = expected)

let prop_head_model_rounds =
  QCheck.Test.make ~name:"head model rounds = ceil(blocks/D)" ~count:200
    addrs_arbitrary
    (fun addrs ->
      let t : int Pdm.t = mk ~model:Pdm.Parallel_heads ~disks:4 ~blocks:8 () in
      let distinct = List.length (List.sort_uniq compare addrs) in
      Pdm.rounds_for t addrs = (distinct + 3) / 4)

let prop_write_read_roundtrip =
  QCheck.Test.make ~name:"write/read roundtrip arbitrary blocks" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 8) (pair (int_bound 7) (int_bound 255)))
    (fun writes ->
      let t : int Pdm.t = mk ~disks:2 ~block_size:4 ~blocks:8 () in
      (* Last write to each block wins. *)
      let model = Hashtbl.create 8 in
      List.iter
        (fun (b, v) ->
          let addr = { Pdm.disk = b mod 2; block = b / 2 } in
          let block = block_of t [ v ] in
          Pdm.write_one t addr block;
          Hashtbl.replace model addr v)
        writes;
      Hashtbl.fold
        (fun addr v acc -> acc && (Pdm.read_one t addr).(0) = Some v)
        model true)

let suite =
  suite
  @ [ ("pdm.properties",
       [ QCheck_alcotest.to_alcotest prop_rounds_is_max_per_disk;
         QCheck_alcotest.to_alcotest prop_read_charges_rounds_for;
         QCheck_alcotest.to_alcotest prop_head_model_rounds;
         QCheck_alcotest.to_alcotest prop_write_read_roundtrip ]) ]

(* --- LRU cache (appended) --- *)

let test_cache_hits_are_free () =
  let t : int Pdm.t = mk ~disks:2 () in
  let c = Cache.create t ~capacity_blocks:4 in
  let a = { Pdm.disk = 0; block = 1 } in
  ignore (Cache.read c [| a |]);
  check "first read misses" 1 (ios t);
  ignore (Cache.read c [| a |]);
  ignore (Cache.read c [| a |]);
  check "repeats are free" 1 (ios t);
  check "hits counted" 2 (Cache.hits c);
  check "misses counted" 1 (Cache.misses c)

let test_cache_lru_eviction () =
  let t : int Pdm.t = mk ~disks:2 ~blocks:16 () in
  let c = Cache.create t ~capacity_blocks:2 in
  let a0 = { Pdm.disk = 0; block = 0 } in
  let a1 = { Pdm.disk = 0; block = 1 } in
  let a2 = { Pdm.disk = 0; block = 2 } in
  ignore (Cache.read c [| a0 |]);
  ignore (Cache.read c [| a1 |]);
  ignore (Cache.read c [| a0 |]);
  (* a1 is least recent; reading a2 must evict it. *)
  ignore (Cache.read c [| a2 |]);
  Stats.reset (Pdm.stats t);
  ignore (Cache.read c [| a0 |]);
  check "a0 still cached" 0 (ios t);
  ignore (Cache.read c [| a1 |]);
  check "a1 was evicted" 1 (ios t)

let test_cache_batch_larger_than_capacity () =
  let t : int Pdm.t = mk ~disks:4 ~blocks:16 () in
  let c = Cache.create t ~capacity_blocks:2 in
  let addrs = Array.init 8 (fun i -> { Pdm.disk = i mod 4; block = i / 4 }) in
  let got = Cache.read c addrs in
  check "all blocks returned" 8 (Array.length got);
  checkb "residency capped" true (Cache.resident c <= 2)

let test_cache_replication_invisible () =
  (* A cache smaller than a batch keeps the blocks fetched last, so the
     order [Pdm.read] answers in decides what stays resident. The order
     must not depend on replication: the same read sequence charges the
     same I/Os on an r = 1 and an r = 2 machine. *)
  let a i = { Pdm.disk = i mod 4; block = i / 4 } in
  let run replicas =
    let t : int Pdm.t =
      Pdm.create ~replicas ~disks:4 ~block_size:8 ~blocks_per_disk:16 ()
    in
    let c = Cache.create t ~capacity_blocks:2 in
    List.iter
      (fun batch -> ignore (Cache.read c (Array.map a batch)))
      [ [| 0; 1; 2 |]; [| 0 |]; [| 3; 4; 5; 6 |]; [| 4 |]; [| 6 |]; [| 1; 2 |] ];
    ios t
  in
  check "r = 1 and r = 2 charge alike" (run 1) (run 2)

(* Answer i is block addrs.(i), hit or miss, and a repeated address
   counts once. *)
let test_cache_answers_in_positions () =
  let t : int Pdm.t = mk ~disks:4 ~blocks:16 () in
  let c = Cache.create t ~capacity_blocks:2 in
  let a d b = { Pdm.disk = d; block = b } in
  let addrs = [| a 1 2; a 0 5; a 1 2; a 3 0; a 0 5 |] in
  Array.iter
    (fun (x : Pdm.addr) -> Pdm.poke t x (block_of t [ x.disk; x.block ]))
    addrs;
  let check_answers what =
    let got = Cache.read c addrs in
    Array.iteri
      (fun i (x : Pdm.addr) ->
        Alcotest.(check (array (option int))) what
          (block_of t [ x.disk; x.block ]) got.(i))
      addrs
  in
  check_answers "all misses";
  check "three distinct misses" 3 (Cache.misses c);
  check "one round" 1 (ios t);
  (* the cache keeps two of the three blocks *)
  check_answers "hits and a miss";
  check "two hits" 2 (Cache.hits c);
  check "one more miss" 4 (Cache.misses c)

let suite =
  suite
  @ [ ("pdm.cache",
       [ Alcotest.test_case "hits are free" `Quick test_cache_hits_are_free;
         Alcotest.test_case "LRU eviction" `Quick test_cache_lru_eviction;
         Alcotest.test_case "batch larger than capacity" `Quick
           test_cache_batch_larger_than_capacity;
         Alcotest.test_case "replication does not change eviction" `Quick
           test_cache_replication_invisible;
         Alcotest.test_case "answers in positions" `Quick
           test_cache_answers_in_positions ]) ]

(* --- cost-model properties with a trace attached (appended) ---

   [rounds_for] must equal the rounds [read] actually charges in both
   machine models, with or without a trace recording every round, and
   duplicate addresses must coalesce identically either way. *)

let prop_head_read_charges_rounds_for =
  QCheck.Test.make ~name:"head model: read charges exactly rounds_for"
    ~count:200 addrs_arbitrary
    (fun addrs ->
      let t : int Pdm.t = mk ~model:Pdm.Parallel_heads ~disks:4 ~blocks:8 () in
      let expected = Pdm.rounds_for t addrs in
      ignore (Pdm.read t (Array.of_list addrs));
      ios t = expected)

(* Each block holds its own address, so an answer names the block it
   came from. Uncounted: the machine's stats and trace stay empty. *)
let poke_own_addresses t addrs =
  List.iter
    (fun (a : Pdm.addr) -> Pdm.poke t a (block_of t [ a.disk; a.block ]))
    addrs

let scheduled_read_matches model addrs =
  let t : int Pdm.t =
    Pdm.create ?model ~trace:(Trace.create ()) ~disks:4 ~block_size:8
      ~blocks_per_disk:8 ()
  in
  poke_own_addresses t addrs;
  let expected = Pdm.rounds_for t addrs in
  let addrs = Array.of_list addrs in
  let result = Pdm.read t addrs in
  (* Scheduler charges exactly the closed form when disks are healthy,
     the trace saw one event per round, answer i is block addrs.(i),
     and two positions share one copy exactly when they name one
     address. *)
  let n = Array.length addrs in
  let positions = List.init n Fun.id in
  let shared i j = (addrs.(i) = addrs.(j)) = (result.(i) == result.(j)) in
  ios t = expected
  && Trace.recorded (Option.get (Pdm.trace t)) = expected
  && Array.length result = n
  && Array.for_all2
       (fun (a : Pdm.addr) b -> b = block_of t [ a.disk; a.block ])
       addrs result
  && List.for_all (fun i -> List.for_all (shared i) positions) positions

let prop_scheduled_read_charges_rounds_for =
  QCheck.Test.make
    ~name:"scheduler path (independent): read charges exactly rounds_for"
    ~count:200 addrs_arbitrary
    (fun addrs -> scheduled_read_matches None addrs)

let prop_scheduled_head_read_charges_rounds_for =
  QCheck.Test.make
    ~name:"scheduler path (heads): read charges exactly rounds_for" ~count:200
    addrs_arbitrary
    (fun addrs -> scheduled_read_matches (Some Pdm.Parallel_heads) addrs)

let prop_duplicates_coalesce =
  QCheck.Test.make ~name:"duplicated request list costs the same" ~count:200
    addrs_arbitrary
    (fun addrs ->
      let read traced addrs =
        let t : int Pdm.t =
          if traced then
            Pdm.create ~trace:(Trace.create ()) ~disks:4 ~block_size:8
              ~blocks_per_disk:8 ()
          else mk ~disks:4 ~blocks:8 ()
        in
        poke_own_addresses t addrs;
        let blocks = Pdm.read t (Array.of_list addrs) in
        (ios t, blocks)
      in
      let n = List.length addrs in
      List.for_all
        (fun traced ->
          let cost, _ = read traced addrs in
          let doubled_cost, blocks = read traced (addrs @ addrs) in
          doubled_cost = cost
          && List.for_all
               (fun i -> blocks.(i) = blocks.(i + n))
               (List.init n Fun.id))
        [ false; true ])

let suite =
  suite
  @ [ ("pdm.properties_scheduler",
       [ QCheck_alcotest.to_alcotest prop_head_read_charges_rounds_for;
         QCheck_alcotest.to_alcotest prop_scheduled_read_charges_rounds_for;
         QCheck_alcotest.to_alcotest prop_scheduled_head_read_charges_rounds_for;
         QCheck_alcotest.to_alcotest prop_duplicates_coalesce ]) ]
