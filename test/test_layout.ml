(* Positional decoding where an offset can go wrong: multi-block
   buckets, fields spread over several disk groups, combined fetches
   that lay several sub-dictionaries' plans side by side, a rebuild
   caught mid-migration, and the cascade's second fetch. Each structure
   is checked against a model for present, absent and deleted keys. *)

open Pdm_sim
module Basic = Pdm_dictionary.Basic_dict
module Small = Pdm_dictionary.Small_block_dict
module Head = Pdm_dictionary.Head_model_dict
module Field_store = Pdm_dictionary.Field_store
module Ops = Pdm_dictionary.One_probe_static
module Par = Pdm_dictionary.Parallel_instances
module Rebuild = Pdm_dictionary.Global_rebuild
module Cascade = Pdm_dictionary.Dynamic_cascade
module Engine = Pdm_engine.Engine
module Plans = Pdm_engine.Plans
module Seeded = Pdm_expander.Seeded
module Prng = Pdm_util.Prng
module Sampling = Pdm_util.Sampling

let tc = Alcotest.test_case
let checkb = Alcotest.(check bool)
let universe = 1 lsl 22

let value k = Bytes.of_string (Printf.sprintf "%08d" (k mod 100_000_000))

(* Keys inserted, then a third of them deleted, then some never
   inserted: [find] must answer the model for all three kinds. *)
type model = {
  live : (int, Bytes.t) Hashtbl.t;
  deleted : int array;
  absent : int array;
}

let model_of ~seed ~count ~insert ~delete =
  let members, absent =
    Sampling.disjoint_pair (Prng.create seed) ~universe ~count
  in
  let live = Hashtbl.create count in
  Array.iter
    (fun k ->
      insert k (value k);
      Hashtbl.replace live k (value k))
    members;
  let deleted = Array.sub members 0 (count / 3) in
  Array.iter
    (fun k ->
      checkb "a present key is deleted" true (delete k);
      Hashtbl.remove live k)
    deleted;
  { live; deleted; absent = Array.sub absent 0 (count / 3) }

let check_model what find m =
  let show = Option.map Bytes.to_string in
  Hashtbl.iter
    (fun k v ->
      Alcotest.(check (option string))
        (Printf.sprintf "%s: present %d" what k)
        (Some (Bytes.to_string v)) (show (find k)))
    m.live;
  Array.iter
    (fun k ->
      Alcotest.(check (option string))
        (Printf.sprintf "%s: deleted %d" what k) None (show (find k)))
    m.deleted;
  Array.iter
    (fun k ->
      Alcotest.(check (option string))
        (Printf.sprintf "%s: absent %d" what k) None (show (find k)))
    m.absent

(* A key's plan read at an offset: after another key's plan, as a
   composite structure lays out its combined fetch. *)
let read_after machine ~plan_blocks ~fill other key =
  let n = plan_blocks in
  let addrs = Array.make (2 * n) { Pdm.disk = 0; block = 0 } in
  fill other addrs ~off:0;
  fill key addrs ~off:n;
  (* the two plans may share blocks, which the read coalesces *)
  (Pdm.read machine addrs, n)

let test_basic_multi_block_buckets () =
  let bucket_blocks = 3 in
  let cfg =
    Basic.plan ~universe ~capacity:150 ~block_words:8 ~degree:6 ~value_bytes:8
      ~bucket_blocks ~seed:4 ()
  in
  let machine =
    Pdm.create ~disks:6 ~block_size:8 ~blocks_per_disk:(Basic.blocks_per_disk cfg)
      ()
  in
  let d = Basic.create ~machine ~disk_offset:0 ~block_offset:0 cfg in
  Alcotest.(check int) "plan length" (6 * bucket_blocks) (Basic.plan_blocks d);
  let m =
    model_of ~seed:1 ~count:150 ~insert:(Basic.insert d) ~delete:(Basic.delete d)
  in
  check_model "find" (Basic.find d) m;
  check_model "find_in at an offset"
    (fun k ->
      let blocks, off =
        read_after machine ~plan_blocks:(Basic.plan_blocks d)
          ~fill:(Basic.fill_addresses d) ((k + 1) mod universe) k
      in
      Basic.find_in d k blocks ~off)
    m;
  (* multi-block buckets fill past their first block *)
  checkb "a record beyond a bucket's first block" true
    (Hashtbl.fold
       (fun k _ acc ->
         acc
         ||
         let addrs = Basic.addresses d k in
         let rec go j =
           j < Array.length addrs
           && (j mod bucket_blocks > 0
               && Pdm_dictionary.Codec.Slots.find_key (Pdm.peek machine addrs.(j))
                    ~width:(Basic.record_width d) ~key:k
                  <> None
               || go (j + 1))
         in
         go 0)
       m.live false)

(* Fields of four words on two-word blocks: each field spans two disk
   groups, so neighbor i's blocks sit at [off + 2i] and [off + 2i + 1]. *)
let test_field_store_groups () =
  let d = 6 and block_words = 2 and field_bits = 100 in
  let graph = Seeded.striped ~seed:3 ~u:universe ~v:(d * 40) ~d in
  let machine =
    Pdm.create ~disks:(d * 2) ~block_size:block_words ~blocks_per_disk:40 ()
  in
  let fs =
    Field_store.create ~machine ~disk_offset:0 ~block_offset:0 ~graph
      ~field_bits
  in
  Alcotest.(check int) "two groups" 2 (Field_store.groups fs);
  let content k i =
    Pdm_dictionary.Codec.words_of_bytes
      (Bytes.init 13 (fun j -> Char.chr ((k + (7 * i) + (3 * j)) land 0xff)))
  in
  let masked w =
    (* bits past field_bits read back as zero *)
    let w = Array.copy w in
    w.(3) <- w.(3) land 0xf000_0000;
    w
  in
  let keys = Sampling.distinct (Prng.create 8) ~universe ~count:12 in
  let plan = Field_store.plan_blocks fs in
  let read k =
    read_after machine ~plan_blocks:plan ~fill:(Field_store.fill_addresses fs)
      ((k + 1) mod universe) k
  in
  (* write every neighbor field of each key, then clear the odd ones *)
  Array.iter
    (fun k ->
      let images, off = read k in
      Pdm.write machine
        (Field_store.prepare_updates fs k ~images ~off
           (List.init d (fun i -> (i, Some (content k i)))));
      let images, off = read k in
      Pdm.write machine
        (Field_store.prepare_updates fs k ~images ~off
           (List.filter_map
              (fun i -> if i mod 2 = 1 then Some (i, None) else None)
              (List.init d Fun.id))))
    keys;
  (* a later key's fields may overwrite an earlier key's shared ones,
     so only the last key's fields are checked in full *)
  let k = keys.(Array.length keys - 1) in
  let images, off = read k in
  for i = 0 to d - 1 do
    Alcotest.(check (option (array int)))
      (Printf.sprintf "neighbor %d" i)
      (if i mod 2 = 1 then None else Some (masked (content k i)))
      (Pdm_dictionary.Field_codec.field ~field_bits
         (Field_store.view fs images ~off k) i)
  done

let test_one_probe_static_groups () =
  let cfg =
    { Ops.universe; capacity = 120; degree = 9; sigma_bits = 1024; v_factor = 3;
      case = Ops.Case_b; seed = 19 }
  in
  let members, absent =
    Sampling.disjoint_pair (Prng.create 6) ~universe ~count:120
  in
  let sat k = Bytes.init 128 (fun i -> Char.chr ((k + i) land 0xff)) in
  let t = Ops.build ~block_words:4 cfg (Array.map (fun k -> (k, sat k)) members) in
  checkb "fields span several groups" true
    (Array.length (Ops.probe_addresses t members.(0)) > cfg.Ops.degree);
  let live = Hashtbl.create 120 in
  Array.iter (fun k -> Hashtbl.replace live k (sat k)) members;
  check_model "find" (Ops.find t)
    { live; deleted = [||]; absent = Array.sub absent 0 40 };
  let eng = Engine.create (Plans.one_probe_static t) in
  check_model "engine"
    (fun k ->
      match Engine.run eng [ Engine.Lookup k ] with
      | [ Ok o ] -> o.Engine.value
      | _ -> Alcotest.fail "engine lookup failed")
    { live; deleted = [||]; absent = Array.sub absent 0 40 }

let test_parallel_instances_combined () =
  let t =
    Par.create
      { Par.instances = 3; universe; capacity = 300; degree = 6; value_bytes = 8;
        block_words = 64; seed = 7 }
  in
  let batch = ref [] in
  let insert k v =
    batch := (k, v) :: !batch;
    if List.length !batch = 3 then begin
      Par.insert_batch t (List.rev !batch);
      batch := []
    end
  in
  let m = model_of ~seed:2 ~count:240 ~insert ~delete:(fun k ->
      (* a key still waiting in the partial batch goes in first *)
      if !batch <> [] then begin
        List.iter (fun (k, v) -> Par.insert t k v) !batch;
        batch := []
      end;
      Par.delete t k)
  in
  check_model "find" (Par.find t) m

let test_rebuild_mid_migration () =
  let t =
    Rebuild.create
      { Rebuild.universe; degree = 8; value_bytes = 8; block_words = 64;
        initial_capacity = 32; max_capacity = 4096; transfer_per_op = 1;
        seed = 21 }
  in
  let members, absent =
    Sampling.disjoint_pair (Prng.create 3) ~universe ~count:200
  in
  let live = Hashtbl.create 200 and deleted = ref [] and checks = ref 0 in
  let check_now () =
    if Rebuild.rebuilding t then begin
      incr checks;
      check_model "mid-migration" (Rebuild.find t)
        { live; deleted = Array.of_list !deleted; absent = Array.sub absent 0 20 }
    end
  in
  Array.iteri
    (fun i k ->
      Rebuild.insert t k (value k);
      Hashtbl.replace live k (value k);
      if i mod 5 = 4 then begin
        let gone = members.(i - 2) in
        checkb "delete" true (Rebuild.delete t gone);
        Hashtbl.remove live gone;
        deleted := gone :: !deleted
      end;
      if i mod 23 = 0 then check_now ())
    members;
  checkb "checked while migrating" true (!checks >= 2);
  check_model "after" (Rebuild.find t)
    { live; deleted = Array.of_list !deleted; absent = Array.sub absent 0 20 }

let test_cascade_second_fetch () =
  let t =
    Cascade.create ~block_words:64
      { Cascade.universe; capacity = 400; degree = 13; sigma_bits = 256;
        epsilon = 1.0; v_factor = 2; seed = 11 }
  in
  let sat k = Bytes.init 32 (fun i -> Char.chr ((k + (3 * i)) land 0xff)) in
  let members, absent =
    Sampling.disjoint_pair (Prng.create 4) ~universe ~count:400
  in
  Array.iter (fun k -> Cascade.insert t k (sat k)) members;
  let deep k = match Cascade.level_of t k with Some l -> l >= 2 | None -> false in
  checkb "some keys live at level 2 or deeper" true (Array.exists deep members);
  (* delete a third, deep keys among them *)
  let deleted = Array.of_list (List.filteri (fun i _ -> i mod 3 = 0) (Array.to_list members)) in
  checkb "a deep key is deleted" true (Array.exists deep deleted);
  Array.iter (fun k -> checkb "delete" true (Cascade.delete t k)) deleted;
  let live = Hashtbl.create 400 in
  Array.iter
    (fun k -> if not (Array.mem k deleted) then Hashtbl.replace live k (sat k))
    members;
  checkb "a deep key stays" true
    (Hashtbl.fold (fun k _ acc -> acc || deep k) live false);
  let m = { live; deleted; absent = Array.sub absent 0 100 } in
  check_model "find" (Cascade.find t) m;
  (* the engine decodes level >= 2 from a second fetch, level 1 from
     the first one's blocks after the membership buckets *)
  let eng =
    Engine.create
      ~config:{ Engine.max_batch = 64; deadline_rounds = 4; cache_blocks = 0 }
      (Plans.cascade t)
  in
  let keys =
    Hashtbl.fold (fun k _ acc -> k :: acc) live []
    @ Array.to_list deleted @ Array.to_list m.absent
  in
  let answers = Hashtbl.create 400 in
  List.iter2
    (fun k r ->
      match r with
      | Ok o -> Hashtbl.replace answers k o.Engine.value
      | Error e -> Alcotest.failf "engine: %s" (Printexc.to_string e))
    keys
    (Engine.run eng (List.map (fun k -> Engine.Lookup k) keys));
  check_model "engine" (Hashtbl.find answers) m

(* --- one greedy bucket placement ---

   The candidate-bucket dictionaries share one placement rule: find
   takes the first match in plan order, insert updates in place or
   takes the first free slot of the least-loaded candidate bucket,
   delete clears the slot or writes a tombstone. A seeded mix of
   inserts, overwrites and deletes runs on each layout, checked against
   a map after every operation; at the end every stored block and the
   I/O counters must match the figures recorded before the placement
   code was shared, so a change in any decision shows here. *)

module Int_map = Map.Make (Int)

type bucket_dict = {
  machine : int Pdm.t;
  capacity : int;
  value_bytes : int;
  keeps_tombstones : bool;   (* a deleted record's slot is never reused *)
  find : int -> Bytes.t option;
  insert : int -> Bytes.t -> unit;
  delete : int -> bool;
  size : unit -> int;
}

(* Every stored block, disk-major, as one digest. *)
let block_digest machine =
  let buf = Buffer.create 4096 in
  for disk = 0 to Pdm.disks machine - 1 do
    for block = 0 to Pdm.blocks_per_disk machine - 1 do
      Array.iter
        (function
          | None -> Buffer.add_char buf '.'
          | Some w -> Buffer.add_string buf (string_of_int w ^ ","))
        (Pdm.peek machine { Pdm.disk; block });
      Buffer.add_char buf '|'
    done
  done;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* Rounds/blocks read and written, then blocks per disk. *)
let stats_lines machine =
  let s = Stats.snapshot (Pdm.stats machine) in
  let ints a = String.concat " " (Array.to_list (Array.map string_of_int a)) in
  [ Printf.sprintf "reads %d/%d writes %d/%d" s.Stats.parallel_reads
      s.Stats.block_reads s.Stats.parallel_writes s.Stats.block_writes;
    "disk reads " ^ ints s.Stats.disk_reads;
    "disk writes " ^ ints s.Stats.disk_writes ]

let run_mix ~seed ~ops d =
  let rng = Prng.create seed in
  let pool = Sampling.distinct rng ~universe ~count:(d.capacity * 3 / 2) in
  (* Values of every length up to the limit; a record holds them
     zero-padded. *)
  let value i =
    let len = d.value_bytes - (i mod 3) in
    ( Bytes.init len (fun j -> Char.chr (((i * 31) + (j * 7)) land 0xff)),
      Bytes.init d.value_bytes (fun j ->
          if j < len then Char.chr (((i * 31) + (j * 7)) land 0xff)
          else '\000') )
  in
  let model = ref Int_map.empty and placed = ref 0 in
  let show = Option.map Bytes.to_string in
  for i = 1 to ops do
    let key = pool.(Prng.int rng (Array.length pool)) in
    if Prng.int rng 10 < 6 then begin
      let fresh = not (Int_map.mem key !model) in
      let full =
        Int_map.cardinal !model >= d.capacity
        || (d.keeps_tombstones && !placed >= d.capacity)
      in
      if not (fresh && full) then begin
        let v, stored = value i in
        d.insert key v;
        if fresh then incr placed;
        model := Int_map.add key stored !model
      end
    end
    else begin
      checkb
        (Printf.sprintf "op %d: delete %d answers presence" i key)
        (Int_map.mem key !model) (d.delete key);
      model := Int_map.remove key !model
    end;
    Alcotest.(check (option string))
      (Printf.sprintf "op %d: find %d" i key)
      (show (Int_map.find_opt key !model))
      (show (d.find key));
    Alcotest.(check int) (Printf.sprintf "op %d: size" i)
      (Int_map.cardinal !model) (d.size ())
  done;
  Array.iter
    (fun k ->
      Alcotest.(check (option string))
        (Printf.sprintf "final: find %d" k)
        (show (Int_map.find_opt k !model))
        (show (d.find k)))
    pool

let check_mix ~seed ~ops ~digest ~stats d =
  run_mix ~seed ~ops d;
  Alcotest.(check string) "stored blocks" digest (block_digest d.machine);
  Alcotest.(check (list string)) "stats" stats (stats_lines d.machine)

let basic_dict ?(bucket_blocks = 1) ?(tombstone = false) ~block_words ~degree
    ~capacity ~value_bytes () =
  let cfg =
    Basic.plan ~universe ~capacity ~block_words ~degree ~value_bytes
      ~bucket_blocks ~tombstone ~seed:5 ()
  in
  let machine =
    Pdm.create ~disks:degree ~block_size:block_words
      ~blocks_per_disk:(Basic.blocks_per_disk cfg) ()
  in
  let t = Basic.create ~machine ~disk_offset:0 ~block_offset:0 cfg in
  { machine; capacity; value_bytes; keeps_tombstones = tombstone;
    find = Basic.find t; insert = Basic.insert t; delete = Basic.delete t;
    size = (fun () -> Basic.size t) }

let small_dict ~block_words ~capacity ~value_bytes =
  let cfg =
    Small.plan ~universe ~capacity ~block_words ~degree:8 ~value_bytes ~seed:6
      ()
  in
  let machine =
    Pdm.create ~disks:8 ~block_size:block_words
      ~blocks_per_disk:(Small.blocks_per_disk cfg) ()
  in
  let t = Small.create ~machine ~disk_offset:0 ~block_offset:0 cfg in
  { machine; capacity; value_bytes; keeps_tombstones = false;
    find = Small.find t; insert = Small.insert t; delete = Small.delete t;
    size = (fun () -> Small.size t) }

let test_bucket_basic_one_block () =
  check_mix ~seed:11 ~ops:900
    ~digest:"a3562ff7c062083e4e111991b8d9f403"
    ~stats:
      [ "reads 2250/18000 writes 647/647";
        "disk reads 2250 2250 2250 2250 2250 2250 2250 2250";
        "disk writes 98 103 90 67 78 80 68 63" ]
    (basic_dict ~block_words:32 ~degree:8 ~capacity:300 ~value_bytes:8 ())

let test_bucket_basic_tombstones () =
  check_mix ~seed:12 ~ops:450
    ~digest:"935c4c39c0dfce20ab647c7fa16f7e9b"
    ~stats:
      [ "reads 4364/26184 writes 297/297";
        "disk reads 4364 4364 4364 4364 4364 4364";
        "disk writes 54 52 58 49 42 42" ]
    (basic_dict ~bucket_blocks:4 ~tombstone:true ~block_words:8 ~degree:6
       ~capacity:150 ~value_bytes:8 ())

let test_bucket_small_tiny_b () =
  check_mix ~seed:13 ~ops:900
    ~digest:"036b6e48f06710f8100d8091c77d60a4"
    ~stats:
      [ "reads 4500/36000 writes 665/665";
        "disk reads 4500 4500 4500 4500 4500 4500 4500 4500";
        "disk writes 213 172 140 101 38 1 0 0" ]
    (small_dict ~block_words:6 ~capacity:300 ~value_bytes:8)

let test_bucket_small_large_b () =
  check_mix ~seed:14 ~ops:900
    ~digest:"ca1b7f8f2b76e8dbfde714e202ed348c"
    ~stats:
      [ "reads 4500/36000 writes 654/654";
        "disk reads 4500 4500 4500 4500 4500 4500 4500 4500";
        "disk writes 96 96 99 101 75 67 63 57" ]
    (small_dict ~block_words:64 ~capacity:300 ~value_bytes:20)

(* An unstriped graph can name one bucket twice in a key's plan. *)
let test_bucket_head_unstriped () =
  let d = 8 and v = 512 in
  let graph = Seeded.unstriped ~seed:9 ~u:universe ~v ~d in
  let machine =
    Pdm.create ~model:Pdm.Parallel_heads ~disks:d ~block_size:64
      ~blocks_per_disk:(v / d) ()
  in
  let t = Head.create ~machine ~graph ~capacity:300 ~value_bytes:8 in
  check_mix ~seed:15 ~ops:900
    ~digest:"873630cd688afa8d86614fe4c3a27b3b"
    ~stats:
      [ "reads 2250/17855 writes 663/663";
        "disk reads 2241 2290 2088 2128 2204 2354 2206 2344";
        "disk writes 88 61 81 81 81 77 92 102" ]
    { machine; capacity = 300; value_bytes = 8; keeps_tombstones = false;
      find = Head.find t; insert = Head.insert t; delete = Head.delete t;
      size = (fun () -> Head.size t) }

(* Buckets of one one-slot block overflow within a few inserts; each
   dictionary raises the one Overflow, naming the key, before counting
   it. *)
let overflows what ~insert ~size =
  let rec go key =
    if key > 64 then Alcotest.failf "%s: no overflow" what
    else
      let before = size () in
      match insert key (Bytes.of_string "v") with
      | () -> go (key + 1)
      | exception Basic.Overflow k ->
        Alcotest.(check int) (what ^ ": the payload is the key") key k;
        Alcotest.(check int) (what ^ ": size unchanged") before (size ())
  in
  go 1

let test_bucket_one_overflow () =
  let machine ?model ~disks ~blocks_per_disk () =
    Pdm.create ?model ~disks ~block_size:3 ~blocks_per_disk ()
  in
  let basic =
    Basic.create
      ~machine:(machine ~disks:2 ~blocks_per_disk:2 ())
      ~disk_offset:0 ~block_offset:0
      { Basic.universe; capacity = 100; degree = 2; buckets_per_stripe = 2;
        value_bytes = 8; bucket_blocks = 1; tombstone = false; seed = 1 }
  in
  overflows "basic" ~insert:(Basic.insert basic) ~size:(fun () ->
      Basic.size basic);
  let small =
    Small.create
      ~machine:(machine ~disks:2 ~blocks_per_disk:4 ())
      ~disk_offset:0 ~block_offset:0
      { Small.universe; capacity = 100; degree = 2; buckets_per_stripe = 1;
        sub_blocks = 4; value_bytes = 8; seed = 1 }
  in
  overflows "small-block" ~insert:(Small.insert small) ~size:(fun () ->
      Small.size small);
  let head =
    Head.create
      ~machine:
        (machine ~model:Pdm.Parallel_heads ~disks:2 ~blocks_per_disk:2 ())
      ~graph:(Seeded.unstriped ~seed:1 ~u:universe ~v:4 ~d:2)
      ~capacity:100 ~value_bytes:8
  in
  overflows "head model" ~insert:(Head.insert head) ~size:(fun () ->
      Head.size head)

let suite =
  [ ("dictionary.layout",
     [ tc "basic: multi-block buckets" `Quick test_basic_multi_block_buckets;
       tc "field store: fields over two groups" `Quick test_field_store_groups;
       tc "one-probe static: fields over groups" `Quick
         test_one_probe_static_groups;
       tc "parallel instances: combined fetch" `Quick
         test_parallel_instances_combined;
       tc "global rebuild: mid-migration" `Quick test_rebuild_mid_migration;
       tc "cascade: the second fetch" `Quick test_cascade_second_fetch ]);
    ("dictionary.bucket_layout",
     [ tc "basic: one-block buckets" `Quick test_bucket_basic_one_block;
       tc "basic: four-block buckets, tombstones" `Quick
         test_bucket_basic_tombstones;
       tc "small-block: B = 6" `Quick test_bucket_small_tiny_b;
       tc "small-block: B = 64" `Quick test_bucket_small_large_b;
       tc "head model: unstriped graph" `Quick test_bucket_head_unstriped;
       tc "one Overflow" `Quick test_bucket_one_overflow ]) ]
