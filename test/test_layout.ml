(* Positional decoding where an offset can go wrong: multi-block
   buckets, fields spread over several disk groups, combined fetches
   that lay several sub-dictionaries' plans side by side, a rebuild
   caught mid-migration, and the cascade's second fetch. Each structure
   is checked against a model for present, absent and deleted keys. *)

open Pdm_sim
module Basic = Pdm_dictionary.Basic_dict
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
    Bytes.init 13 (fun j -> Char.chr ((k + (7 * i) + (3 * j)) land 0xff))
  in
  let masked b =
    (* bits past field_bits read back as zero *)
    let b = Bytes.copy b in
    Bytes.set b 12 (Char.chr (Char.code (Bytes.get b 12) land 0xf0));
    Bytes.to_string b
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
    Alcotest.(check (option string))
      (Printf.sprintf "neighbor %d" i)
      (if i mod 2 = 1 then None else Some (masked (content k i)))
      (Option.map Bytes.to_string (Field_store.neighbor_field fs images ~off k i))
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

let suite =
  [ ("dictionary.layout",
     [ tc "basic: multi-block buckets" `Quick test_basic_multi_block_buckets;
       tc "field store: fields over two groups" `Quick test_field_store_groups;
       tc "one-probe static: fields over groups" `Quick
         test_one_probe_static_groups;
       tc "parallel instances: combined fetch" `Quick
         test_parallel_instances_combined;
       tc "global rebuild: mid-migration" `Quick test_rebuild_mid_migration;
       tc "cascade: the second fetch" `Quick test_cascade_second_fetch ]) ]
