(* Tests for the mini file system (§1.2 made concrete). *)

open Pdm_sim
module Fs = Pdm_fs.Mini_fs
module Prng = Pdm_util.Prng

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let small_config =
  { Fs.default_config with Fs.max_files = 64; max_blocks = 1024;
    blocks_per_file = 32; payload_bytes = 128 }

let block_of_string t s =
  ignore t;
  Bytes.of_string s

let padded expected got =
  (* Reads return whole padded blocks; compare the prefix. *)
  String.sub (Bytes.to_string got) 0 (String.length expected) = expected
  && Bytes.length got >= String.length expected

let test_create_write_read () =
  let t = Fs.format small_config in
  let h = Fs.create t "hello" in
  check "inode 0" 0 (Fs.handle_inode h);
  ignore (Fs.append t h (block_of_string t "block zero"));
  ignore (Fs.append t h (block_of_string t "block one"));
  check "length 2" 2 (Fs.handle_length h);
  (match Fs.read_block t h 0 with
   | Some b -> checkb "block 0" true (padded "block zero" b)
   | None -> Alcotest.fail "block 0 missing");
  (match Fs.read_block t h 1 with
   | Some b -> checkb "block 1" true (padded "block one" b)
   | None -> Alcotest.fail "block 1 missing");
  checkb "out of range" true (Fs.read_block t h 2 = None)

let test_open_refreshes_length () =
  let t = Fs.format small_config in
  let h = Fs.create t "f" in
  for i = 0 to 9 do
    ignore (Fs.append t h (block_of_string t (string_of_int i)))
  done;
  match Fs.open_file t "f" with
  | Some h' ->
    check "length persisted" 10 (Fs.handle_length h');
    checkb "content readable" true
      (padded "7" (Option.get (Fs.read_block t h' 7)))
  | None -> Alcotest.fail "file missing"

let test_random_read_is_one_io () =
  let t = Fs.format small_config in
  let h = Fs.create t "media" in
  for i = 0 to 31 do
    ignore (Fs.append t h (block_of_string t (Printf.sprintf "b%d" i)))
  done;
  let before = Fs.io_total t in
  let rng = Prng.create 5 in
  for _ = 1 to 100 do
    ignore (Fs.read_block t h (Prng.int rng 32))
  done;
  check "1 I/O per random block read" 100 (Fs.io_total t - before)

let test_overwrite_in_place () =
  let t = Fs.format small_config in
  let h = Fs.create t "w" in
  ignore (Fs.append t h (block_of_string t "old"));
  let before = Fs.io_total t in
  Fs.write_block t h 0 (block_of_string t "new");
  check "overwrite = 2 I/Os (no name-table touch)" 2 (Fs.io_total t - before);
  checkb "overwritten" true (padded "new" (Option.get (Fs.read_block t h 0)))

let test_hole_rejected () =
  let t = Fs.format small_config in
  let h = Fs.create t "h" in
  checkb "hole rejected" true
    (try
       Fs.write_block t h 3 (block_of_string t "x");
       false
     with Fs.Fs_error _ -> true)

let test_name_rules () =
  let t = Fs.format small_config in
  ignore (Fs.create t "a");
  checkb "duplicate name" true
    (try
       ignore (Fs.create t "a");
       false
     with Fs.Fs_error _ -> true);
  checkb "name too long" true
    (try
       ignore (Fs.create t "eightchr");
       false
     with Fs.Fs_error _ -> true);
  checkb "empty name" true
    (try
       ignore (Fs.create t "");
       false
     with Fs.Fs_error _ -> true)

let test_delete_frees_space () =
  let t = Fs.format small_config in
  let h = Fs.create t "tmp" in
  for i = 0 to 19 do
    ignore (Fs.append t h (block_of_string t (string_of_int i)))
  done;
  checkb "delete" true (Fs.delete t "tmp");
  checkb "gone" true (Fs.open_file t "tmp" = None);
  check "no files" 0 (Fs.file_count t);
  (* The freed blocks are reusable: fill a new file to the same size. *)
  let h2 = Fs.create t "tmp2" in
  for i = 0 to 19 do
    ignore (Fs.append t h2 (block_of_string t (string_of_int i)))
  done;
  check "refilled" 20 (Fs.handle_length h2)

let test_rename_leaves_data_in_place () =
  let t = Fs.format small_config in
  let h = Fs.create t "before" in
  ignore (Fs.append t h (block_of_string t "payload"));
  Fs.rename t ~old_name:"before" ~new_name:"after";
  checkb "old gone" true (Fs.open_file t "before" = None);
  (match Fs.open_file t "after" with
   | Some h' ->
     check "same inode (data untouched)" (Fs.handle_inode h)
       (Fs.handle_inode h');
     checkb "data readable" true
       (padded "payload" (Option.get (Fs.read_block t h' 0)))
   | None -> Alcotest.fail "renamed file missing");
  checkb "rename onto existing rejected" true
    (try
       ignore (Fs.create t "other");
       Fs.rename t ~old_name:"after" ~new_name:"other";
       false
     with Fs.Fs_error _ -> true)

let test_stat_and_files () =
  let t = Fs.format small_config in
  let a = Fs.create t "a" in
  ignore (Fs.append t a (block_of_string t "x"));
  ignore (Fs.append t a (block_of_string t "y"));
  ignore (Fs.create t "b");
  Alcotest.(check (option int)) "stat a" (Some 2) (Fs.stat t "a");
  Alcotest.(check (option int)) "stat b" (Some 0) (Fs.stat t "b");
  Alcotest.(check (option int)) "stat missing" None (Fs.stat t "zzz");
  let listing = List.sort compare (Fs.files t) in
  Alcotest.(check (list (pair string int))) "listing" [ ("a", 2); ("b", 0) ]
    listing

let test_many_files_survive () =
  let t = Fs.format small_config in
  for i = 0 to 49 do
    let h = Fs.create t (Printf.sprintf "f%02d" i) in
    for b = 0 to (i mod 5) do
      ignore (Fs.append t h (block_of_string t (Printf.sprintf "%d.%d" i b)))
    done
  done;
  check "files" 50 (Fs.file_count t);
  for i = 0 to 49 do
    let name = Printf.sprintf "f%02d" i in
    match Fs.open_file t name with
    | None -> Alcotest.failf "%s missing" name
    | Some h ->
      check (name ^ " length") ((i mod 5) + 1) (Fs.handle_length h);
      for b = 0 to i mod 5 do
        checkb "block content" true
          (padded
             (Printf.sprintf "%d.%d" i b)
             (Option.get (Fs.read_block t h b)))
      done
  done

let test_machines_and_stats () =
  let t = Fs.format small_config in
  check "two machines" 2 (List.length (Fs.machines t));
  List.iter
    (fun m -> checkb "stats live" true (Stats.parallel_ios (Stats.snapshot (Pdm.stats m)) >= 0))
    (Fs.machines t)

let suite =
  let tc = Alcotest.test_case in
  [ ("fs.mini",
     [ tc "create/write/read" `Quick test_create_write_read;
       tc "open refreshes length" `Quick test_open_refreshes_length;
       tc "random read = 1 I/O" `Quick test_random_read_is_one_io;
       tc "overwrite in place" `Quick test_overwrite_in_place;
       tc "holes rejected" `Quick test_hole_rejected;
       tc "name rules" `Quick test_name_rules;
       tc "delete frees space" `Quick test_delete_frees_space;
       tc "rename leaves data" `Quick test_rename_leaves_data_in_place;
       tc "stat and listing" `Quick test_stat_and_files;
       tc "many files" `Quick test_many_files_survive;
       tc "machines/stats" `Quick test_machines_and_stats ]) ]

(* --- persistence (appended) --- *)

let test_volume_save_load () =
  Pdm_io.Store.with_dir @@ fun dir ->
  let vol = Filename.concat dir "vol" in
  let t = Fs.format small_config in
  let h = Fs.create t "keepme" in
  for i = 0 to 9 do
    ignore (Fs.append t h (block_of_string t (Printf.sprintf "blk %d" i)))
  done;
  let gone = Fs.create t "gone" in
  ignore (Fs.append t gone (block_of_string t "stale"));
  Fs.save t vol;
  (* Saving again replaces the earlier image: the deleted file must not
     come back from it. *)
  checkb "delete" true (Fs.delete t "gone");
  ignore (Fs.create t "other");
  Fs.save t vol;
  let t' = Fs.load small_config vol in
  check "files survive" 2 (Fs.file_count t');
  checkb "deleted file stays deleted" true (Fs.open_file t' "gone" = None);
  (match Fs.open_file t' "keepme" with
   | Some h' ->
     check "length" 10 (Fs.handle_length h');
     for i = 0 to 9 do
       checkb "block content" true
         (padded (Printf.sprintf "blk %d" i)
            (Option.get (Fs.read_block t' h' i)))
     done
   | None -> Alcotest.fail "file lost");
  (* The reloaded volume accepts new work and fresh inodes do not
     collide with old ones. *)
  let h2 = Fs.create t' "newone" in
  checkb "fresh inode" true (Fs.handle_inode h2 > Fs.handle_inode h);
  ignore (Fs.append t' h2 (block_of_string t' "post-load"));
  checkb "writable after load" true
    (padded "post-load" (Option.get (Fs.read_block t' h2 0)));
  (* A loaded volume lives in its directory: a second load sees the
     new file. *)
  let t'' = Fs.load small_config vol in
  checkb "post-load write on disk" true
    (match Fs.open_file t'' "newone" with
     | Some h3 -> padded "post-load" (Option.get (Fs.read_block t'' h3 0))
     | None -> false);
  checkb "missing volume rejected" true
    (try
       ignore (Fs.load small_config (Filename.concat dir "none"));
       false
     with Fs.Fs_error _ -> true)

let suite =
  suite
  @ [ ("fs.persistence",
       [ Alcotest.test_case "save/load volume" `Quick test_volume_save_load ]) ]

(* --- resource limits (appended) --- *)

let test_volume_limits () =
  let tiny =
    { Fs.default_config with Fs.max_files = 2; max_blocks = 4;
      blocks_per_file = 3; payload_bytes = 64 }
  in
  let t = Fs.format tiny in
  ignore (Fs.create t "a");
  ignore (Fs.create t "b");
  checkb "file table full" true
    (try
       ignore (Fs.create t "c");
       false
     with Fs.Fs_error _ -> true);
  let h = Option.get (Fs.open_file t "a") in
  ignore (Fs.append t h (Bytes.of_string "1"));
  ignore (Fs.append t h (Bytes.of_string "2"));
  ignore (Fs.append t h (Bytes.of_string "3"));
  checkb "per-file length limit" true
    (try
       ignore (Fs.append t h (Bytes.of_string "4"));
       false
     with Fs.Fs_error _ -> true);
  let h2 = Option.get (Fs.open_file t "b") in
  ignore (Fs.append t h2 (Bytes.of_string "x"));
  checkb "volume block budget" true
    (try
       ignore (Fs.append t h2 (Bytes.of_string "y"));
       false
     with Fs.Fs_error _ -> true);
  (* Deleting releases budget. *)
  checkb "delete a" true (Fs.delete t "a");
  ignore (Fs.append t h2 (Bytes.of_string "y"));
  check "b grew after space freed" 2 (Fs.handle_length h2)

let suite =
  suite
  @ [ ("fs.limits",
       [ Alcotest.test_case "volume limits" `Quick test_volume_limits ]) ]
