module Pdm = Pdm_sim.Pdm
module Stats = Pdm_sim.Stats
module Basic = Pdm_dictionary.Basic_dict
module Fragmented = Pdm_dictionary.Fragmented
module Store = Pdm_io.Store

type config = {
  max_files : int;
  max_blocks : int;
  blocks_per_file : int;
  payload_bytes : int;
  block_words : int;
  disks_per_dict : int;
  seed : int;
}

let default_config =
  { max_files = 1024; max_blocks = 16_384; blocks_per_file = 256;
    payload_bytes = 256; block_words = 64; disks_per_dict = 8; seed = 1 }

type handle = { inode : int; name_key : int; mutable length : int }

type t = {
  cfg : config;
  names : Basic.t;           (* name key -> (inode, length) *)
  blocks : Fragmented.t;     (* inode * blocks_per_file + idx -> payload *)
  names_machine : int Pdm.t;
  blocks_machine : int Pdm.t;
  mutable next_inode : int;
  mutable live_blocks : int;
}

exception Fs_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Fs_error m)) fmt

(* File names of up to 7 bytes pack directly into a dictionary key —
   the paper's point that the name needs no separate inode translation
   structure. *)
let name_universe = 1 lsl 56

let key_of_name name =
  let len = String.length name in
  if len = 0 then fail "empty file name";
  if len > 7 then fail "file name %S too long (max 7 bytes)" name;
  let k = ref 0 in
  String.iter (fun c -> k := (!k lsl 8) lor Char.code c) name;
  !k

let meta_bytes = 16

let encode_meta ~inode ~length =
  let b = Bytes.create meta_bytes in
  Bytes.set_int64_be b 0 (Int64.of_int inode);
  Bytes.set_int64_be b 8 (Int64.of_int length);
  b

let decode_meta b =
  (Int64.to_int (Bytes.get_int64_be b 0), Int64.to_int (Bytes.get_int64_be b 8))

let names_plan cfg =
  Basic.plan ~universe:name_universe ~capacity:cfg.max_files
    ~block_words:cfg.block_words ~degree:cfg.disks_per_dict
    ~value_bytes:meta_bytes ~seed:cfg.seed ()

(* The block store carries whole file blocks — near the device's
   bandwidth limit — so it uses the fragmented k = d/2 dictionary:
   each payload is split across the d disks and still loads in one
   parallel I/O (the paper's bandwidth machinery, built for exactly
   this use). *)
let blocks_plan cfg =
  Fragmented.plan ~strategy:(`Average 2.5)
    ~universe:(cfg.max_files * cfg.blocks_per_file)
    ~capacity:cfg.max_blocks ~block_words:cfg.block_words
    ~degree:cfg.disks_per_dict ~sigma_bits:(8 * cfg.payload_bytes)
    ~seed:(cfg.seed + 1) ()

(* [factory] = [None]: memory disks. *)
let machine cfg factory ~blocks_per_disk =
  Pdm.create ?factory ~disks:cfg.disks_per_dict ~block_size:cfg.block_words
    ~blocks_per_disk ()

let format cfg =
  if cfg.max_files < 1 || cfg.max_blocks < 1 || cfg.blocks_per_file < 1 then
    invalid_arg "Mini_fs.format: sizes";
  let names_cfg = names_plan cfg and blocks_cfg = blocks_plan cfg in
  let names_machine =
    machine cfg None ~blocks_per_disk:(Basic.blocks_per_disk names_cfg)
  in
  let blocks_machine =
    machine cfg None ~blocks_per_disk:(Fragmented.blocks_per_disk blocks_cfg)
  in
  { cfg;
    names =
      Basic.create ~machine:names_machine ~disk_offset:0 ~block_offset:0
        names_cfg;
    blocks =
      Fragmented.create ~machine:blocks_machine ~disk_offset:0 ~block_offset:0
        blocks_cfg;
    names_machine; blocks_machine; next_inode = 0; live_blocks = 0 }

let machines t = [ t.names_machine; t.blocks_machine ]

let io_total t =
  List.fold_left
    (fun acc m -> acc + Stats.parallel_ios (Stats.snapshot (Pdm.stats m)))
    0 (machines t)

let file_count t = Basic.size t.names

let block_key t h idx = (h.inode * t.cfg.blocks_per_file) + idx

let handle_inode h = h.inode

let handle_length h = h.length

let create t name =
  let key = key_of_name name in
  if Basic.mem t.names key then fail "file %S exists" name;
  if Basic.size t.names >= t.cfg.max_files then fail "volume full (files)";
  let inode = t.next_inode in
  t.next_inode <- inode + 1;
  Basic.insert t.names key (encode_meta ~inode ~length:0);
  { inode; name_key = key; length = 0 }

let open_file t name =
  let key = key_of_name name in
  match Basic.find t.names key with
  | None -> None
  | Some meta ->
    let inode, length = decode_meta meta in
    Some { inode; name_key = key; length }

let write_block t h idx data =
  if Bytes.length data > t.cfg.payload_bytes then fail "payload too large";
  if idx < 0 || idx > h.length then
    fail "write at block %d would leave a hole (length %d)" idx h.length;
  if idx >= t.cfg.blocks_per_file then fail "file length limit reached";
  let appending = idx = h.length in
  if appending && t.live_blocks >= t.cfg.max_blocks then
    fail "volume full (blocks)";
  (* Short writes are padded to the block payload size, as on a real
     block device; reads return the whole padded block. *)
  let padded = Bytes.make t.cfg.payload_bytes '\000' in
  Bytes.blit data 0 padded 0 (Bytes.length data);
  Fragmented.insert t.blocks (block_key t h idx) padded;
  if appending then begin
    h.length <- h.length + 1;
    t.live_blocks <- t.live_blocks + 1;
    (* Persist the new length under the handle's name key. *)
    Basic.insert t.names h.name_key
      (encode_meta ~inode:h.inode ~length:h.length)
  end

let read_block t h idx =
  if idx < 0 || idx >= h.length then None
  else Fragmented.find t.blocks (block_key t h idx)

let append t h data =
  let idx = h.length in
  write_block t h idx data;
  idx

let delete t name =
  let key = key_of_name name in
  match Basic.find t.names key with
  | None -> false
  | Some meta ->
    let inode, length = decode_meta meta in
    let h = { inode; name_key = key; length } in
    for idx = 0 to length - 1 do
      ignore (Fragmented.delete t.blocks (block_key t h idx))
    done;
    t.live_blocks <- t.live_blocks - length;
    ignore (Basic.delete t.names key);
    true

let rename t ~old_name ~new_name =
  let old_key = key_of_name old_name in
  let new_key = key_of_name new_name in
  (match Basic.find t.names new_key with
   | Some _ -> fail "target %S exists" new_name
   | None -> ());
  match Basic.find t.names old_key with
  | None -> fail "no such file %S" old_name
  | Some meta ->
    Basic.insert t.names new_key meta;
    ignore (Basic.delete t.names old_key)

let stat t name =
  match Basic.find t.names (key_of_name name) with
  | None -> None
  | Some meta -> Some (snd (decode_meta meta))

let files t =
  List.filter_map
    (fun (key, meta) ->
      let rec unpack k acc =
        if k = 0 then acc else unpack (k lsr 8) (String.make 1 (Char.chr (k land 0xff)) ^ acc)
      in
      let name = unpack key "" in
      Some (name, snd (decode_meta meta)))
    (Basic.entries t.names)

(* --- persistence ---

   A saved volume is a directory with one subdirectory of disk files
   per machine (the file backend's format). Nothing else is stored:
   reopening recovers both dictionaries from their disks, and the
   allocator state follows from the name table. *)

let names_dir dir = Filename.concat dir "names"
let blocks_dir dir = Filename.concat dir "blocks"

let file_disks dir = Some (Store.factory (Store.spec ~dir Store.File))

let save t dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o700;
  List.iter2
    (fun sub m ->
      (* a fresh image: blocks of an older save must not survive *)
      Store.cleanup_dir sub;
      let copy =
        machine t.cfg (file_disks sub) ~blocks_per_disk:(Pdm.blocks_per_disk m)
      in
      let blocks = ref [] in
      Pdm.iter_allocated m (fun a payload -> blocks := (a, payload) :: !blocks);
      Pdm.write copy !blocks;
      Pdm.barrier copy)
    [ names_dir dir; blocks_dir dir ] (machines t)

let load cfg dir =
  if not (Sys.file_exists (names_dir dir) && Sys.file_exists (blocks_dir dir))
  then fail "no saved volume in %S" dir;
  let names_cfg = names_plan cfg and blocks_cfg = blocks_plan cfg in
  let names_machine =
    machine cfg (file_disks (names_dir dir))
      ~blocks_per_disk:(Basic.blocks_per_disk names_cfg)
  in
  let blocks_machine =
    machine cfg (file_disks (blocks_dir dir))
      ~blocks_per_disk:(Fragmented.blocks_per_disk blocks_cfg)
  in
  let names =
    Basic.recover ~machine:names_machine ~disk_offset:0 ~block_offset:0
      names_cfg
  in
  let metas =
    List.map (fun (_, meta) -> decode_meta meta) (Basic.entries names)
  in
  { cfg; names;
    blocks =
      Fragmented.recover ~machine:blocks_machine ~disk_offset:0
        ~block_offset:0 blocks_cfg;
    names_machine; blocks_machine;
    next_inode = List.fold_left (fun n (inode, _) -> max n (inode + 1)) 0 metas;
    live_blocks = List.fold_left (fun n (_, length) -> n + length) 0 metas }
