module Pdm = Pdm_sim.Pdm

type config = {
  instances : int;
  universe : int;
  capacity : int;
  degree : int;
  value_bytes : int;
  block_words : int;
  seed : int;
}

type t = {
  cfg : config;
  machine : int Pdm.t;
  members : Basic_dict.t array;
}

let create cfg =
  if cfg.instances < 1 then
    invalid_arg "Parallel_instances.create: instances >= 1";
  let per_instance =
    (cfg.capacity / cfg.instances) + cfg.capacity (* slack: routing is
      by batch position, so one instance may take more than its share *)
  in
  let plan i =
    Basic_dict.plan ~universe:cfg.universe ~capacity:per_instance
      ~block_words:cfg.block_words ~degree:cfg.degree
      ~value_bytes:cfg.value_bytes ~seed:(cfg.seed + i) ()
  in
  let plans = Array.init cfg.instances plan in
  let blocks_per_disk =
    Array.fold_left
      (fun acc p -> max acc (Basic_dict.blocks_per_disk p))
      1 plans
  in
  let machine =
    Pdm.create ~disks:(cfg.instances * cfg.degree)
      ~block_size:cfg.block_words ~blocks_per_disk ()
  in
  let members =
    Array.mapi
      (fun i p ->
        Basic_dict.create ~machine ~disk_offset:(i * cfg.degree)
          ~block_offset:0 p)
      plans
  in
  { cfg; machine; members }

let machine t = t.machine
let config t = t.cfg

let size t =
  Array.fold_left (fun acc d -> acc + Basic_dict.size d) 0 t.members

(* One combined read round: every member's candidate buckets, each on
   its own disk group, so a single parallel I/O. *)
let fetch_all_members t key =
  Basic_dict.read_plans (Array.map (fun d -> (d, key)) t.members)

(* Which instance holds the key, given a combined fetch. *)
let locate t key (blocks, offs) =
  let rec loop i =
    if i >= Array.length t.members then None
    else
      match Basic_dict.find_in t.members.(i) key blocks ~off:offs.(i) with
      | Some v -> Some (i, v)
      | None -> loop (i + 1)
  in
  loop 0

let find t key = Option.map snd (locate t key (fetch_all_members t key))

let mem t key = find t key <> None

let insert_batch t entries =
  let c = t.cfg.instances in
  if List.length entries > c then
    invalid_arg "Parallel_instances.insert_batch: batch exceeds instances";
  let keys = List.map fst entries in
  if List.length (List.sort_uniq compare keys) <> List.length keys then
    invalid_arg "Parallel_instances.insert_batch: duplicate keys in batch";
  (* One combined read round: batch key j's candidate buckets in
     instance j. *)
  let blocks, offs =
    Basic_dict.read_plans (Array.of_list (List.mapi (fun j k -> (t.members.(j), k)) keys))
  in
  (* One combined write round: each instance modifies one block. *)
  let writes =
    List.mapi
      (fun j (k, v) ->
        Basic_dict.prepare_insert t.members.(j) k v blocks ~off:offs.(j))
      entries
  in
  if writes <> [] then Pdm.write t.machine writes

let insert t key value =
  (* Single inserts are duplicate-safe: the combined read sees every
     instance, so an existing copy is updated wherever it lives. *)
  let blocks, offs = fetch_all_members t key in
  let into i = Basic_dict.prepare_insert t.members.(i) key value blocks ~off:offs.(i) in
  match locate t key (blocks, offs) with
  | Some (i, _) -> Pdm.write t.machine [ into i ]
  | None ->
    (* Place into the least-loaded instance (by size). *)
    let best = ref 0 in
    Array.iteri
      (fun i d ->
        if Basic_dict.size d < Basic_dict.size t.members.(!best) then best := i)
      t.members;
    Pdm.write t.machine [ into !best ]

let delete t key =
  match locate t key (fetch_all_members t key) with
  | None -> false
  | Some (i, _) -> Basic_dict.delete t.members.(i) key
