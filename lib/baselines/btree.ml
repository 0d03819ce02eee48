module Pdm = Pdm_sim.Pdm
module Striping = Pdm_sim.Striping
module Codec = Pdm_dictionary.Codec

type config = {
  universe : int;
  value_bytes : int;
  cache_levels : int;
  superblocks : int;
}

(* Node layout, in superblock words:
     [0] kind (1 = leaf, 0 = internal)
     [1] entry count m
     [2] leaf: next-leaf index + 1 (0 = none); internal: unused
     leaf entry e:      a Codec.Record (key, value words) at
                        3 + e·width
     internal:          children at 3+2i, separator keys at 3+2i+1;
                        m keys, m+1 children. *)
type t = {
  cfg : config;
  view : int Striping.t;
  width : int;                 (* words per leaf entry *)
  leaf_cap : int;              (* max entries per leaf *)
  int_cap : int;               (* max keys per internal node *)
  mutable root : int;
  mutable height : int;
  mutable next_free : int;
  mutable size : int;
}

let header = 3

let create ~machine cfg =
  let view = Striping.create machine in
  if cfg.superblocks > Striping.superblocks view then
    invalid_arg "Btree.create: machine too small";
  let sb = Striping.superblock_size view in
  let width = Codec.Record.width ~value_bytes:cfg.value_bytes in
  (* One spare entry per node: splits insert first and divide after,
     so a node must briefly hold capacity + 1 entries. *)
  let leaf_cap = ((sb - header) / width) - 1 in
  let int_cap = (sb - header - 3) / 2 in
  if leaf_cap < 2 || int_cap < 2 then
    invalid_arg "Btree.create: superblock too small for a node";
  let t =
    { cfg; view; width; leaf_cap; int_cap; root = 0; height = 1;
      next_free = 1; size = 0 }
  in
  (* Empty root leaf. *)
  let node = Array.make sb None in
  node.(0) <- Some 1;
  node.(1) <- Some 0;
  node.(2) <- Some 0;
  Striping.write view 0 node;
  t

let config t = t.cfg
let size t = t.size
let height t = t.height
let nodes t = t.next_free

let alloc t =
  if t.next_free >= t.cfg.superblocks then
    invalid_arg "Btree: node arena exhausted";
  let n = t.next_free in
  t.next_free <- n + 1;
  n

let get_w node i =
  match node.(i) with
  | Some w -> w
  | None -> invalid_arg "Btree: corrupt node"

let is_leaf node = get_w node 0 = 1
let count node = get_w node 1

(* Reads of the top [cache_levels] levels simulate an internal-memory
   cache: they use peek (uncounted). Writes are always counted. *)
let read_node t ~depth idx =
  if depth < t.cfg.cache_levels then begin
    let machine = Striping.machine t.view in
    let b = Pdm.block_size machine and d = Pdm.disks machine in
    let out = Array.make (b * d) None in
    for disk = 0 to d - 1 do
      Array.blit (Pdm.peek machine { Pdm.disk; block = idx }) 0 out (disk * b) b
    done;
    out
  end
  else Striping.read t.view idx

(* --- leaf entry accessors --- *)

let entry_base t e = header + (e * t.width)

let leaf_key node t e = get_w node (entry_base t e)

let leaf_value node t e =
  let base = entry_base t e in
  Codec.Record.value ~value_bytes:t.cfg.value_bytes
    (Array.init t.width (fun i -> get_w node (base + i)))

let leaf_set t node e record =
  let base = entry_base t e in
  Array.iteri (fun i w -> node.(base + i) <- Some w) record

(* Move entries [from, from + n) of [src] to start at entry [dst_e] of
   [dst], whole records at a time (the ranges may overlap). *)
let move_entries t src ~from dst ~dst_e n =
  Array.blit src (entry_base t from) dst (entry_base t dst_e) (n * t.width)

let leaf_blank t node e =
  let base = entry_base t e in
  for i = 0 to t.width - 1 do
    node.(base + i) <- None
  done

(* --- internal entry accessors --- *)

let child node i = get_w node (header + (2 * i))
let sep_key node i = get_w node (header + (2 * i) + 1)

let set_child node i c = node.(header + (2 * i)) <- Some c
let set_sep node i k = node.(header + (2 * i) + 1) <- Some k

(* Index of the child to follow for [key]: first separator > key. *)
let child_index node key =
  let m = count node in
  let rec loop i = if i >= m then m else if key < sep_key node i then i else loop (i + 1) in
  loop 0

(* Position of key (or insertion point) in a leaf. *)
let leaf_position t node key =
  let m = count node in
  let rec loop e =
    if e >= m then (e, false)
    else
      let k = leaf_key node t e in
      if k = key then (e, true) else if k > key then (e, false) else loop (e + 1)
  in
  loop 0

let peek_node t idx =
  let machine = Striping.machine t.view in
  let b = Pdm.block_size machine and d = Pdm.disks machine in
  let out = Array.make (b * d) None in
  for disk = 0 to d - 1 do
    Array.blit (Pdm.peek machine { Pdm.disk; block = idx }) 0 out (disk * b) b
  done;
  out

let path t key =
  let rec descend idx acc =
    let node = peek_node t idx in
    if is_leaf node then List.rev (idx :: acc)
    else descend (child node (child_index node key)) (idx :: acc)
  in
  descend t.root []

let find t key =
  let rec descend idx depth =
    let node = read_node t ~depth idx in
    if is_leaf node then
      let e, found = leaf_position t node key in
      if found then Some (leaf_value node t e) else None
    else descend (child node (child_index node key)) (depth + 1)
  in
  descend t.root 0

let mem t key = find t key <> None

(* Insert [record] into the subtree at [idx]; on split return
   (separator, new right sibling index). *)
let rec insert_at t idx depth record =
  let key = record.(0) in
  let node = read_node t ~depth idx in
  if is_leaf node then begin
    let e, found = leaf_position t node key in
    let m = count node in
    if found then begin
      leaf_set t node e record;
      Striping.write t.view idx node;
      None
    end
    else begin
      (* Shift entries right and place. *)
      move_entries t node ~from:e node ~dst_e:(e + 1) (m - e);
      leaf_set t node e record;
      node.(1) <- Some (m + 1);
      t.size <- t.size + 1;
      if m + 1 <= t.leaf_cap then begin
        Striping.write t.view idx node;
        None
      end
      else begin
        (* Split the leaf. *)
        let total = m + 1 in
        let left_n = total / 2 in
        let right_idx = alloc t in
        let sb = Striping.superblock_size t.view in
        let right = Array.make sb None in
        right.(0) <- Some 1;
        right.(1) <- Some (total - left_n);
        right.(2) <- node.(2);
        move_entries t node ~from:left_n right ~dst_e:0 (total - left_n);
        for j = left_n to total - 1 do
          leaf_blank t node j
        done;
        node.(1) <- Some left_n;
        node.(2) <- Some (right_idx + 1);
        Striping.write t.view idx node;
        Striping.write t.view right_idx right;
        Some (leaf_key right t 0, right_idx)
      end
    end
  end
  else begin
    let ci = child_index node key in
    match insert_at t (child node ci) (depth + 1) record with
    | None -> None
    | Some (sep, right_child) ->
      let m = count node in
      (* Shift separators/children right of position ci. *)
      for j = m - 1 downto ci do
        set_sep node (j + 1) (sep_key node j);
        set_child node (j + 2) (child node (j + 1))
      done;
      set_sep node ci sep;
      set_child node (ci + 1) right_child;
      node.(1) <- Some (m + 1);
      if m + 1 <= t.int_cap then begin
        Striping.write t.view idx node;
        None
      end
      else begin
        (* Split the internal node: middle key moves up. *)
        let total = m + 1 in
        let mid = total / 2 in
        let up = sep_key node mid in
        let right_idx = alloc t in
        let sb = Striping.superblock_size t.view in
        let right = Array.make sb None in
        right.(0) <- Some 0;
        right.(1) <- Some (total - mid - 1);
        right.(2) <- Some 0;
        for j = mid + 1 to total - 1 do
          set_sep right (j - mid - 1) (sep_key node j)
        done;
        for j = mid + 1 to total do
          set_child right (j - mid - 1) (child node j)
        done;
        (* Truncate the left node. *)
        for j = mid to total - 1 do
          node.(header + (2 * j) + 1) <- None
        done;
        for j = mid + 1 to total do
          node.(header + (2 * j)) <- None
        done;
        node.(1) <- Some mid;
        Striping.write t.view idx node;
        Striping.write t.view right_idx right;
        Some (up, right_idx)
      end
  end

let insert t key value =
  if key < 0 || key >= t.cfg.universe then invalid_arg "Btree: key range";
  let record =
    Codec.Record.make ~who:"Btree" ~value_bytes:t.cfg.value_bytes key value
  in
  match insert_at t t.root 0 record with
  | None -> ()
  | Some (sep, right_idx) ->
    let new_root = alloc t in
    let sb = Striping.superblock_size t.view in
    let node = Array.make sb None in
    node.(0) <- Some 0;
    node.(1) <- Some 1;
    node.(2) <- Some 0;
    set_child node 0 t.root;
    set_sep node 0 sep;
    set_child node 1 right_idx;
    Striping.write t.view new_root node;
    t.root <- new_root;
    t.height <- t.height + 1

let delete t key =
  let rec descend idx depth =
    let node = read_node t ~depth idx in
    if is_leaf node then begin
      let e, found = leaf_position t node key in
      if not found then false
      else begin
        let m = count node in
        move_entries t node ~from:(e + 1) node ~dst_e:e (m - 1 - e);
        leaf_blank t node (m - 1);
        node.(1) <- Some (m - 1);
        Striping.write t.view idx node;
        t.size <- t.size - 1;
        true
      end
    end
    else descend (child node (child_index node key)) (depth + 1)
  in
  descend t.root 0

let range t ~lo ~hi =
  (* Descend to the leaf containing lo, then walk the chain. *)
  let rec descend idx depth =
    let node = read_node t ~depth idx in
    if is_leaf node then (idx, node) else descend (child node (child_index node lo)) (depth + 1)
  in
  let _, first = descend t.root 0 in
  let out = ref [] in
  let rec walk node =
    let m = count node in
    let past = ref false in
    for e = 0 to m - 1 do
      let k = leaf_key node t e in
      if k > hi then past := true
      else if k >= lo then out := (k, leaf_value node t e) :: !out
    done;
    if not !past then
      match get_w node 2 with
      | 0 -> ()
      | next -> walk (Striping.read t.view (next - 1))
  in
  walk first;
  List.rev !out
