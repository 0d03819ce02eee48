type 'a entry = { data : 'a option array; mutable stamp : int }

type 'a t = {
  pdm : 'a Pdm.t;
  capacity : int;
  table : (Pdm.addr, 'a entry) Hashtbl.t;
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
}

let create pdm ~capacity_blocks =
  if capacity_blocks < 1 then invalid_arg "Cache.create: capacity >= 1";
  let t =
    { pdm; capacity = capacity_blocks; table = Hashtbl.create 64; clock = 0;
      hits = 0; misses = 0 }
  in
  (* Coherence with every writer (journal replay, scrub repair, the
     dictionaries' updates): any write to the machine drops our copy. *)
  Pdm.add_write_listener pdm (fun addr -> Hashtbl.remove t.table addr);
  t

let hits t = t.hits
let misses t = t.misses
let resident t = Hashtbl.length t.table

(* pdm-lint: domain local — LRU stamps on the engine-owned cache, touched only from its round loop *)
let touch t e =
  t.clock <- t.clock + 1;
  e.stamp <- t.clock

(* pdm-lint: domain local — cache table owned by one engine; eviction runs in its round loop *)
let evict_to_capacity t =
  while Hashtbl.length t.table > t.capacity do
    let victim = ref None in
    Hashtbl.iter
      (fun addr e ->
        match !victim with
        | Some (_, s) when s <= e.stamp -> ()
        | Some _ | None -> victim := Some (addr, e.stamp))
      t.table;
    match !victim with
    | Some (addr, _) -> Hashtbl.remove t.table addr
    | None -> ()
  done

(* pdm-lint: domain local — cache table owned by one engine; inserts run in its round loop *)
let insert t addr data =
  let e = { data; stamp = 0 } in
  touch t e;
  Hashtbl.replace t.table addr e;
  evict_to_capacity t

(* Serve hits first (touching them), then fetch the misses in one
   machine request, both in address order over the distinct addresses:
   sorted by address, the positions naming one address are adjacent,
   and the first of them answers for the rest. A cache smaller than the
   batch may evict some just-fetched blocks immediately; the answers
   are taken from the fetch itself, so correctness does not depend on
   residency. *)
let read t addrs =
  let n = Array.length addrs in
  let order = Array.init n Fun.id in
  Array.stable_sort (fun i j -> compare addrs.(i) addrs.(j)) order;
  let repeat x = x > 0 && addrs.(order.(x)) = addrs.(order.(x - 1)) in
  let answers = Array.make n [||] and missing = ref [] in
  for x = 0 to n - 1 do
    let i = order.(x) in
    if not (repeat x) then
      match Hashtbl.find_opt t.table addrs.(i) with
      | Some e ->
        t.hits <- t.hits + 1;
        touch t e;
        answers.(i) <- Array.copy e.data
      | None ->
        t.misses <- t.misses + 1;
        missing := i :: !missing
  done;
  if !missing <> [] then begin
    let missing = Array.of_list (List.rev !missing) in
    let fetched = Pdm.read t.pdm (Array.map (fun i -> addrs.(i)) missing) in
    Array.iteri
      (fun k i ->
        insert t addrs.(i) (Array.copy fetched.(k));
        answers.(i) <- fetched.(k))
      missing
  end;
  for x = 1 to n - 1 do
    if repeat x then answers.(order.(x)) <- answers.(order.(x - 1))
  done;
  answers

(* pdm-lint: domain local — hit/miss counters on the engine-owned cache *)
let find_cached t addr =
  match Hashtbl.find_opt t.table addr with
  | Some e ->
    touch t e;
    t.hits <- t.hits + 1;
    Some (Array.copy e.data)
  | None ->
    t.misses <- t.misses + 1;
    None

let note_fetched t addr data = insert t addr (Array.copy data)
