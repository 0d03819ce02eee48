module Prng = Pdm_util.Prng

let score ~seed ~key (s : Topology.shard) =
  let best = ref 0 in
  for j = 0 to s.weight - 1 do
    let h = Prng.hash3 ~seed key s.id j in
    if h > !best then best := h
  done;
  !best

let rank topo ~seed key =
  let scored =
    List.map (fun s -> (score ~seed ~key s, s)) (Topology.shards topo)
  in
  List.map snd
    (List.sort
       (fun (sa, (a : Topology.shard)) (sb, b) ->
         if sa <> sb then compare sb sa else compare a.id b.id)
       scored)

(* Greedy selection under progressively relaxed domain constraints:
   racks, then hosts, then bare shard distinctness. Each pass walks
   the full ranking, so the primary (head of the ranking) is always
   chosen first and the result is a pure function of the ranking. *)
let replicas topo ~seed ~r key =
  if r < 1 then invalid_arg "Placement.replicas: r must be >= 1";
  let ranked = rank topo ~seed key in
  let want = min r (List.length ranked) in
  let chosen = ref [] in
  (* reverse order accumulation; length tracked separately *)
  let n = ref 0 in
  let taken (s : Topology.shard) =
    List.exists (fun (c : Topology.shard) -> c.id = s.id) !chosen
  in
  let pass ok =
    List.iter
      (fun s ->
        if !n < want && (not (taken s)) && ok s then begin
          chosen := s :: !chosen;
          incr n
        end)
      ranked
  in
  pass (fun s ->
      not (List.exists (fun (c : Topology.shard) -> c.rack = s.rack) !chosen));
  pass (fun s ->
      not (List.exists (fun (c : Topology.shard) -> c.host = s.host) !chosen));
  pass (fun _ -> true);
  List.rev_map (fun (s : Topology.shard) -> s.id) !chosen

(* The head of the ranking in one pass: the highest score, the lower
   id on a tie. *)
let primary topo ~seed key =
  let rec best (b : Topology.shard) bscore = function
    | [] -> b.id
    | (s : Topology.shard) :: rest ->
      let score = score ~seed ~key s in
      if score > bscore || (score = bscore && s.id < b.id) then
        best s score rest
      else best b bscore rest
  in
  match Topology.shards topo with
  | s :: rest -> best s (score ~seed ~key s) rest
  | [] -> invalid_arg "Placement.primary: empty topology"
