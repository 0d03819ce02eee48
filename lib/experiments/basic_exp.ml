module Pdm = Pdm_sim.Pdm
module Basic = Pdm_dictionary.Basic_dict
module Expansion = Pdm_expander.Expansion
module Sampling = Pdm_util.Sampling
module Prng = Pdm_util.Prng
module Imath = Pdm_util.Imath
module Summary = Pdm_util.Summary

type point = {
  block_words : int;
  bucket_blocks : int;
  lookup_avg : float;
  lookup_worst : int;
  insert_avg : float;
  insert_worst : int;
  max_load : int;
  slots_per_bucket : int;
  bound : float;
  stable_placement : bool;
}

type result = { points : point list; n : int }

let value_bytes = 8

(* Small blocks need multi-block buckets: grow bucket_blocks until a
   feasible plan exists. *)
let plan_any ~universe ~n ~block_words ~degree ~seed =
  let rec attempt bb =
    if bb > 64 then invalid_arg "basic_exp: no feasible bucket size";
    match
      Basic.plan ~bucket_blocks:bb ~universe ~capacity:n ~block_words ~degree
        ~value_bytes ~seed ()
    with
    | cfg -> cfg
    | exception Invalid_argument _ -> attempt (bb * 2)
  in
  attempt 1

let run ?(universe = 1 lsl 22) ?(n = 1000) ?(degree = 8) ?(seed = 13)
    ?(block_sizes = [ 8; 32; 64; 128 ]) () =
  let points =
    List.map
      (fun block_words ->
        let cfg = plan_any ~universe ~n ~block_words ~degree ~seed in
        let machine =
          Pdm.create ~disks:degree ~block_size:block_words
            ~blocks_per_disk:(Basic.blocks_per_disk cfg) ()
        in
        let d = Basic.create ~machine ~disk_offset:0 ~block_offset:0 cfg in
        let rng = Prng.create (seed + block_words) in
        let members = Sampling.distinct rng ~universe ~count:n in
        let stats = Pdm.stats machine in
        let payload = Common.value_bytes_of value_bytes in
        (* Track where the first 50 keys live right after insertion;
           they must never move (Section 1.1's stability claim, valid
           while there are no deletions). *)
        let early = Array.sub members 0 (min 50 n) in
        let ins =
          Common.per_op_cost stats (fun k -> Basic.insert d k (payload k))
            members
        in
        let placement_of k =
          Array.to_list (Basic.addresses d k)
          |> List.map (fun a -> (a, Pdm.peek machine a))
          |> List.filter_map (fun (a, block) ->
                 let width = Basic.record_width d in
                 Option.map
                   (fun s -> (a, s))
                   (Pdm_dictionary.Codec.Slots.find_key block ~width ~key:k))
        in
        let early_placement = Array.map placement_of early in
        let look =
          Common.per_op_cost stats (fun k -> ignore (Basic.find d k)) members
        in
        let stable =
          Array.for_all2
            (fun k before -> placement_of k = before)
            early early_placement
        in
        { block_words; bucket_blocks = cfg.Basic.bucket_blocks;
          lookup_avg = Summary.mean look; lookup_worst = Common.worst look;
          insert_avg = Summary.mean ins; insert_worst = Common.worst ins;
          max_load = Basic.max_load d;
          slots_per_bucket = Basic.slots_per_bucket d;
          bound =
            Expansion.lemma3_bound ~n
              ~v:(degree * cfg.Basic.buckets_per_stripe)
              ~d:degree ~k:1 ~eps:(1. /. 12.) ~delta:(1. /. 12.);
          stable_placement = stable })
      block_sizes
  in
  { points; n }

let to_table r =
  Table.make
    ~title:
      (Printf.sprintf "Section 4.1 — basic dictionary across block sizes \
                       (n = %d)" r.n)
    ~header:
      [ "B (words)"; "blocks/bucket"; "lookup avg"; "lookup max";
        "insert avg"; "insert max"; "max load"; "bucket slots";
        "Lemma3 bound"; "stable placement" ]
    ~notes:
      [ "even at B = 8 the costs stay O(1): blocks/bucket read rounds + 1 \
         write round";
        "stable placement: once inserted (and absent deletions), a record's \
         blocks never change" ]
    (List.map
       (fun p ->
         [ Table.icell p.block_words; Table.icell p.bucket_blocks;
           Table.fcell p.lookup_avg; Table.icell p.lookup_worst;
           Table.fcell p.insert_avg; Table.icell p.insert_worst;
           Table.icell p.max_load; Table.icell p.slots_per_bucket;
           Table.fcell p.bound;
           (if p.stable_placement then "yes" else "NO") ])
       r.points)
