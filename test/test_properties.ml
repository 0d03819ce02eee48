(* Cross-module property tests beyond the per-module suites. *)

module Bitbuf = Pdm_util.Bitbuf
module Prng = Pdm_util.Prng
module Zipf = Pdm_util.Zipf
module Codec = Pdm_dictionary.Codec
module Field_codec = Pdm_dictionary.Field_codec
module Greedy = Pdm_loadbalance.Greedy
module Seeded = Pdm_expander.Seeded
module Bipartite = Pdm_expander.Bipartite

(* Case (b) field codec: random ids, satellite sizes and index sets
   roundtrip as long as the capacity constraint holds. *)
let prop_codec_b_random =
  QCheck.Test.make ~name:"field codec case (b) roundtrip" ~count:150
    QCheck.(triple (int_bound 1023) small_string (int_range 4 7))
    (fun (id, payload, count) ->
      QCheck.assume (String.length payload >= 1);
      let d = 7 in
      let sigma_bits = 8 * String.length payload in
      let id_bits = 10 in
      let field_bits = id_bits + (sigma_bits / count) + 8 in
      let indices = List.init count (fun i -> i) in
      match
        Field_codec.encode_b ~field_bits ~id_bits ~id
          ~satellite:(Bytes.of_string payload) ~sigma_bits ~indices
      with
      | exception Invalid_argument _ ->
        (* capacity genuinely short for this draw *)
        count * (field_bits - id_bits) < sigma_bits
      | enc ->
        let v = Field_views.of_encoded ~field_bits ~fields:d enc in
        (match Field_codec.decode_b ~field_bits ~id_bits ~sigma_bits ~d v with
         | Some (id', merged) ->
           id' = id && Bytes.to_string merged = payload
         | None -> false))

(* Greedy invariants under arbitrary insertion streams. *)
let prop_greedy_invariants =
  QCheck.Test.make ~name:"greedy load invariants" ~count:100
    QCheck.(pair (list_of_size Gen.(int_range 1 200) (int_bound 9999))
              (int_range 1 4))
    (fun (keys, k) ->
      let g = Seeded.striped ~seed:9 ~u:10_000 ~v:64 ~d:8 in
      let lb = Greedy.create ~graph:g ~k () in
      List.iter (fun x -> ignore (Greedy.insert lb x)) keys;
      let loads = Greedy.loads lb in
      let total = Array.fold_left ( + ) 0 loads in
      total = k * List.length keys
      && Greedy.items lb = total
      && Array.for_all (fun l -> l >= 0) loads
      && Greedy.max_load lb = Array.fold_left max 0 loads)

(* Greedy placement always lands inside the vertex's neighborhood. *)
let prop_greedy_placement_legal =
  QCheck.Test.make ~name:"greedy placements are neighbors" ~count:100
    QCheck.(list_of_size Gen.(int_range 1 60) (int_bound 9999))
    (fun keys ->
      let g = Seeded.striped ~seed:10 ~u:10_000 ~v:48 ~d:6 in
      let lb = Greedy.create ~graph:g ~k:2 () in
      List.for_all
        (fun x ->
          let nbrs = Array.to_list (Bipartite.neighbors g x) in
          Array.for_all (fun b -> List.mem b nbrs) (Greedy.insert lb x))
        keys)

(* Codec slots: arbitrary write/clear sequences keep count and
   find_key consistent with a model. *)
let prop_slots_model =
  QCheck.Test.make ~name:"block slots agree with a model" ~count:150
    QCheck.(list_of_size Gen.(int_range 1 60)
              (pair (int_bound 4) (option (int_bound 99))))
    (fun ops ->
      let width = 3 in
      let block = Array.make 16 None in
      let model = Array.make 5 None in
      List.iter
        (fun (slot, v) ->
          (match v with
           | Some key ->
             Codec.Slots.write block ~width slot (Some [| key; 0; 0 |]);
             model.(slot) <- Some key
           | None ->
             Codec.Slots.write block ~width slot None;
             model.(slot) <- None))
        ops;
      let model_count =
        Array.fold_left (fun a v -> if v = None then a else a + 1) 0 model
      in
      Codec.Slots.count block ~width = model_count
      && Array.for_all
           (fun v ->
             match v with
             | None -> true
             | Some key -> Codec.Slots.find_key block ~width ~key <> None)
           model)

(* Zipf CDF is monotone and the sampler respects it. *)
let prop_zipf_cdf =
  QCheck.Test.make ~name:"zipf sampler in range for any shape" ~count:60
    QCheck.(pair (int_range 1 500) (map (fun f -> Float.abs f *. 2.0) (float_bound_exclusive 1.0)))
    (fun (n, s) ->
      let z = Zipf.create ~n ~s in
      let g = Prng.create 3 in
      let ok = ref true in
      for _ = 1 to 50 do
        let k = Zipf.sample z g in
        if k < 0 || k >= n then ok := false
      done;
      let total = ref 0.0 in
      for k = 0 to n - 1 do total := !total +. Zipf.pmf z k done;
      !ok && Float.abs (!total -. 1.0) < 1e-6)

(* Mixed bit-stream roundtrip: interleave all three encodings. *)
let prop_bitbuf_mixed =
  QCheck.Test.make ~name:"bitbuf mixed encodings roundtrip" ~count:150
    QCheck.(list (triple (int_bound 2) (int_bound 500) (int_range 1 9)))
    (fun entries ->
      let w = Bitbuf.Writer.create () in
      List.iter
        (fun (kind, v, width) ->
          match kind with
          | 0 -> Bitbuf.Writer.add_bits w ~value:(v land ((1 lsl width) - 1)) ~width
          | 1 -> Bitbuf.Writer.add_unary w (v mod 24)
          | _ -> Bitbuf.Writer.add_varint w v)
        entries;
      let r = Bitbuf.Reader.of_writer w in
      List.for_all
        (fun (kind, v, width) ->
          match kind with
          | 0 -> Bitbuf.Reader.read_bits r ~width = v land ((1 lsl width) - 1)
          | 1 -> Bitbuf.Reader.read_unary r = v mod 24
          | _ -> Bitbuf.Reader.read_varint r = v)
        entries)

let suite =
  [ ("properties",
     List.map QCheck_alcotest.to_alcotest
       [ prop_codec_b_random; prop_greedy_invariants;
         prop_greedy_placement_legal; prop_slots_model; prop_zipf_cdf;
         prop_bitbuf_mixed ]) ]
