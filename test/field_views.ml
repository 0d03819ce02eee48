(* Field_codec views over standalone fields, for tests that encode
   fields without a store: field [i] is block [i] of its own, empty
   when absent from the list. *)

module Field_codec = Pdm_dictionary.Field_codec

let of_encoded ~field_bits ?fields (enc : Field_codec.encoded) =
  let words = (field_bits + 31) / 32 in
  let fields =
    match fields with
    | Some n -> n
    | None -> 1 + List.fold_left (fun m (i, _) -> max m i) 0 enc
  in
  let cells = Array.init fields (fun _ -> Array.make words None) in
  List.iter (fun (i, w) -> cells.(i) <- Array.map Option.some w) enc;
  { Field_codec.cells; off = 0; groups = 1; seg_words = words;
    base = Fun.const 0 }
