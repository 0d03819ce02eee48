(* The byte-at-a-time bit codecs (Codec's word packing, Bitbuf's
   multi-bit reads and writes) against the bit-at-a-time versions they
   replaced, and the one-probe field encoding round trip built on
   them. *)

module Bitbuf = Pdm_util.Bitbuf
module Codec = Pdm_dictionary.Codec
module Field_codec = Pdm_dictionary.Field_codec

(* --- the bit-at-a-time reference ------------------------------------ *)

let bits_per_word = 32

let words_for_bits nbits = (nbits + bits_per_word - 1) / bits_per_word

let get_bit bytes i =
  let byte = i lsr 3 and off = i land 7 in
  if byte >= Bytes.length bytes then false
  else Char.code (Bytes.get bytes byte) land (0x80 lsr off) <> 0

let set_bit bytes i =
  let byte = i lsr 3 and off = i land 7 in
  Bytes.set bytes byte
    (Char.chr (Char.code (Bytes.get bytes byte) lor (0x80 lsr off)))

let ref_words_of_bits bytes ~nbits =
  if nbits < 0 then invalid_arg "Codec.words_of_bits";
  let nwords = words_for_bits nbits in
  Array.init nwords (fun w ->
      let acc = ref 0 in
      for b = 0 to bits_per_word - 1 do
        let i = (w * bits_per_word) + b in
        acc := (!acc lsl 1) lor (if i < nbits && get_bit bytes i then 1 else 0)
      done;
      !acc)

let ref_bytes_of_words words ~nbits =
  if nbits < 0 || words_for_bits nbits > Array.length words then
    invalid_arg "Codec.bytes_of_words";
  let out = Bytes.make ((nbits + 7) / 8) '\000' in
  for i = 0 to nbits - 1 do
    let w = i / bits_per_word and b = i mod bits_per_word in
    if words.(w) lsr (bits_per_word - 1 - b) land 1 = 1 then set_bit out i
  done;
  out

let ref_add_bits w ~value ~width =
  if width < 0 || width > 62 then invalid_arg "Bitbuf.add_bits: width";
  if width < 62 && value lsr width <> 0 then
    invalid_arg "Bitbuf.add_bits: value does not fit width";
  if value < 0 then invalid_arg "Bitbuf.add_bits: negative value";
  for i = width - 1 downto 0 do
    Bitbuf.Writer.add_bit w ((value lsr i) land 1 = 1)
  done

let ref_read_bits r ~width =
  if width < 0 || width > 62 then invalid_arg "Bitbuf.read_bits: width";
  if Bitbuf.Reader.remaining r < width then
    invalid_arg "Bitbuf.read_bits: end of buffer";
  let v = ref 0 in
  for _ = 1 to width do
    v := (!v lsl 1) lor (if Bitbuf.Reader.read_bit r then 1 else 0)
  done;
  !v

let outcome f = try Ok (f ()) with Invalid_argument m -> Error m

(* --- properties ----------------------------------------------------- *)

let bytes_gen ~max =
  QCheck.Gen.(map Bytes.of_string (string_size ~gen:char (int_range 0 max)))

let words_gen =
  (* whole ints: bits above bit 31 set, negatives included *)
  QCheck.Gen.(list_size (int_range 0 6) int |> map Array.of_list)

let prop_words_of_bits =
  QCheck.Test.make ~name:"words_of_bits = bit-at-a-time" ~count:1000
    QCheck.(
      make
        ~print:(fun (b, n) -> Printf.sprintf "%S nbits %d" (Bytes.to_string b) n)
        Gen.(
          let* b = bytes_gen ~max:20 in
          let* n = int_range (-1) ((8 * Bytes.length b) + 40) in
          return (b, n)))
    (fun (bytes, nbits) ->
      outcome (fun () -> Codec.words_of_bits bytes ~nbits)
      = outcome (fun () -> ref_words_of_bits bytes ~nbits))

let prop_bytes_of_words =
  QCheck.Test.make ~name:"bytes_of_words = bit-at-a-time" ~count:1000
    QCheck.(
      make
        ~print:(fun (w, n) ->
          Printf.sprintf "[%s] nbits %d"
            (String.concat ";" (Array.to_list (Array.map string_of_int w)))
            n)
        Gen.(
          let* w = words_gen in
          let* n = int_range (-1) ((32 * Array.length w) + 8) in
          return (w, n)))
    (fun (words, nbits) ->
      outcome (fun () -> Codec.bytes_of_words words ~nbits)
      = outcome (fun () -> ref_bytes_of_words words ~nbits))

(* A run of writes: single bits and [width]-bit values, 0 <= width <=
   62, so most writes start at an unaligned cursor. *)
type write = Bit of bool | Bits of int * int

let write_gen =
  QCheck.Gen.(
    frequency
      [ (1, map (fun b -> Bit b) bool);
        (4,
         let* width = int_range 0 62 in
         let* value =
           if width = 0 then return 0
           else map (fun v -> v land ((1 lsl width) - 1)) int
         in
         return (Bits (value, width))) ])

let print_write = function
  | Bit b -> Printf.sprintf "bit %b" b
  | Bits (v, w) -> Printf.sprintf "%d/%d" v w

let prop_add_bits =
  QCheck.Test.make ~name:"Writer.add_bits = bit-at-a-time" ~count:500
    QCheck.(
      make
        ~print:(fun ws -> String.concat " " (List.map print_write ws))
        Gen.(list_size (int_range 0 30) write_gen))
    (fun writes ->
      let run add_bits =
        let w = Bitbuf.Writer.create () in
        List.iter
          (function
            | Bit b -> Bitbuf.Writer.add_bit w b
            | Bits (value, width) -> add_bits w ~value ~width)
          writes;
        (Bitbuf.Writer.length_bits w, Bitbuf.Writer.contents w)
      in
      run Bitbuf.Writer.add_bits = run ref_add_bits)

let prop_add_bits_rejects =
  QCheck.Test.make ~name:"Writer.add_bits rejects as before" ~count:300
    QCheck.(pair (int_range (-2) 64) int)
    (fun (width, value) ->
      let w1 = Bitbuf.Writer.create () and w2 = Bitbuf.Writer.create () in
      outcome (fun () -> Bitbuf.Writer.add_bits w1 ~value ~width)
      = outcome (fun () -> ref_add_bits w2 ~value ~width))

(* Reads of widths 0-62 (and out-of-range ones) from random seek
   positions, past the end included. *)
let prop_read_bits =
  QCheck.Test.make ~name:"Reader.read_bits = bit-at-a-time" ~count:500
    QCheck.(
      make
        ~print:(fun (b, ops) ->
          Printf.sprintf "%S %s" (Bytes.to_string b)
            (String.concat " "
               (List.map (fun (s, w) -> Printf.sprintf "@%d:%d" s w) ops)))
        Gen.(
          let* b = bytes_gen ~max:24 in
          let* ops =
            list_size (int_range 1 12)
              (pair
                 (int_range (-1) (8 * Bytes.length b))
                 (frequency [ (9, int_range 0 62); (1, int_range (-1) 64) ]))
          in
          return (b, ops)))
    (fun (bytes, ops) ->
      let run read_bits =
        let r = Bitbuf.Reader.of_bytes bytes in
        List.map
          (fun (seek, width) ->
            if seek >= 0 then Bitbuf.Reader.seek r seek;
            let v = outcome (fun () -> read_bits r ~width) in
            (v, Bitbuf.Reader.pos r))
          ops
      in
      run Bitbuf.Reader.read_bits = run ref_read_bits)

(* Case (a) fields: [encode_a] then [decode_a] gives back the first
   [sigma_bits] bits of the satellite, pad bits cleared. *)
let prop_field_round_trip =
  QCheck.Test.make ~name:"Field_codec encode_a/decode_a round trip" ~count:500
    QCheck.(
      make
        ~print:(fun (fb, idx, sat, sb) ->
          Printf.sprintf "field_bits %d indices [%s] satellite %S sigma_bits %d"
            fb
            (String.concat ";" (List.map string_of_int idx))
            (Bytes.to_string sat) sb)
        Gen.(
          let* field_bits = int_range 8 200 in
          let* gaps = list_size (int_range 1 6) (int_range 1 6) in
          let* head = int_range 0 4 in
          let indices =
            List.rev
              (List.fold_left
                 (fun acc g -> (List.hd acc + g) :: acc)
                 [ head ] (List.tl gaps))
          in
          let capacity = Field_codec.a_capacity_bits ~field_bits ~indices in
          let* satellite = bytes_gen ~max:((max 0 capacity / 8) + 2) in
          let* sigma_bits =
            int_range 0 (max 0 (min capacity (8 * Bytes.length satellite)))
          in
          return (field_bits, indices, satellite, sigma_bits)))
    (fun (field_bits, indices, satellite, sigma_bits) ->
      let fields =
        Field_codec.encode_a ~field_bits ~indices ~satellite ~sigma_bits
      in
      let v = Field_views.of_encoded ~field_bits fields in
      let head = List.hd indices in
      let want =
        ref_bytes_of_words
          (ref_words_of_bits satellite ~nbits:sigma_bits)
          ~nbits:sigma_bits
      in
      Field_codec.decode_a ~field_bits ~head ~sigma_bits v = Some want
      && Field_codec.indices_a ~field_bits ~head v = Some indices)

let suite =
  [ ("codec.byte_level",
     List.map QCheck_alcotest.to_alcotest
       [ prop_words_of_bits; prop_bytes_of_words; prop_add_bits;
         prop_add_bits_rejects; prop_read_bits; prop_field_round_trip ]) ]
