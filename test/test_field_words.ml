(* The word-level field codec against the byte-level one it replaced.
   [Ref] is that codec as it was — every field a byte string built and
   read through Bitbuf — and the stored words it produced are the ones
   Codec.words_of_bits packed from those bytes. Every stored word and
   every decoded result must agree: field sizes from 2 bits to past two
   words, random increasing indices, satellites of 1-128 bits, empty
   fields and chains that end short, and (through Field_store) fields
   spread over several disk groups. *)

module Bitbuf = Pdm_util.Bitbuf
module Imath = Pdm_util.Imath
module Codec = Pdm_dictionary.Codec
module Field_codec = Pdm_dictionary.Field_codec
module Field_store = Pdm_dictionary.Field_store
module Pdm = Pdm_sim.Pdm
module Seeded = Pdm_expander.Seeded

(* --- the byte-level reference ---------------------------------------- *)

module Ref = struct
  type encoded = (int * Bytes.t) list

  let field_bytes field_bits = Imath.cdiv field_bits 8

  let finish_field ~field_bits w =
    if Bitbuf.Writer.length_bits w > field_bits then
      invalid_arg "Field_codec: content exceeds field size";
    let out = Bytes.make (field_bytes field_bits) '\000' in
    let src = Bitbuf.Writer.contents w in
    Bytes.blit src 0 out 0 (Bytes.length src);
    out

  let rec copy_bits ~from ~into ~count =
    if count > 0 then begin
      let width = min 56 count in
      Bitbuf.Writer.add_bits into
        ~value:(Bitbuf.Reader.read_bits from ~width)
        ~width;
      copy_bits ~from ~into ~count:(count - width)
    end

  let satellite_reader satellite sigma_bits =
    if 8 * Bytes.length satellite < sigma_bits then
      invalid_arg "Field_codec: satellite shorter than sigma_bits";
    Bitbuf.Reader.of_bytes satellite

  let encode_b ~field_bits ~id_bits ~id ~satellite ~sigma_bits ~indices =
    if id_bits < 1 || id_bits >= field_bits then
      invalid_arg "Field_codec.encode_b: id_bits";
    if id < 0 || (id_bits < 62 && id lsr id_bits <> 0) then
      invalid_arg "Field_codec.encode_b: id does not fit";
    let m = List.length indices in
    let chunk_bits = field_bits - id_bits in
    if m * chunk_bits < sigma_bits then
      invalid_arg "Field_codec.encode_b: fields cannot hold sigma bits";
    let data = satellite_reader satellite sigma_bits in
    List.mapi
      (fun f idx ->
        let w = Bitbuf.Writer.create () in
        Bitbuf.Writer.add_bits w ~value:id ~width:id_bits;
        let remaining = sigma_bits - (f * chunk_bits) in
        copy_bits ~from:data ~into:w
          ~count:(Imath.clamp ~lo:0 ~hi:chunk_bits remaining);
        (idx, finish_field ~field_bits w))
      indices

  let decode_b ~field_bits ~id_bits ~sigma_bits ~d get =
    let counts = Hashtbl.create d in
    for i = 0 to d - 1 do
      match get i with
      | None -> ()
      | Some bytes ->
        let r = Bitbuf.Reader.of_bytes bytes in
        let id = Bitbuf.Reader.read_bits r ~width:id_bits in
        Hashtbl.replace counts id
          (1 + Option.value ~default:0 (Hashtbl.find_opt counts id))
    done;
    let majority =
      Hashtbl.fold
        (fun id c acc -> if 2 * c > d then Some id else acc)
        counts None
    in
    match majority with
    | None -> None
    | Some id ->
      let out = Bitbuf.Writer.create () in
      let chunk_bits = field_bits - id_bits in
      for i = 0 to d - 1 do
        match get i with
        | None -> ()
        | Some bytes ->
          if Bitbuf.Writer.length_bits out < sigma_bits then begin
            let r = Bitbuf.Reader.of_bytes bytes in
            if Bitbuf.Reader.read_bits r ~width:id_bits = id then begin
              let want =
                min chunk_bits (sigma_bits - Bitbuf.Writer.length_bits out)
              in
              copy_bits ~from:r ~into:out ~count:want
            end
          end
      done;
      if Bitbuf.Writer.length_bits out < sigma_bits then None
      else begin
        let bytes = Bytes.make (Imath.cdiv sigma_bits 8) '\000' in
        let src = Bitbuf.Writer.contents out in
        Bytes.blit src 0 bytes 0 (Bytes.length bytes);
        Some (id, bytes)
      end

  let check_increasing indices =
    let rec loop = function
      | a :: (b :: _ as rest) ->
        if a >= b then invalid_arg "Field_codec: indices must increase";
        loop rest
      | [ _ ] | [] -> ()
    in
    if indices = [] then invalid_arg "Field_codec: no indices";
    loop indices

  let pointer_bits ~indices =
    let rec loop acc = function
      | a :: (b :: _ as rest) -> loop (acc + (b - a) + 1) rest
      | [ _ ] -> acc + 1
      | [] -> acc
    in
    loop 0 indices

  let a_capacity_bits ~field_bits ~indices =
    (List.length indices * field_bits) - pointer_bits ~indices

  let encode_a ~field_bits ~indices ~satellite ~sigma_bits =
    check_increasing indices;
    if a_capacity_bits ~field_bits ~indices < sigma_bits then
      invalid_arg "Field_codec.encode_a: fields cannot hold sigma bits";
    let data = satellite_reader satellite sigma_bits in
    let consumed = ref 0 in
    let rec build = function
      | [] -> []
      | idx :: rest ->
        let w = Bitbuf.Writer.create () in
        (match rest with
         | next :: _ -> Bitbuf.Writer.add_unary w (next - idx)
         | [] -> Bitbuf.Writer.add_unary w 0);
        if Bitbuf.Writer.length_bits w > field_bits then
          invalid_arg
            "Field_codec.encode_a: unary pointer exceeds field size \
             (satellite too small for this degree)";
        let room = field_bits - Bitbuf.Writer.length_bits w in
        let want = Imath.clamp ~lo:0 ~hi:room (sigma_bits - !consumed) in
        copy_bits ~from:data ~into:w ~count:want;
        consumed := !consumed + want;
        (idx, finish_field ~field_bits w) :: build rest
    in
    let fields = build indices in
    assert (!consumed = sigma_bits);
    fields

  let indices_a ~field_bits ~head get =
    ignore field_bits;
    let rec follow idx acc guard =
      if guard < 0 then None
      else
        match get idx with
        | None -> None
        | Some bytes ->
          let r = Bitbuf.Reader.of_bytes bytes in
          let delta = Bitbuf.Reader.read_unary r in
          if delta = 0 then Some (List.rev (idx :: acc))
          else follow (idx + delta) (idx :: acc) (guard - 1)
    in
    follow head [] 4096

  let decode_a ~field_bits ~head ~sigma_bits get =
    let out = Bitbuf.Writer.create () in
    let rec follow idx guard =
      if guard < 0 then None
      else
        match get idx with
        | None -> None
        | Some bytes ->
          let r = Bitbuf.Reader.of_bytes bytes in
          let delta = Bitbuf.Reader.read_unary r in
          let room = field_bits - Bitbuf.Reader.pos r in
          let want =
            Imath.clamp ~lo:0 ~hi:room
              (sigma_bits - Bitbuf.Writer.length_bits out)
          in
          copy_bits ~from:r ~into:out ~count:want;
          if delta = 0 then
            if Bitbuf.Writer.length_bits out >= sigma_bits then begin
              let bytes = Bytes.make (Imath.cdiv sigma_bits 8) '\000' in
              let src = Bitbuf.Writer.contents out in
              Bytes.blit src 0 bytes 0 (Bytes.length bytes);
              Some bytes
            end
            else None
          else follow (idx + delta) (guard - 1)
    in
    follow head 4096

  (* What the store held: the field's bytes packed into words, and the
     bytes a lookup unpacked from them. *)
  let words ~field_bits bytes = Codec.words_of_bits bytes ~nbits:field_bits

  let getter ~field_bits (enc : encoded) i =
    Option.map
      (fun b -> Codec.bytes_of_words (words ~field_bits b) ~nbits:field_bits)
      (List.assoc_opt i enc)
end

(* --- generators ------------------------------------------------------ *)

let outcome f = try Ok (f ()) with Invalid_argument _ -> Error ()

let satellite_gen =
  QCheck.Gen.(
    let* sigma_bits = int_range 1 128 in
    let* bytes =
      string_size ~gen:char (return (Imath.cdiv sigma_bits 8))
    in
    return (Bytes.of_string bytes, sigma_bits))

(* [count] distinct positions of [0, d), increasing. *)
let indices_gen ~d ~count =
  QCheck.Gen.(
    let* picks = shuffle_l (List.init d Fun.id) in
    return (List.sort compare (List.filteri (fun i _ -> i < count) picks)))

let show_bytes b =
  String.concat "" (List.map (Printf.sprintf "%02x")
                      (List.map Char.code (List.of_seq (Bytes.to_seq b))))

let show_ints l = String.concat ";" (List.map string_of_int l)

(* The reference's fields as the words the store held. *)
let ref_words ~field_bits enc =
  List.map (fun (i, b) -> (i, Ref.words ~field_bits b)) enc

(* --- case (a) -------------------------------------------------------- *)

type case_a = {
  field_bits : int;
  d : int;
  indices : int list;
  satellite : Bytes.t;
  sigma_bits : int;
  drop : int list;  (* stored fields left empty *)
  head : int;
  extra_bits : int;  (* decode asks for this many bits past the stored ones *)
}

let case_a_gen =
  QCheck.Gen.(
    let* field_bits = int_range 2 100 in
    let* d = int_range 1 12 in
    let* count = int_range 1 d in
    let* indices = indices_gen ~d ~count in
    let* satellite, sigma_bits = satellite_gen in
    let* drop =
      frequency
        [ (3, return []);
          (1, map (fun i -> [ i ]) (oneofl indices)) ]
    in
    let* head =
      frequency [ (4, return (List.hd indices)); (1, int_range 0 (d - 1)) ]
    in
    let* extra_bits = frequency [ (4, return 0); (1, int_range 1 16) ] in
    return { field_bits; d; indices; satellite; sigma_bits; drop; head;
             extra_bits })

let show_a c =
  Printf.sprintf
    "field_bits %d d %d indices [%s] satellite %s sigma_bits %d drop [%s] \
     head %d extra %d"
    c.field_bits c.d (show_ints c.indices) (show_bytes c.satellite)
    c.sigma_bits (show_ints c.drop) c.head c.extra_bits

let prop_case_a =
  QCheck.Test.make ~name:"case (a): words and answers = byte-level codec"
    ~count:1000 (QCheck.make ~print:show_a case_a_gen)
    (fun c ->
      let field_bits = c.field_bits and sigma_bits = c.sigma_bits in
      let enc () =
        Field_codec.encode_a ~field_bits ~indices:c.indices
          ~satellite:c.satellite ~sigma_bits
      in
      let ref_enc () =
        Ref.encode_a ~field_bits ~indices:c.indices ~satellite:c.satellite
          ~sigma_bits
      in
      match (outcome enc, outcome ref_enc) with
      | Error (), Error () -> true
      | Ok _, Error () | Error (), Ok _ ->
        QCheck.Test.fail_report "only one side rejected the encoding"
      | Ok got, Ok want ->
        if got <> ref_words ~field_bits want then
          QCheck.Test.fail_report "stored words differ";
        let kept l = List.filter (fun (i, _) -> not (List.mem i c.drop)) l in
        let v = Field_views.of_encoded ~field_bits ~fields:c.d (kept got) in
        let get = Ref.getter ~field_bits (kept want) in
        let sigma_bits = sigma_bits + c.extra_bits in
        if
          Field_codec.decode_a ~field_bits ~head:c.head ~sigma_bits v
          <> Ref.decode_a ~field_bits ~head:c.head ~sigma_bits get
        then QCheck.Test.fail_report "decode_a differs";
        if
          Field_codec.indices_a ~field_bits ~head:c.head v
          <> Ref.indices_a ~field_bits ~head:c.head get
        then QCheck.Test.fail_report "indices_a differs";
        true)

(* --- case (b) -------------------------------------------------------- *)

type case_b = {
  bfield_bits : int;
  bd : int;
  id_bits : int;
  id : int;
  bindices : int list;
  bsatellite : Bytes.t;
  bsigma_bits : int;
  other : (int * int list) option;  (* another key's id and fields *)
  bdrop : int list;
}

let case_b_gen =
  QCheck.Gen.(
    let* bfield_bits = int_range 2 100 in
    let* bd = int_range 1 12 in
    let* id_bits = int_range 1 (min 40 (bfield_bits - 1)) in
    let* id =
      frequency
        [ (8, int_range 0 ((1 lsl id_bits) - 1));
          (1, return (1 lsl id_bits)) ]
    in
    let* count = int_range 1 bd in
    let* bindices = indices_gen ~d:bd ~count in
    let* bsatellite, bsigma_bits = satellite_gen in
    let rest = List.filter (fun i -> not (List.mem i bindices)) (List.init bd Fun.id) in
    let* other =
      if rest = [] then return None
      else
        frequency
          [ (1, return None);
            (1,
             let* oid = int_range 0 ((1 lsl id_bits) - 1) in
             let* n = int_range 1 (List.length rest) in
             return (Some (oid, List.filteri (fun i _ -> i < n) rest))) ]
    in
    let* bdrop =
      frequency [ (3, return []); (1, map (fun i -> [ i ]) (oneofl bindices)) ]
    in
    return { bfield_bits; bd; id_bits; id; bindices; bsatellite; bsigma_bits;
             other; bdrop })

let show_b c =
  Printf.sprintf
    "field_bits %d d %d id_bits %d id %d indices [%s] satellite %s sigma_bits \
     %d other %s drop [%s]"
    c.bfield_bits c.bd c.id_bits c.id (show_ints c.bindices)
    (show_bytes c.bsatellite) c.bsigma_bits
    (match c.other with
     | None -> "-"
     | Some (oid, l) -> Printf.sprintf "%d@[%s]" oid (show_ints l))
    (show_ints c.bdrop)

let prop_case_b =
  QCheck.Test.make ~name:"case (b): words and answers = byte-level codec"
    ~count:1000 (QCheck.make ~print:show_b case_b_gen)
    (fun c ->
      let field_bits = c.bfield_bits and id_bits = c.id_bits in
      let sigma_bits = c.bsigma_bits and d = c.bd in
      let enc ~id ~indices f =
        outcome (fun () ->
            f ~field_bits ~id_bits ~id ~satellite:c.bsatellite ~sigma_bits
              ~indices)
      in
      match
        ( enc ~id:c.id ~indices:c.bindices Field_codec.encode_b,
          enc ~id:c.id ~indices:c.bindices Ref.encode_b )
      with
      | Error (), Error () -> true
      | Ok _, Error () | Error (), Ok _ ->
        QCheck.Test.fail_report "only one side rejected the encoding"
      | Ok got, Ok want ->
        if got <> ref_words ~field_bits want then
          QCheck.Test.fail_report "stored words differ";
        (* the other key's fields, encoded alike when they fit *)
        let got_o, want_o =
          match c.other with
          | None -> ([], [])
          | Some (oid, indices) -> (
            match
              ( enc ~id:oid ~indices Field_codec.encode_b,
                enc ~id:oid ~indices Ref.encode_b )
            with
            | Ok g, Ok w -> (g, w)
            | _ -> ([], []))
        in
        let kept l = List.filter (fun (i, _) -> not (List.mem i c.bdrop)) l in
        let v =
          Field_views.of_encoded ~field_bits ~fields:d (kept (got @ got_o))
        in
        let get = Ref.getter ~field_bits (kept (want @ want_o)) in
        if
          Field_codec.decode_b ~field_bits ~id_bits ~sigma_bits ~d v
          <> Ref.decode_b ~field_bits ~id_bits ~sigma_bits ~d get
        then QCheck.Test.fail_report "decode_b differs";
        true)

(* --- through Field_store, fields over several disk groups ------------- *)

let universe = 1 lsl 16

(* Case (a) fields of a key written through prepare_updates on blocks
   of [block_words] words, read back through the store's view. *)
let prop_store_groups =
  QCheck.Test.make
    ~name:"case (a) through Field_store: words and answers = byte-level codec"
    ~count:200
    QCheck.(
      make
        ~print:(fun (bw, fb, key, (sat, sb)) ->
          Printf.sprintf "block_words %d field_bits %d key %d satellite %s \
                          sigma_bits %d" bw fb key (show_bytes sat) sb)
        Gen.(
          let* block_words = int_range 1 2 in
          let* field_bits = int_range 65 100 in
          let* key = int_range 0 (universe - 1) in
          let* sat = satellite_gen in
          return (block_words, field_bits, key, sat)))
    (fun (block_words, field_bits, key, (satellite, sigma_bits)) ->
      let d = 5 in
      let indices = [ 0; 2; 3 ] in
      let graph = Seeded.striped ~seed:11 ~u:universe ~v:(d * 8) ~d in
      let groups = Field_store.plan_groups ~block_words ~field_bits in
      let machine =
        Pdm.create ~disks:(d * groups) ~block_size:block_words
          ~blocks_per_disk:8 ()
      in
      let fs =
        Field_store.create ~machine ~disk_offset:0 ~block_offset:0 ~graph
          ~field_bits
      in
      let plan = Field_store.addresses fs key in
      match
        ( outcome (fun () ->
              Field_codec.encode_a ~field_bits ~indices ~satellite ~sigma_bits),
          outcome (fun () ->
              Ref.encode_a ~field_bits ~indices ~satellite ~sigma_bits) )
      with
      | Error (), Error () -> true
      | Ok _, Error () | Error (), Ok _ ->
        QCheck.Test.fail_report "only one side rejected the encoding"
      | Ok got, Ok want ->
        let images = Pdm.read machine plan in
        Pdm.write machine
          (Field_store.prepare_updates fs key ~images ~off:0
             (List.map (fun (i, w) -> (i, Some w)) got));
        let blocks = Pdm.read machine plan in
        let v = Field_store.view fs blocks ~off:0 key in
        let stored =
          List.map (fun i -> (i, Field_codec.field ~field_bits v i)) indices
        in
        if
          stored
          <> List.map (fun (i, w) -> (i, Some w)) (ref_words ~field_bits want)
        then QCheck.Test.fail_report "stored words differ";
        let get = Ref.getter ~field_bits want in
        if
          Field_codec.decode_a ~field_bits ~head:0 ~sigma_bits v
          <> Ref.decode_a ~field_bits ~head:0 ~sigma_bits get
        then QCheck.Test.fail_report "decode_a differs";
        if
          Field_codec.indices_a ~field_bits ~head:0 v
          <> Ref.indices_a ~field_bits ~head:0 get
        then QCheck.Test.fail_report "indices_a differs";
        groups > 1)

let suite =
  [ ("codec.field_words",
     List.map QCheck_alcotest.to_alcotest
       [ prop_case_a; prop_case_b; prop_store_groups ]) ]
