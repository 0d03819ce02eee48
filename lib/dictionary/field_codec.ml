module Bitbuf = Pdm_util.Bitbuf
module Imath = Pdm_util.Imath

type encoded = (int * Bytes.t) list

let field_bytes field_bits = Imath.cdiv field_bits 8

(* Pad a writer's content out to exactly field_bits and return it. *)
(* pdm-lint: domain local — field codec mutates per-call encode buffers *)
let finish_field ~field_bits w =
  if Bitbuf.Writer.length_bits w > field_bits then
    invalid_arg "Field_codec: content exceeds field size";
  let out = Bytes.make (field_bytes field_bits) '\000' in
  let src = Bitbuf.Writer.contents w in
  Bytes.blit src 0 out 0 (Bytes.length src);
  out

(* In chunks of at most 56 bits, well inside a read or write's 62. *)
let rec copy_bits ~from ~into ~count =
  if count > 0 then begin
    let width = min 56 count in
    Bitbuf.Writer.add_bits into ~value:(Bitbuf.Reader.read_bits from ~width)
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
      copy_bits ~from:data ~into:w ~count:(Imath.clamp ~lo:0 ~hi:chunk_bits remaining);
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
  (* Each non-tail field spends delta+1 bits; the tail spends 1. *)
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
          "Field_codec.encode_a: unary pointer exceeds field size (satellite \
           too small for this degree)";
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

(* pdm-lint: domain local — field codec mutates per-call decode buffers *)
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
          Imath.clamp ~lo:0 ~hi:room (sigma_bits - Bitbuf.Writer.length_bits out)
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
  (* The list has at most one entry per candidate field; 4096 bounds
     any realistic degree and keeps a corrupt pointer chain finite. *)
  follow head 4096
