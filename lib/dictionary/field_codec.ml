module Imath = Pdm_util.Imath

type view = {
  cells : int option array array;
  off : int;
  groups : int;
  seg_words : int;
  base : int -> int;
}

type encoded = (int * int array) list

let corrupt () = invalid_arg "Field_codec: corrupt field"

(* --- reading a field's words in place ------------------------------ *)

(* A field is read at [at] = its first block and [base] = its first
   cell, both resolved once per visit. *)
let occupied_at v ~at ~base =
  match v.cells.(at).(base) with Some _ -> true | None -> false

(* Word [w] of the field at [at], [base]. *)
let word v ~at ~base w =
  let cell =
    if w < v.seg_words then v.cells.(at).(base + w)
    else v.cells.(at + (w / v.seg_words)).(base + (w mod v.seg_words))
  in
  match cell with Some x -> x | None -> corrupt ()

(* [width] <= 32 bits of the field from bit [pos], most significant
   first: at most two words. *)
let bits v ~at ~base ~pos ~width =
  if width = 0 then 0
  else begin
    let w = pos lsr 5 and avail = 32 - (pos land 31) in
    let x = word v ~at ~base w land ((1 lsl avail) - 1) in
    if width <= avail then x lsr (avail - width)
    else
      let rest = width - avail in
      (x lsl rest) lor (word v ~at ~base (w + 1) lsr (32 - rest))
  end

(* [width] <= 62 bits from bit [pos]. *)
let wide_bits v ~at ~base ~pos ~width =
  if width <= 32 then bits v ~at ~base ~pos ~width
  else
    let high = width - 32 in
    (bits v ~at ~base ~pos ~width:high lsl 32)
    lor bits v ~at ~base ~pos:(pos + high) ~width:32

(* The unary count at the start of the field: its leading ones. A zero
   must come before bit [field_bits]. *)
let unary v ~at ~base ~field_bits =
  let n = ref 0 and x = ref 0 in
  while
    if !n >= field_bits then corrupt ();
    if !n land 31 = 0 then x := word v ~at ~base (!n lsr 5);
    (!x lsr (31 - (!n land 31))) land 1 = 1
  do
    incr n
  done;
  !n

(* The satellite a decode is assembling: whole bytes go to [out], the
   [pending] bits of a partial byte wait in [acc]. *)
type sink = {
  out : Bytes.t;
  mutable bytes : int;
  mutable acc : int;
  mutable pending : int;
}

let sink ~sigma_bits =
  { out = Bytes.create (Imath.cdiv sigma_bits 8); bytes = 0; acc = 0;
    pending = 0 }

let sunk s = (8 * s.bytes) + s.pending

(* Append the [width] <= 32 low bits of [value]. *)
(* pdm-lint: domain local — fills the satellite buffer this decode allocates *)
let push s ~value ~width =
  s.acc <- (s.acc lsl width) lor value;
  s.pending <- s.pending + width;
  while s.pending >= 8 do
    s.pending <- s.pending - 8;
    Bytes.set s.out s.bytes (Char.chr ((s.acc lsr s.pending) land 0xff));
    s.bytes <- s.bytes + 1
  done;
  s.acc <- s.acc land ((1 lsl s.pending) - 1)

(* The satellite, its last byte zero-padded. *)
(* pdm-lint: domain local — fills the satellite buffer this decode allocates *)
let finish s =
  if s.pending > 0 then
    Bytes.set s.out s.bytes (Char.chr (s.acc lsl (8 - s.pending)));
  s.out

(* Append [count] bits of the field from bit [pos], a source word at a
   time. *)
let copy_out v ~at ~base ~pos ~count s =
  let pos = ref pos and left = ref count in
  while !left > 0 do
    let n = min !left (32 - (!pos land 31)) in
    push s ~value:(bits v ~at ~base ~pos:!pos ~width:n) ~width:n;
    pos := !pos + n;
    left := !left - n
  done

(* Field [i]'s first block; its first cell is [v.base i]. *)
let block_of v i = v.off + (i * v.groups)

let occupied v i = occupied_at v ~at:(block_of v i) ~base:(v.base i)

let words_of field_bits = Imath.cdiv field_bits 32

let field ~field_bits v i =
  let at = block_of v i and base = v.base i in
  if not (occupied_at v ~at ~base) then None
  else Some (Array.init (words_of field_bits) (word v ~at ~base))

(* --- writing a field's words --------------------------------------- *)

(* OR the [width] <= 32 low bits of [value] into [words] at bit [pos]. *)
(* pdm-lint: domain local — fills the field words this encode allocates *)
let put_words words ~pos ~value ~width =
  if width > 0 then begin
    let w = pos lsr 5 and avail = 32 - (pos land 31) in
    if width <= avail then
      words.(w) <- words.(w) lor (value lsl (avail - width))
    else begin
      let rest = width - avail in
      words.(w) <- words.(w) lor (value lsr rest);
      words.(w + 1) <-
        words.(w + 1) lor ((value land ((1 lsl rest) - 1)) lsl (32 - rest))
    end
  end

(* [width] <= 32 bits of the satellite from bit [pos]. *)
let satellite_bits s ~pos ~width =
  let v = ref 0 and pos = ref pos and left = ref width in
  while !left > 0 do
    let byte = Char.code (Bytes.get s (!pos lsr 3)) in
    let room = 8 - (!pos land 7) in
    let n = min room !left in
    v := (!v lsl n) lor ((byte lsr (room - n)) land ((1 lsl n) - 1));
    pos := !pos + n;
    left := !left - n
  done;
  !v

(* Copy [count] satellite bits from bit [from] into [words] at bit
   [pos], a destination word at a time. *)
let copy_in s ~from words ~pos ~count =
  let from = ref from and pos = ref pos and left = ref count in
  while !left > 0 do
    let n = min !left (32 - (!pos land 31)) in
    put_words words ~pos:!pos ~value:(satellite_bits s ~pos:!from ~width:n)
      ~width:n;
    from := !from + n;
    pos := !pos + n;
    left := !left - n
  done

let check_satellite satellite sigma_bits =
  if 8 * Bytes.length satellite < sigma_bits then
    invalid_arg "Field_codec: satellite shorter than sigma_bits"

(* --- case (b) ------------------------------------------------------- *)

let encode_b ~field_bits ~id_bits ~id ~satellite ~sigma_bits ~indices =
  if id_bits < 1 || id_bits >= field_bits then
    invalid_arg "Field_codec.encode_b: id_bits";
  if id < 0 || (id_bits < 62 && id lsr id_bits <> 0) then
    invalid_arg "Field_codec.encode_b: id does not fit";
  let m = List.length indices in
  let chunk_bits = field_bits - id_bits in
  if m * chunk_bits < sigma_bits then
    invalid_arg "Field_codec.encode_b: fields cannot hold sigma bits";
  check_satellite satellite sigma_bits;
  if id_bits > 62 then invalid_arg "Field_codec.encode_b: id_bits";
  List.mapi
    (fun f idx ->
      let words = Array.make (words_of field_bits) 0 in
      let high = max 0 (id_bits - 32) in
      put_words words ~pos:0 ~value:(id lsr (id_bits - high)) ~width:high;
      put_words words ~pos:high
        ~value:(id land ((1 lsl (id_bits - high)) - 1))
        ~width:(id_bits - high);
      let from = f * chunk_bits in
      copy_in satellite ~from words ~pos:id_bits
        ~count:(Imath.clamp ~lo:0 ~hi:chunk_bits (sigma_bits - from));
      (idx, words))
    indices

(* The identifier of field [i], or -1 when the field is empty. *)
let id_at v ~id_bits i =
  let at = block_of v i and base = v.base i in
  if occupied_at v ~at ~base then wide_bits v ~at ~base ~pos:0 ~width:id_bits
  else -1

let decode_b ~field_bits ~id_bits ~sigma_bits ~d v =
  (* Boyer–Moore: the only identifier that can hold a strict majority,
     then its count. *)
  let ids = Array.make d (-1) in
  let cand = ref (-1) and votes = ref 0 in
  for i = 0 to d - 1 do
    let id = id_at v ~id_bits i in
    ids.(i) <- id;
    if id >= 0 then
      if !votes = 0 then begin
        cand := id;
        votes := 1
      end
      else if id = !cand then incr votes
      else decr votes
  done;
  let count = ref 0 in
  for i = 0 to d - 1 do
    if ids.(i) >= 0 && ids.(i) = !cand then incr count
  done;
  if 2 * !count <= d then None
  else begin
    let id = !cand and chunk_bits = field_bits - id_bits in
    let s = sink ~sigma_bits in
    for i = 0 to d - 1 do
      if sunk s < sigma_bits && ids.(i) = id then begin
        let at = block_of v i and base = v.base i in
        let want = min chunk_bits (sigma_bits - sunk s) in
        copy_out v ~at ~base ~pos:id_bits ~count:want s
      end
    done;
    if sunk s < sigma_bits then None else Some (id, finish s)
  end

let indices_b ~id_bits ~d ~id v =
  let rec collect i acc =
    if i < 0 then acc
    else collect (i - 1) (if id_at v ~id_bits i = id then i :: acc else acc)
  in
  collect (d - 1) []

(* --- case (a) ------------------------------------------------------- *)

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
  check_satellite satellite sigma_bits;
  let rec build consumed = function
    | [] ->
      assert (consumed = sigma_bits);
      []
    | idx :: rest ->
      let delta = match rest with next :: _ -> next - idx | [] -> 0 in
      if delta + 1 > field_bits then
        invalid_arg
          "Field_codec.encode_a: unary pointer exceeds field size (satellite \
           too small for this degree)";
      let words = Array.make (words_of field_bits) 0 in
      (* delta ones, then the zero the array already holds *)
      for p = 0 to delta - 1 do
        put_words words ~pos:p ~value:1 ~width:1
      done;
      let pos = delta + 1 in
      let want =
        Imath.clamp ~lo:0 ~hi:(field_bits - pos) (sigma_bits - consumed)
      in
      copy_in satellite ~from:consumed words ~pos ~count:want;
      (idx, words) :: build (consumed + want) rest
  in
  build 0 indices

(* The list has at most one entry per candidate field; 4096 bounds any
   realistic degree and keeps a corrupt pointer chain finite. *)
let chain_guard = 4096

let indices_a ~field_bits ~head v =
  let rec follow idx acc guard =
    if guard < 0 then None
    else
      let at = block_of v idx and base = v.base idx in
      if not (occupied_at v ~at ~base) then None
      else
        let delta = unary v ~at ~base ~field_bits in
        if delta = 0 then Some (List.rev (idx :: acc))
        else follow (idx + delta) (idx :: acc) (guard - 1)
  in
  follow head [] chain_guard

(* A loop rather than a recursive closure: a lookup allocates the
   satellite, its sink and its [Some], nothing per field. *)
let decode_a ~field_bits ~head ~sigma_bits v =
  let s = sink ~sigma_bits in
  let idx = ref head and guard = ref chain_guard in
  (* 0: walking, 1: the stream is whole, 2: the key is not here *)
  let state = ref 0 in
  while !state = 0 do
    if !guard < 0 then state := 2
    else begin
      let at = block_of v !idx and base = v.base !idx in
      if not (occupied_at v ~at ~base) then state := 2
      else begin
        let delta = unary v ~at ~base ~field_bits in
        let pos = delta + 1 in
        let want =
          Imath.clamp ~lo:0 ~hi:(field_bits - pos) (sigma_bits - sunk s)
        in
        copy_out v ~at ~base ~pos ~count:want s;
        if delta = 0 then state := if sunk s >= sigma_bits then 1 else 2
        else begin
          idx := !idx + delta;
          decr guard
        end
      end
    end
  done;
  if !state = 1 then Some (finish s) else None
