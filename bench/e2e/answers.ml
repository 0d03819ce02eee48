(* A frame's answers as one compact string, one token per op, so a run
   keeps one small string per frame instead of a tree of reply values:
   'A' absent, 'I' inserted, 'D'/'d' deleted (key present/absent), 'F'
   + u16 length + value for a hit; a failed op is one of the codes
   below. The strings double as the input of the answer digest. *)

module Wire = Pdm_server.Wire

let busy = 'b'
let unavailable = 'u'
let proto_error = 'p'
let malformed = 'w'

let failure_name = function
  | 'b' -> Some "busy"
  | 'u' -> Some "unavailable"
  | 'p' -> Some "proto-error"
  | 'w' -> Some "malformed"
  | _ -> None

let add buf = function
  | Ok (Wire.Found v) ->
    Buffer.add_char buf 'F';
    Buffer.add_uint16_le buf (Bytes.length v);
    Buffer.add_bytes buf v
  | Ok Wire.Absent -> Buffer.add_char buf 'A'
  | Ok Wire.Inserted -> Buffer.add_char buf 'I'
  | Ok (Wire.Deleted present) -> Buffer.add_char buf (if present then 'D' else 'd')
  | Error code -> Buffer.add_char buf code

let of_results results =
  let buf = Buffer.create 16 in
  List.iter (add buf) results;
  Buffer.contents buf

let of_reply ~ops = function
  | Wire.Result r when ops = 1 -> of_results [ Ok r ]
  | Wire.Results rs when List.length rs = ops -> of_results (List.map Result.ok rs)
  | Wire.Busy -> String.make ops busy
  | Wire.Unavailable _ -> String.make ops unavailable
  | Wire.Proto_error _ -> String.make ops proto_error
  | _ -> String.make ops malformed

let tokens s =
  let rec go i acc =
    if i >= String.length s then List.rev acc
    else if s.[i] = 'F' then
      let len = 3 + String.get_uint16_le s (i + 1) in
      go (i + len) (String.sub s i len :: acc)
    else go (i + 1) (String.make 1 s.[i] :: acc)
  in
  go 0 []
