(** The pdm-serve wire protocol: small, versioned, length-prefixed
    binary frames.

    Every frame on the wire is [u32-le length] followed by [length]
    payload bytes; the payload starts with a version byte and an
    opcode byte, then a [u32-le] request id the reply echoes, then the
    op-specific body. Integers are little-endian; keys are 62-bit
    non-negative ints carried in 8 bytes; values carry a [u32-le]
    length prefix. The codec is pure — no sockets, no clocks — so the
    qcheck round-trip and malformed-frame properties exercise exactly
    the bytes a connection would.

    Decoding never raises: every malformed input maps to a structured
    {!error_code} the server echoes back as a {!Proto_error} reply,
    keeping the connection alive (only an {!Oversized} length prefix
    poisons the stream, because the frame boundary itself is gone).

    See DESIGN.md §15 for the frame format table. *)

val version : int
(** Protocol version carried in every frame; currently 1. *)

val max_frame : int
(** Hard cap on a frame's payload length (1 MiB). A length prefix
    beyond this is an {!Oversized} protocol error and closes the
    connection after the error reply. *)

type op =
  | Get of int
  | Insert of int * Bytes.t
  | Delete of int

type request =
  | Ping                                  (** liveness probe *)
  | Op of op                              (** one data operation *)
  | Batch of op list                      (** one atomic-per-shard batch *)
  | Stats                                 (** per-shard ledgers *)
  | Kill_disk of { shard : int; disk : int }  (** chaos: fail a disk *)
  | Scrub of { shard : int }              (** chaos: scan-and-repair *)

type req_frame = { rid : int; req : request }

type result_ =
  | Found of Bytes.t
  | Absent
  | Inserted
  | Deleted of bool  (** whether the key was present *)

type shard_stat = {
  shard : int;
  rounds : int;   (** the shard machine's [rounds_total] ledger *)
  served : int;   (** requests served by the shard engine *)
  fetched : int;  (** blocks the shard engine fetched (the ios ledger) *)
}

type error_code =
  | Bad_version
  | Bad_opcode
  | Bad_length   (** truncated or trailing bytes inside a frame *)
  | Oversized    (** length prefix beyond {!max_frame} *)
  | Server_error

type reply =
  | Pong
  | Result of result_
  | Results of result_ list               (** batch, in op order *)
  | Stats_reply of shard_stat list
  | Admin_ok
  | Busy          (** admission queue full — retry later *)
  | Unavailable of string                 (** storage failed the request *)
  | Proto_error of { code : error_code; message : string }

type rep_frame = { rid : int; rep : reply }

val error_code_to_int : error_code -> int
val error_code_of_int : int -> error_code option

val encode_request : req_frame -> Bytes.t
(** Full frame, length prefix included. Raises [Invalid_argument] on
    a negative key/rid, a batch count, shard or disk outside the
    16-bit field that carries it ([0, 0xffff]), or a payload over
    {!max_frame}. *)

val encode_reply : rep_frame -> Bytes.t
(** As {!encode_request}: a result count, stat count or stat shard
    outside [0, 0xffff] raises [Invalid_argument]. *)

val decode_request : Bytes.t -> (req_frame, error_code * string) result
(** Decode one frame payload (without the length prefix). Total: any
    malformed payload is a structured error, never an exception. *)

val decode_reply : Bytes.t -> (rep_frame, error_code * string) result

(** Incremental frame assembly for a connection's byte stream. *)
module Framing : sig
  type t

  val create : unit -> t

  val feed : t -> bytes -> int -> unit
  (** [feed t buf n] appends the first [n] bytes of [buf]. Work and
      allocation are linear in the bytes fed and the frames taken. *)

  val next : t -> [ `Frame of Bytes.t | `Await | `Oversized of int ]
  (** Pop the next complete frame payload; [`Await] when more bytes
      are needed; [`Oversized n] when the pending length prefix [n]
      exceeds {!max_frame} (the stream is then poisoned — close the
      connection after replying). *)

  val buffered : t -> int
end
