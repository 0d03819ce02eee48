(** Runtime honesty sanitizer for the simulator.

    Every bound the experiments report rests on the simulator charging
    I/O honestly: at most one block per disk per round (independent
    disks), every touched block accounted for, a clean request charging
    exactly its closed-form rounds, integrity envelopes of the
    declared size, and internal-memory accounting staying within its
    budget. These invariants hold by construction; the sanitizer
    cross-checks them at run time — the way a race detector or address
    sanitizer re-verifies what the type system already promised — so a
    future refactor that breaks one fails loudly instead of silently
    skewing every measured figure.

    The flag is global (one process simulates one machine's worth of
    trust); {!Pdm.set_sanitize} is the public switch. Checks cost a
    few array reads per round and are skipped entirely when off. *)

type violation = {
  check : string;  (** Which invariant (e.g. ["one-block-per-disk-per-round"]). *)
  round : int;  (** Machine round when detected; [-1] if not tied to a round. *)
  detail : string;  (** Human-readable specifics. *)
}

exception Sanitizer_violation of violation

val set : bool -> unit
(** Turn sanitizer checks on or off (process-global). *)

val active : unit -> bool

val fail : check:string -> ?round:int -> string -> 'a
(** Raise {!Sanitizer_violation}. Used by the simulator internals;
    exposed so future subsystems can report their own invariants. *)

val describe : exn -> string option
(** One-line rendering of {!Sanitizer_violation}; [None] for other
    exceptions. *)

val with_sanitize : bool -> (unit -> 'a) -> 'a
(** Run a thunk with the flag set, restoring the previous value even
    on exceptions — the test-suite idiom. *)
