(** Front door of the real-I/O storage subsystem: backend kinds,
    scratch directories and the factories machines consume.

    A {!spec} says what storage a machine should sit on; {!factory}
    turns it into the geometry-blind {!Pdm_sim.Backend.factory} that
    [Pdm.create ?factory] consumes. With no explicit directory every
    machine gets a fresh scratch directory under the system temp dir,
    removed at process exit; with [~dir] the files persist across
    machines and processes — which is how crash tests reopen a "dead
    process's" state. *)

type kind = Mem | File | Mmap

val kind_to_string : kind -> string

val kind_of_string : string -> (kind, string) result
(** Case-insensitive; the [Error] lists the accepted names. *)

type spec = private { kind : kind; dir : string option; direct : bool }

val spec : ?dir:string -> ?direct:bool -> kind -> spec
(** [dir]: directory holding the disk files (created if missing;
    default a fresh scratch directory per machine). [direct] (default
    false): request O_DIRECT on file backends (best-effort). *)

val factory : spec -> int Pdm_sim.Backend.factory
(** The factory for a spec. [Mem] answers [None] (the machine uses
    its default memory disks), so code can thread one optional factory
    everywhere and treat "mem" uniformly. *)

val factory_of_string : string -> (int Pdm_sim.Backend.factory, string) result
(** [factory_of_string s] = [factory (spec kind)] for a kind name —
    the one-liner CLI front ends want. *)

val fresh_dir : ?prefix:string -> unit -> string
(** Create a fresh scratch directory (default prefix ["pdm-io"]),
    registered for removal at process exit. *)

val with_dir : ?prefix:string -> (string -> 'a) -> 'a
(** Run with a fresh scratch directory and remove it afterwards even
    on exceptions — the cleanup guard tests use so failures don't
    leak files. *)

val cleanup_dir : string -> unit
(** Remove a directory and everything under it. No-op when it does
    not exist. *)
