(* One preallocated disk file with positional block I/O.

   The only Unix surface of the storage subsystem: open/preallocate,
   pread/pwrite and the size probe (C stubs — OCaml's Unix has neither
   pread/pwrite, and Unix.fstat is outside the audited allowlist),
   fsync, close. pdm-lint confines Unix.* to this library's audited
   allowlist. *)

external pread_stub :
  Unix.file_descr -> Block_codec.buf -> int -> int -> int -> int
  = "caml_pdm_io_pread"

external pwrite_stub :
  Unix.file_descr -> Block_codec.buf -> int -> int -> int -> int
  = "caml_pdm_io_pwrite"

external set_direct_stub : Unix.file_descr -> bool -> bool
  = "caml_pdm_io_set_direct"

external file_size_stub : Unix.file_descr -> int = "caml_pdm_io_file_size"

type t = {
  path : string;
  fd : Unix.file_descr;
  size : int;
  fresh : bool;  (* held no bytes when opened: reads all zeros *)
  direct : bool;  (* O_DIRECT actually engaged (not merely requested) *)
  mutable closed : bool;
}

let io_failure path op e =
  failwith (Printf.sprintf "%s: %s failed: %s" path op (Unix.error_message e))

let wrap path op f =
  try f () with Unix.Unix_error (e, _, _) -> io_failure path op e

let openfile ~path ~size ?(direct = false) () =
  if size < 0 then invalid_arg "Raw_file.openfile: size must be >= 0";
  let fd =
    wrap path "open" (fun () ->
        Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644)
  in
  let prior = wrap path "fstat" (fun () -> file_size_stub fd) in
  if prior > size then begin
    (try Unix.close fd with Unix.Unix_error _ -> ());
    failwith
      (Printf.sprintf
         "%s: file holds %d bytes, the requested geometry %d; refusing to \
          shrink it (geometry mismatch with an existing file?)"
         path prior size)
  end;
  (* Preallocate: reads inside [size] then see zeros — the codec's
     absent state — even past what was ever written. *)
  if prior < size then wrap path "ftruncate" (fun () -> Unix.ftruncate fd size);
  (* O_DIRECT is best-effort: unsupported filesystems (tmpfs, many CI
     mounts) or kernels refuse the flag and we stay buffered. *)
  let direct = direct && set_direct_stub fd true in
  let t = { path; fd; size; fresh = (prior = 0); direct; closed = false } in
  Gc.finalise (fun t -> if not t.closed then (try Unix.close t.fd with _ -> ()))
    t;
  t

let path t = t.path
let size t = t.size
let fresh t = t.fresh
let direct t = t.direct

let fd t =
  if t.closed then failwith (t.path ^ ": file is closed");
  t.fd

let check_range t ~len ~off op =
  if t.closed then failwith (t.path ^ ": file is closed");
  if len < 0 || off < 0 || off + len > t.size then
    invalid_arg ("Raw_file." ^ op ^ ": range outside the preallocated file")

(* The transfers catch Unix_error in place: [wrap] would allocate a
   closure per block. *)
let pread t buf ~pos ~len ~off =
  check_range t ~len ~off "pread";
  let n =
    try pread_stub t.fd buf pos len off
    with Unix.Unix_error (e, _, _) -> io_failure t.path "pread" e
  in
  if n <> len then
    failwith
      (Printf.sprintf "%s: short read (%d of %d bytes at %d)" t.path n len off)

let pwrite t buf ~pos ~len ~off =
  check_range t ~len ~off "pwrite";
  let n =
    try pwrite_stub t.fd buf pos len off
    with Unix.Unix_error (e, _, _) -> io_failure t.path "pwrite" e
  in
  if n <> len then
    failwith
      (Printf.sprintf "%s: short write (%d of %d bytes at %d)" t.path n len
         off)

let fsync t =
  if t.closed then failwith (t.path ^ ": file is closed");
  wrap t.path "fsync" (fun () -> Unix.fsync t.fd)

let close t =
  if not t.closed then begin
    t.closed <- true;
    wrap t.path "close" (fun () -> Unix.close t.fd)
  end
