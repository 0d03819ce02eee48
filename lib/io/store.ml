(* Front door of the storage subsystem: backend kinds, scratch
   directories and the factories machines consume.

   A [spec] says what storage a machine should sit on; [factory]
   turns it into the geometry-blind factory Pdm.create consumes. With
   no explicit directory each machine gets a fresh scratch directory
   (removed at process exit); with [~dir] the files persist — that is
   how crash tests reopen a "dead process's" state. Front ends
   resolve a --backend flag through [factory_of_string]. *)

type kind = Mem | File | Mmap

let kind_to_string = function Mem -> "mem" | File -> "file" | Mmap -> "mmap"

let kind_of_string s =
  match String.lowercase_ascii s with
  | "mem" -> Ok Mem
  | "file" -> Ok File
  | "mmap" -> Ok Mmap
  | other -> Error (Printf.sprintf "unknown backend %S (mem|file|mmap)" other)

type spec = { kind : kind; dir : string option; direct : bool }

let spec ?dir ?(direct = false) kind = { kind; dir; direct }

(* --- scratch directories ------------------------------------------ *)

let created : string list ref = ref []

let rec cleanup_dir dir =
  if Sys.file_exists dir && Sys.is_directory dir then begin
    Array.iter
      (fun f ->
        let p = Filename.concat dir f in
        if Sys.is_directory p then cleanup_dir p else Sys.remove p)
      (Sys.readdir dir);
    Sys.rmdir dir
  end

let cleanup_at_exit () =
  let dirs = !created in
  created := [];
  List.iter (fun d -> try cleanup_dir d with Sys_error _ -> ()) dirs

let exit_hook_installed = ref false

let counter = ref 0

let fresh_dir ?(prefix = "pdm-io") () =
  if not !exit_hook_installed then begin
    exit_hook_installed := true;
    at_exit cleanup_at_exit
  end;
  let base = Filename.get_temp_dir_name () in
  let rec try_next () =
    incr counter;
    let dir =
      Filename.concat base
        (Printf.sprintf "%s-%d-%d" prefix (Unix.getpid ()) !counter)
    in
    if Sys.file_exists dir then try_next ()
    else begin
      Sys.mkdir dir 0o700;
      created := dir :: !created;
      dir
    end
  in
  try_next ()

let with_dir ?prefix f =
  let dir = fresh_dir ?prefix () in
  Fun.protect ~finally:(fun () -> try cleanup_dir dir with Sys_error _ -> ())
    (fun () -> f dir)

(* --- factories ---------------------------------------------------- *)

let ensure_dir spec =
  match spec.dir with
  | Some d ->
    if not (Sys.file_exists d) then Sys.mkdir d 0o700;
    d
  | None -> fresh_dir ()

let factory spec : int Pdm_sim.Backend.factory =
 fun ~blocks ~slots ->
  match spec.kind with
  | Mem -> None
  | File ->
    (* resolved here, once per machine: distinct machines sharing one
       spec must not collide in one scratch directory *)
    let dir = ensure_dir spec in
    Some
      (fun disk ->
        File_backend.create ~dir ~disk ~blocks ~slots ~direct:spec.direct ())
  | Mmap ->
    let dir = ensure_dir spec in
    Some (fun disk -> Mmap_backend.create ~dir ~disk ~blocks ~slots ())

let factory_of_string s =
  Result.map (fun kind -> factory (spec kind)) (kind_of_string s)
