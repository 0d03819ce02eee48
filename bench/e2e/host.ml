(* Everything pdm-bench asks of the operating system: the monotonic
   clock, the daemon processes it measures, the one TCP connection that
   loads them, and /proc for memory high-water marks. pdm-lint flags
   any Unix.* outside lib/io and lib/server (R2), so each function that
   needs one carries its reason; nothing here feeds a simulated
   result. *)

(* The one clock of the benchmark: CLOCK_MONOTONIC in nanoseconds,
   through bechamel's noalloc stub. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

let children : int list ref = ref []

(* Wait up to [polls] × 10 ms for a spawned daemon to exit, then
   SIGKILL it; either way it is reaped before this returns. *)
(* pdm-lint: allow R2 — reaps the daemons this benchmark spawned, so
   none outlives it *)
let reap ~polls pid =
  let rec go polls =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when polls > 0 ->
      ignore (Unix.select [] [] [] 0.01);
      go (polls - 1)
    | 0, _ ->
      Unix.kill pid Sys.sigkill;
      snd (Unix.waitpid [] pid)
    | _, status -> status
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> Unix.WEXITED 0
  in
  children := List.filter (( <> ) pid) !children;
  go polls

let () =
  at_exit (fun () -> List.iter (fun pid -> ignore (reap ~polls:0 pid)) !children)

(* pdm-lint: allow R2 — starts the daemon under test as its own process
   and hands back the pipe its stdout (the bound port) arrives on *)
let spawn prog args =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process prog (Array.of_list (prog :: args)) Unix.stdin w
      Unix.stderr
  in
  Unix.close w;
  children := pid :: !children;
  (pid, r)

(* pdm-lint: allow R2 — bounded wait on a descriptor, so a stuck daemon
   fails the run instead of hanging it *)
let readable fd ~timeout_s =
  match Unix.select [ fd ] [] [] timeout_s with
  | [], _, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> false

(* pdm-lint: allow R2 — reads the daemon's stdout pipe and the client
   socket *)
let read fd buf = Unix.read fd buf 0 (Bytes.length buf)

(* pdm-lint: allow R2 — writes one request frame to the client socket *)
let write_all fd buf =
  let len = Bytes.length buf in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write fd buf !off (len - !off)
  done

(* pdm-lint: allow R2 — closes the daemon pipe and the client socket *)
let close fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* pdm-lint: allow R2 — graceful stop of a spawned daemon: SIGTERM makes
   it drain and exit 0 *)
let terminate pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  match reap ~polls:1000 pid with Unix.WEXITED 0 -> true | _ -> false

(* pdm-lint: allow R2 — the load generator's single loopback connection;
   TCP_NODELAY so each frame leaves when it is written *)
let connect ~port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

(* A memory field of /proc/PID/status ("VmHWM", "VmRSS") of a process,
   0 for this one, in MiB. *)
let status_mb field pid =
  let path =
    if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid
  in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let prefix = field ^ ":" in
      let rec scan () =
        match input_line ic with
        | line when String.starts_with ~prefix line ->
          Scanf.sscanf line "%_s %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | _ -> scan ()
        | exception End_of_file -> failwith ("no " ^ field ^ " in " ^ path)
      in
      scan ())

let peak_rss_mb pid = status_mb "VmHWM" pid

(* Lower this process's VmHWM to its current resident set, so a later
   peak_rss_mb 0 sees only what was allocated since. *)
let reset_peak_rss () =
  let oc = open_out "/proc/self/clear_refs" in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc "5")
