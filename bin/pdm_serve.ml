(* pdm-serve: the multicore TCP daemon over the deterministic data
   plane (DESIGN.md §15). All socket work lives in Pdm_server; this
   binary only parses flags, reads PDM_SANITIZE, prints the bound port
   and wires SIGTERM/SIGINT to the graceful stop (drain every admitted
   frame, join the worker domains, exit 0). *)

module Server = Pdm_server.Server
module Data_plane = Pdm_server.Data_plane

open Cmdliner

let run_serve port shards domains capacity replicas spares seed batch
    queue_cap =
  if shards < 1 then `Error (false, "--shards must be >= 1")
  else if domains < 1 then `Error (false, "--domains must be >= 1")
  else begin
    (* PDM_SANITIZE=1 runs every shard machine under the runtime
       sanitizer; it is set before any worker domain starts, and a
       violation answers the request it surfaced in as Unavailable. *)
    (match Sys.getenv_opt "PDM_SANITIZE" with
     | Some ("1" | "true" | "yes") -> Pdm_sim.Pdm.set_sanitize true
     | _ -> ());
    let plane =
      { Data_plane.default_config with
        Data_plane.shards;
        shard_capacity = max 8 (capacity / shards);
        replicas; spares; seed; max_batch = max 1 batch }
    in
    let t = Server.create ~port { Server.plane; domains; queue_cap } in
    let stop _ = Server.request_stop t in
    Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
    Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
    Printf.printf "pdm-serve listening on %d (%d shards, %d domains)\n%!"
      (Server.port t) shards domains;
    Server.run t;
    let c = Server.counters t in
    Printf.printf
      "pdm-serve stopped: %d conns, %d frames, %d busy, %d unavailable, \
       %d protocol errors\n%!"
      c.Server.conns c.Server.frames c.Server.busy c.Server.unavailable
      c.Server.proto_errors;
    `Ok ()
  end

let port_arg =
  Arg.(value & opt int 0
       & info [ "port" ] ~docv:"PORT"
           ~doc:"TCP port to bind on loopback; 0 picks an ephemeral port \
                 (printed on stdout).")

let shards_arg =
  Arg.(value & opt int 4
       & info [ "shards" ] ~docv:"S" ~doc:"Shards (dictionary + engine).")

let domains_arg =
  Arg.(value & opt int 2
       & info [ "domains" ] ~docv:"W"
           ~doc:"Worker domains; shard s is owned by domain s mod W.")

let capacity_arg =
  Arg.(value & opt int 4096
       & info [ "n"; "capacity" ] ~docv:"N"
           ~doc:"Total key capacity, split across shards.")

let replicas_arg =
  Arg.(value & opt int 2
       & info [ "replicas" ] ~docv:"R"
           ~doc:"Disk-level replicas inside each shard.")

let spares_arg =
  Arg.(value & opt int 1
       & info [ "spares" ] ~docv:"H"
           ~doc:"Hot-spare disks per shard machine.")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Master seed.")

let batch_arg =
  Arg.(value & opt int 64
       & info [ "batch" ] ~docv:"M" ~doc:"Per-shard engine batch size.")

let queue_cap_arg =
  Arg.(value & opt int 1024
       & info [ "queue-cap" ] ~docv:"Q"
           ~doc:"Max jobs queued per worker mailbox; overflow answers a \
                 typed Busy reply.")

let cmd =
  let doc = "serve the parallel-disk dictionary over TCP" in
  Cmd.v
    (Cmd.info "pdm-serve" ~version:"%%VERSION%%" ~doc)
    Term.(ret
            (const run_serve $ port_arg $ shards_arg $ domains_arg
             $ capacity_arg $ replicas_arg $ spares_arg $ seed_arg
             $ batch_arg $ queue_cap_arg))

let () = exit (Cmd.eval cmd)
