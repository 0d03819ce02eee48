type error = { disk : int; block : int; round : int }

exception Disk_failed of error

exception Retries_exhausted of { disk : int; block : int; attempts : int;
                                 round : int }

exception Corrupt_block of error

let pp_pos block round =
  let part name v = if v < 0 then "" else Printf.sprintf ", %s %d" name v in
  part "block" block ^ part "round" round

let describe = function
  | Disk_failed { disk; block; round } ->
    Some
      (Printf.sprintf "disk %d is permanently failed (no replica left%s)" disk
         (pp_pos block round))
  | Retries_exhausted { disk; block; attempts; round } ->
    Some
      (Printf.sprintf
         "disk %d gave up on block %d after %d attempts (no replica left%s)"
         disk block attempts (pp_pos (-1) round))
  | Corrupt_block { disk; block; round } ->
    Some
      (Printf.sprintf
         "disk %d block %d failed its checksum (no intact replica left%s)"
         disk block (pp_pos (-1) round))
  | _ -> None

type 'a outcome =
  | Data of 'a option array option
  | Transient
  | Lost

type 'a t = {
  name : string;
  disk : int;
  blocks : int;
  read : attempt:int -> int -> 'a outcome;
  write : int -> 'a option array -> unit;
  cost : int;
  max_retries : int;
  peek : int -> 'a option array option;
  poke : int -> 'a option array option -> unit;
  exists : int -> bool;
  barrier : unit -> unit;
}

type 'a factory = blocks:int -> slots:int -> (int -> 'a t) option

(* Each block is stored as the answer a read gives, [Data] box and
   all, so a read allocates nothing. *)
let memory ~disk ~blocks =
  let store = Array.make blocks (Data None) in
  let image b =
    match store.(b) with Data image -> image | Transient | Lost -> None
  in
  { name = "memory";
    disk;
    blocks;
    read = (fun ~attempt:_ b -> store.(b));
    write = (fun b slots -> store.(b) <- Data (Some slots));
    cost = 1;
    max_retries = 0;
    peek = image;
    poke = (fun b slots -> store.(b) <- Data slots);
    exists = (fun b -> image b <> None);
    barrier = (fun () -> ()) }

(* A disk that died at run time: its contents are unreadable even by
   [peek] — recovery must come from replicas elsewhere. *)
let dead ~disk ~blocks =
  { name = "dead";
    disk;
    blocks;
    read = (fun ~attempt:_ _ -> Lost);
    write =
      (fun block _ -> raise (Disk_failed { disk; block; round = -1 }));
    cost = 1;
    max_retries = 0;
    peek = (fun _ -> None);
    poke = (fun _ _ -> ());
    exists = (fun _ -> false);
    barrier = (fun () -> ()) }
