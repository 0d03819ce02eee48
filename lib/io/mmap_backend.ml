(* Memory-mapped storage backend for read-mostly workloads.

   The whole disk file is mapped shared; reads decode straight out of
   the mapping (no syscall, no byte copy — the only allocation is the
   payload array) and writes encode straight into it. The barrier is
   msync, making the durability contract identical to the file
   backend's fsync. Reopening scans the mapped headers exactly like
   File_backend reopens its file; a file that was empty before it was
   opened is not scanned. *)

module Backend = Pdm_sim.Backend

external msync_stub : Block_codec.buf -> unit = "caml_pdm_io_msync"

type state = {
  map : Block_codec.buf;
  bpb : int;
  slots : int;
  blocks : int;
  written : Bytes.t;
  mutable dirty : bool;
}

let bit_get bm b = Char.code (Bytes.get bm (b lsr 3)) land (1 lsl (b land 7)) <> 0

let bit_set bm b v =
  let i = b lsr 3 in
  let bits = Char.code (Bytes.get bm i) in
  let mask = 1 lsl (b land 7) in
  Bytes.set bm i (Char.chr (if v then bits lor mask else bits land lnot mask))

let load st b =
  if not (bit_get st.written b) then None
  else
    match Block_codec.decode st.map ~off:(b * st.bpb) ~slots:st.slots with
    | Some _ as payload -> payload
    | None ->
      failwith
        (Printf.sprintf "mmap backend: block %d marked written but absent" b)

let store_cells st b cells =
  Block_codec.encode_cells st.map ~off:(b * st.bpb) ~slots:st.slots cells;
  bit_set st.written b true;
  st.dirty <- true

let store st b payload =
  Block_codec.encode st.map ~off:(b * st.bpb) ~slots:st.slots payload;
  bit_set st.written b (payload <> None);
  st.dirty <- true

let create ~dir ~disk ~blocks ~slots () =
  if blocks < 1 then invalid_arg "Mmap_backend.create: blocks >= 1";
  let bpb = Block_codec.bytes_per_block ~slots in
  let size = blocks * bpb in
  let path = Filename.concat dir (File_backend.file_name ~disk) in
  (* Raw_file preallocates (mapping past end-of-file would SIGBUS);
     the descriptor can close once the mapping exists. *)
  let file = Raw_file.openfile ~path ~size () in
  let fresh = Raw_file.fresh file in
  let map =
    Bigarray.array1_of_genarray
      (Unix.map_file (Raw_file.fd file) Bigarray.Char Bigarray.c_layout true
         [| size |])
  in
  Raw_file.close file;
  let st =
    { map; bpb; slots; blocks;
      written = Bytes.make ((blocks + 7) / 8) '\000'; dirty = false }
  in
  (* A file that was empty before it was opened has no headers. *)
  if not fresh then
    for b = 0 to blocks - 1 do
      if Block_codec.written map ~off:(b * bpb) then bit_set st.written b true
    done;
  { Backend.name = "mmap";
    disk;
    blocks;
    read = (fun ~attempt:_ b -> Backend.Data (load st b));
    write = (fun b cells -> store_cells st b cells);
    cost = 1;
    max_retries = 0;
    peek = (fun b -> load st b);
    poke = (fun b payload -> store st b payload);
    exists = (fun b -> bit_get st.written b);
    barrier =
      (fun () ->
        if st.dirty then begin
          msync_stub st.map;
          st.dirty <- false
        end) }
