(* File-per-disk storage backend.

   One preallocated file holds this disk's blocks at fixed offsets
   (block b at byte b * bytes_per_block). An in-memory written bitmap
   — rebuilt from the block headers whenever an existing file is
   reopened — answers the machine's uncounted "was this ever written"
   queries without touching the platter; the counted read/write paths
   move exactly one sector-padded block image per call, encoded and
   decoded in place in a single reused aligned buffer. *)

module Backend = Pdm_sim.Backend

type state = {
  file : Raw_file.t;
  buf : Block_codec.buf;  (* one block image, sector-aligned, reused *)
  bpb : int;
  slots : int;
  blocks : int;
  written : Bytes.t;  (* bit per block *)
  mutable dirty : bool;  (* writes since the last fsync *)
}

let bit_get bm b = Char.code (Bytes.get bm (b lsr 3)) land (1 lsl (b land 7)) <> 0

let bit_set bm b v =
  let i = b lsr 3 in
  let bits = Char.code (Bytes.get bm i) in
  let mask = 1 lsl (b land 7) in
  Bytes.set bm i (Char.chr (if v then bits lor mask else bits land lnot mask))

(* Reopening an existing file: the headers on disk are authoritative.
   A file that was empty before it was opened is all zeros, so it is
   not scanned: its bitmap starts all clear. *)
let scan st =
  if not (Raw_file.fresh st.file) then
    for b = 0 to st.blocks - 1 do
      Raw_file.pread st.file st.buf ~pos:0 ~len:Block_codec.sector
        ~off:(b * st.bpb);
      if Block_codec.written st.buf ~off:0 then bit_set st.written b true
    done

let load st b =
  if not (bit_get st.written b) then None
  else begin
    Raw_file.pread st.file st.buf ~pos:0 ~len:st.bpb ~off:(b * st.bpb);
    match Block_codec.decode st.buf ~off:0 ~slots:st.slots with
    | Some _ as payload -> payload
    | None ->
      failwith
        (Printf.sprintf "%s: block %d marked written but absent on disk"
           (Raw_file.path st.file) b)
  end

let flush st b =
  Raw_file.pwrite st.file st.buf ~pos:0 ~len:st.bpb ~off:(b * st.bpb);
  st.dirty <- true

(* The counted write path: no payload box to build. *)
let store_cells st b cells =
  Block_codec.encode_cells st.buf ~off:0 ~slots:st.slots cells;
  flush st b;
  bit_set st.written b true

let store st b payload =
  Block_codec.encode st.buf ~off:0 ~slots:st.slots payload;
  flush st b;
  bit_set st.written b (payload <> None)

let file_name ~disk = Printf.sprintf "disk-%04d.pdm" disk

let create ~dir ~disk ~blocks ~slots ?(direct = false) () =
  if blocks < 1 then invalid_arg "File_backend.create: blocks >= 1";
  let bpb = Block_codec.bytes_per_block ~slots in
  let file =
    Raw_file.openfile
      ~path:(Filename.concat dir (file_name ~disk))
      ~size:(blocks * bpb) ~direct ()
  in
  let st =
    { file; buf = Block_codec.aligned bpb; bpb; slots; blocks;
      written = Bytes.make ((blocks + 7) / 8) '\000'; dirty = false }
  in
  scan st;
  { Backend.name = (if Raw_file.direct file then "file:direct" else "file");
    disk;
    blocks;
    read =
      (fun ~attempt:_ b -> Backend.Data (load st b));
    write = (fun b cells -> store_cells st b cells);
    cost = 1;
    max_retries = 0;
    peek = (fun b -> load st b);
    poke = (fun b payload -> store st b payload);
    exists = (fun b -> bit_get st.written b);
    barrier =
      (fun () ->
        if st.dirty then begin
          Raw_file.fsync st.file;
          st.dirty <- false
        end) }
