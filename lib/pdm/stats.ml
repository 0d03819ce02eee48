type snapshot = {
  parallel_reads : int;
  parallel_writes : int;
  block_reads : int;
  block_writes : int;
  disk_reads : int array;
  disk_writes : int array;
}

type t = {
  mutable r_rounds : int;
  mutable w_rounds : int;
  mutable r_blocks : int;
  mutable w_blocks : int;
  mutable d_reads : int array;
  mutable d_writes : int array;
}

let create () =
  { r_rounds = 0; w_rounds = 0; r_blocks = 0; w_blocks = 0;
    d_reads = [||]; d_writes = [||] }

let reset t =
  t.r_rounds <- 0;
  t.w_rounds <- 0;
  t.r_blocks <- 0;
  t.w_blocks <- 0;
  Array.fill t.d_reads 0 (Array.length t.d_reads) 0;
  Array.fill t.d_writes 0 (Array.length t.d_writes) 0

(* pdm-lint: domain local — per-simulation I/O counters owned by the scheduler's domain *)
let grow a n =
  if Array.length a >= n then a
  else begin
    let b = Array.make n 0 in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

(* The per-disk arrays grow to the highest disk index seen, so one
   stats object can serve machines of different widths. *)
(* pdm-lint: domain local — per-simulation I/O counters owned by the scheduler's domain *)
let ensure t disk =
  if Array.length t.d_reads <= disk then begin
    t.d_reads <- grow t.d_reads (disk + 1);
    t.d_writes <- grow t.d_writes (disk + 1)
  end

(* pdm-lint: domain local — per-simulation I/O counters owned by the scheduler's domain *)
let add_read_round t ~blocks ~rounds =
  t.r_blocks <- t.r_blocks + blocks;
  t.r_rounds <- t.r_rounds + rounds

(* pdm-lint: domain local — per-simulation I/O counters owned by the scheduler's domain *)
let add_write_round t ~blocks ~rounds =
  t.w_blocks <- t.w_blocks + blocks;
  t.w_rounds <- t.w_rounds + rounds

(* Highest disk first, so the arrays grow at most once. *)
(* pdm-lint: domain local — per-simulation I/O counters owned by the scheduler's domain *)
let add_disk_reads t per_disk =
  for d = Array.length per_disk - 1 downto 0 do
    let n = per_disk.(d) in
    if n > 0 then begin
      ensure t d;
      t.d_reads.(d) <- t.d_reads.(d) + n
    end
  done

(* pdm-lint: domain local — per-simulation I/O counters owned by the scheduler's domain *)
let add_disk_writes t per_disk =
  for d = Array.length per_disk - 1 downto 0 do
    let n = per_disk.(d) in
    if n > 0 then begin
      ensure t d;
      t.d_writes.(d) <- t.d_writes.(d) + n
    end
  done

let snapshot t =
  { parallel_reads = t.r_rounds;
    parallel_writes = t.w_rounds;
    block_reads = t.r_blocks;
    block_writes = t.w_blocks;
    disk_reads = Array.copy t.d_reads;
    disk_writes = Array.copy t.d_writes }

let map2_padded f a b =
  let n = max (Array.length a) (Array.length b) in
  Array.init n (fun i ->
      let get x = if i < Array.length x then x.(i) else 0 in
      f (get a) (get b))

let diff ~after ~before =
  { parallel_reads = after.parallel_reads - before.parallel_reads;
    parallel_writes = after.parallel_writes - before.parallel_writes;
    block_reads = after.block_reads - before.block_reads;
    block_writes = after.block_writes - before.block_writes;
    disk_reads = map2_padded ( - ) after.disk_reads before.disk_reads;
    disk_writes = map2_padded ( - ) after.disk_writes before.disk_writes }

let parallel_ios s = s.parallel_reads + s.parallel_writes

let zero =
  { parallel_reads = 0; parallel_writes = 0; block_reads = 0;
    block_writes = 0; disk_reads = [||]; disk_writes = [||] }

let add a b =
  { parallel_reads = a.parallel_reads + b.parallel_reads;
    parallel_writes = a.parallel_writes + b.parallel_writes;
    block_reads = a.block_reads + b.block_reads;
    block_writes = a.block_writes + b.block_writes;
    disk_reads = map2_padded ( + ) a.disk_reads b.disk_reads;
    disk_writes = map2_padded ( + ) a.disk_writes b.disk_writes }

let disk_totals s = map2_padded ( + ) s.disk_reads s.disk_writes

type occupancy = { max_load : int; mean_load : float }

let occupancy s =
  let totals = disk_totals s in
  let n = Array.length totals in
  if n = 0 then None
  else
    let sum = Array.fold_left ( + ) 0 totals in
    if sum = 0 then None
    else
      Some
        { max_load = Array.fold_left max 0 totals;
          mean_load = float_of_int sum /. float_of_int n }

let pp ppf s =
  Format.fprintf ppf "%d parallel I/Os (%dR + %dW rounds; %d + %d blocks)"
    (parallel_ios s) s.parallel_reads s.parallel_writes s.block_reads
    s.block_writes;
  match occupancy s with
  | None -> ()
  | Some o ->
    Format.fprintf ppf "; disk load max %d / mean %.1f" o.max_load o.mean_load

let measure t f =
  let before = snapshot t in
  let result = f () in
  let after = snapshot t in
  (result, diff ~after ~before)
