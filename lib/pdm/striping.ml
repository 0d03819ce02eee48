type 'a t = { pdm : 'a Pdm.t }

let create pdm = { pdm }

let machine s = s.pdm

let superblock_size s = Pdm.disks s.pdm * Pdm.block_size s.pdm

let superblocks s = Pdm.blocks_per_disk s.pdm

let addr j i = { Pdm.disk = i; block = j }

(* Answer i is disk i's block, so the superblock is the answers in
   order. *)
let read s j =
  let parts = Pdm.read s.pdm (Array.init (Pdm.disks s.pdm) (addr j)) in
  Array.concat (Array.to_list parts)

let write s j block =
  if Array.length block <> superblock_size s then
    invalid_arg "Striping.write: superblock has wrong length";
  let b = Pdm.block_size s.pdm in
  Pdm.write s.pdm
    (List.init (Pdm.disks s.pdm) (fun i ->
         (addr j i, Array.sub block (i * b) b)))
