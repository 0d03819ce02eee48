(** Striping: the D disks viewed as one logical disk with block size
    B·D.

    This is the classical way to exploit disk parallelism (Section 1):
    logical superblock [j] consists of physical block [j] on every
    disk, so reading or writing one superblock is exactly one parallel
    I/O. The hashing baselines and the B-tree store their nodes in
    superblocks.

    Within a superblock of length B·D, slots [i·B, (i+1)·B) live on
    disk [i]. *)

type 'a t

val create : 'a Pdm.t -> 'a t
(** View an existing machine through striping. I/O is charged to the
    machine's stats as usual. *)

val machine : 'a t -> 'a Pdm.t

val superblock_size : 'a t -> int
(** B·D items. *)

val superblocks : 'a t -> int
(** Number of logical superblocks (= blocks per disk). *)

val read : 'a t -> int -> 'a option array
(** [read s j] fetches superblock [j] in one parallel I/O: one
    positional {!Pdm.read} of block [j] on every disk, whose answer [i]
    fills slots [i·B, (i+1)·B). The superblock is a fresh array. *)

val write : 'a t -> int -> 'a option array -> unit
(** [write s j block] stores superblock [j] in one parallel I/O. The
    array must have length [superblock_size s]. *)
