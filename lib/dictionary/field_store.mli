(** The array A of Section 4.2: v small fields packed into disk blocks.

    Stripe i of a striped expander indexes the fields stored on disk
    [disk_offset + i], so fetching the d candidate fields A[Γ(x)] of a
    key — one per disk — is a single parallel I/O even though each
    block holds many fields.

    A field is a fixed-size bit string of [field_bits] bits, held as
    the ⌈field_bits/32⌉ 32-bit words {!Field_codec} reads and writes
    (most significant bit first); an empty field (the paper's
    "empty-field marker") is represented by its first word being
    unset. Fields enter and leave the store as those words, never as
    bytes. Writes are
    read-modify-write at block granularity, as on a real device; the
    batch operations below group fields by block so composite
    structures pay the minimal number of rounds.

    Fields larger than a block are spread across ⌈field_words/B⌉
    {e groups} of disks — the paper's "if the size of the satellite
    data is too large, more disks are needed to transfer the data in
    one probe... the number of disks should be a multiple of d". The
    store then uses d × groups disks, and every lookup is still one
    parallel round. *)

type t

val plan_groups : block_words:int -> field_bits:int -> int
(** Disk groups a field of this size needs: ⌈field words / B⌉. *)

val create :
  machine:int Pdm_sim.Pdm.t ->
  disk_offset:int ->
  block_offset:int ->
  graph:Pdm_expander.Bipartite.t ->
  field_bits:int ->
  t
(** The graph must be striped; its right side indexes the fields. The
    store occupies disks
    [disk_offset, disk_offset + d × plan_groups ...). *)

val graph : t -> Pdm_expander.Bipartite.t

val field_bits : t -> int

val field_words : t -> int

val fields_per_block : t -> int

val groups : t -> int
(** Disks (= blocks) per field. *)

val disk_span : t -> int
(** d × groups: total disks the store occupies. *)

val blocks_per_disk : t -> int
(** Blocks this store occupies on each of its d disks. *)

val total_bits : t -> int
(** v × field_bits: the space usage Theorem 6 accounts. *)

val plan_blocks : t -> int
(** d × groups: the length of a key's probe plan. *)

val fill_addresses : t -> int -> Pdm_sim.Pdm.addr array -> off:int -> unit
(** [fill_addresses t key dst ~off] writes the d × groups blocks
    containing A[Γ(key)], one per disk, into [dst.(off)] …
    [dst.(off + plan_blocks t - 1)]: group block [q] of neighbor [i]'s
    field at [off + i × groups + q]. *)

val addresses : t -> int -> Pdm_sim.Pdm.addr array
(** The key's plan in a fresh array ({!fill_addresses} at offset 0). *)

val view : t -> int option array array -> off:int -> int -> Field_codec.view
(** [view t blocks ~off key] is the key's d candidate fields A[Γ(key)]
    in fetched blocks laid out as {!fill_addresses} put the plan at
    [off] (block [off + j] answers address [j] of {!addresses}): field
    [i] of the view is neighbor [i]'s, read in place by the
    {!Field_codec} decoders. *)

val read_fields : t -> int list -> (int * int array option) list
(** Fetch the given fields' words ([None] = empty), reading each
    containing block once. *)

val prepare_updates :
  t -> int -> images:int option array array -> off:int ->
  (int * int array option) list ->
  (Pdm_sim.Pdm.addr * int option array) list
(** [prepare_updates t key ~images ~off updates] applies [(i,
    content)] updates to the key's distinct neighbors [i], in fetched
    blocks laid out as for {!neighbor_field}, and returns the touched
    blocks as edited copies {b without writing them} — the caller
    folds them into a combined write round. A field's content is its
    ⌈field_bits/32⌉ words ([None] clears it). The fetched images stay
    untouched. *)

val write_fields : t -> (int * int array option) list -> unit
(** Read-modify-write without pre-fetched images. *)

val bulk_write : t -> (int * int array) list -> unit
(** Construction-time fill: group all fields by block, then write every
    touched block in one request (≈ blocks/d parallel write rounds,
    plus one read round for partially-updated blocks). Fields must be
    distinct. *)

val count_occupied : t -> int
(** Uncounted diagnostic: occupied fields. *)
