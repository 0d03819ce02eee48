module Opd = Pdm_dictionary.One_probe_dynamic
module Engine = Pdm_engine.Engine
module Prng = Pdm_util.Prng

type t = { id : int; dict : Opd.t; engine : Engine.t }

let create ?journaled ?replicas ?spares ~universe ~capacity ~block_words
    ~value_bytes ~degree ~levels ~seed ~batch id =
  let dict =
    Opd.create ?journaled ?replicas ?spares ~block_words
      { Opd.universe; capacity; degree; sigma_bits = 8 * value_bytes; levels;
        v_factor = 3; seed = Prng.hash2 ~seed 0x5eed id }
  in
  let engine =
    Engine.create
      ~config:
        { Engine.max_batch = max 1 batch; deadline_rounds = max_int / 2;
          cache_blocks = 0 }
      (Pdm_engine.Plans.one_probe_dynamic dict)
  in
  { id; dict; engine }
