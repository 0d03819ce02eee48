module Ops = Pdm_dictionary.One_probe_static
module Opd = Pdm_dictionary.One_probe_dynamic
module Cascade = Pdm_dictionary.Dynamic_cascade

let one_probe_static t =
  { Engine.name = "one-probe static (4.2)"; machine = Ops.machine t;
    lookup =
      (fun key ->
        Engine.Fetch
          ( Ops.probe_addresses t key,
            fun blocks -> Engine.Done (Ops.find_in t key blocks) ));
    insert = None; delete = None }

let one_probe_dynamic t =
  { Engine.name = "one-probe dynamic (6)"; machine = Opd.machine t;
    lookup =
      (fun key ->
        Engine.Fetch
          ( Opd.probe_addresses t key,
            fun blocks -> Engine.Done (Opd.find_in t key blocks) ));
    insert = Some (Opd.insert t); delete = Some (Opd.delete t) }

let cascade t =
  { Engine.name = "cascade (4.3)"; machine = Cascade.machine t;
    lookup =
      (fun key ->
        Engine.Fetch
          ( Cascade.first_round_addresses t key,
            fun blocks ->
              match Cascade.membership_in t key blocks with
              | None -> Engine.Done None
              | Some (1, head) ->
                Engine.Done (Cascade.decode_in t key ~level:1 ~head blocks)
              | Some (level, head) ->
                Engine.Fetch
                  ( Cascade.level_addresses t key ~level,
                    fun blocks2 ->
                      Engine.Done
                        (Cascade.decode_in t key ~level ~head blocks2) ) ));
    insert = Some (Cascade.insert t); delete = Some (Cascade.delete t) }
