(* Tests reach [Coherent] through its one entry point, [submit].  This is
   the one convenience over it: a word read paired as [(value, latency)],
   the value being what the [Read] left in the value cell. *)

module Coherent = Platinum_core.Coherent

let read coh ~now ~proc ~cmap ~vaddr =
  let lat = Coherent.submit coh ~now ~proc ~cmap (Platinum_core.Memtxn.Read { vaddr }) in
  (!(Coherent.fp_value_cell coh), lat)
