(* dsa fixture: the unit whose references keep the other fixtures'
   exports in use. It has no .mli, so it exports no [val] of its own. *)

let total =
  Export_used.used 1 + Export_internal.twice 2 + Export_stale_waiver.used 3
