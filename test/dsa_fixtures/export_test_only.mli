(* dsa fixture: [probe] is called from test/test_dsa.ml and nowhere
   else; references from test/ do not count.
   Expected findings: [unused-export]. *)

val probe : unit -> int
