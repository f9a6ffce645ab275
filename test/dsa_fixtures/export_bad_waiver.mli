(* dsa fixture: a waiver without a justification does not suppress.
   Expected findings: [bad-waiver] (warning) and [unused-export]. *)

(* dsa: allow unused-export *)
val orphan : int -> int
