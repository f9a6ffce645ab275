(* dsa fixture: [helper] is exported but only its own module calls it.
   Expected findings: [unused-export] on [helper] only. *)

val helper : int -> int
val twice : int -> int
