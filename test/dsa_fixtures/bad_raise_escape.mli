(* The interface is silent about the exception — that silence is the
   defect this fixture pins. *)

(* dsa: allow unused-export — fixture: only the analyzer reads this module *)
val checked_sqrt : float -> float
(** Square root of a non-negative number. *)
