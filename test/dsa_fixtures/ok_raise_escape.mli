(* dsa: allow unused-export — fixture: only the analyzer reads this module *)
val checked_sqrt : float -> float
(** Square root. Raises [Invalid_argument] on a negative input — the
    documentation this line provides is exactly what the [raise-escape]
    rule checks for. *)

(* dsa: allow unused-export — fixture: only the analyzer reads this module *)
val caught_locally : unit -> int
(* dsa: allow unused-export — fixture: only the analyzer reads this module *)
val typed_failure : unit -> 'a
