(* dsa fixture: a justified waiver suppresses the unused-export finding
   on the line below it. Expected findings: none. *)

(* dsa: allow unused-export — fixture: a test hook nothing else calls *)
val reset : unit -> unit
