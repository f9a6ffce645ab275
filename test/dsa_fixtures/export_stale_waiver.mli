(* dsa fixture: a justified waiver on an export that Export_user does
   use matches no finding. Expected findings: [unused-waiver] (warning). *)

(* dsa: allow unused-export — fixture: stale, the export is in use *)
val used : int -> int
