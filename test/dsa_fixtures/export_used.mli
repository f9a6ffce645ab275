(* dsa fixture: an export another unit of the library references
   (Export_user). Expected findings: none. *)

val used : int -> int
