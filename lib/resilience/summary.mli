(** Failure summary attached to partial results.

    Fan-out layers record each failed work item as a typed hole — a
    site label plus the {!Oshil_error.t} that killed it — through
    {!Guard}'s one rule, and keep going. The summary travels with the partial result so callers can
    decide whether the holes matter. *)

type failure = { site : string; error : Oshil_error.t }
(** [site] identifies the failed item, e.g. ["row a=1.25"],
    ["f_inj=9.98e8"], ["task 7"]. *)

type t = { attempted : int; failures : failure list }

val make : attempted:int -> failure list -> t
val failed : t -> int
val is_clean : t -> bool
val merge : t -> t -> t
val pp : Format.formatter -> t -> unit
val to_string : t -> string
