(** Axis scaling: data-to-pixel mapping and "nice" tick generation. *)

type t
(** A linear mapping from a data interval to a pixel interval. *)

val make : domain:float * float -> range:float * float -> t
(** [make ~domain:(d0, d1) ~range:(r0, r1)]: maps [d0 -> r0], [d1 -> r1].
    A degenerate domain ([d0 = d1]) is widened by 1 (or 10% of magnitude)
    so the mapping stays well defined. *)

val apply : t -> float -> float

val nice_ticks : lo:float -> hi:float -> count:int -> float list
(** Round tick positions covering [[lo, hi]] at 1/2/5×10^k spacing, aiming
    for about [count] ticks. *)

val tick_label : float -> string
(** Compact label: trims trailing zeros, switches to scientific notation
    outside [1e-4, 1e6). *)
