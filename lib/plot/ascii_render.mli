(** Terminal renderer for {!Fig.t}: a coarse character-cell plot, handy for
    CLI output and quick looks at describing-function curves. *)

(* dsa: allow unused-export — test hook: the tests check the character grid without stdout *)
val to_string : ?cols:int -> ?rows:int -> Fig.t -> string
(** Renders into a [cols] x [rows] character grid (default 72 x 24) with a
    simple frame and min/max annotations. Different series cycle through
    the glyphs [*, +, o, x, #, @]. *)

val print : ?cols:int -> ?rows:int -> Fig.t -> unit
(** [to_string] to stdout. *)
