(** SVG renderer for {!Fig.t}. *)

(* dsa: allow unused-export — test hook: the tests check the SVG document without a file *)
val to_string : ?width:int -> ?height:int -> Fig.t -> string
(** Renders a complete standalone SVG document (default 640x480). Axes,
    ticks, labels and a legend (when any series is labelled) are drawn
    automatically; data is clipped to the plot area. *)

val write_file : ?width:int -> ?height:int -> path:string -> Fig.t -> unit
(** Writes {!to_string} output to [path], creating parent directories as
    needed. *)
