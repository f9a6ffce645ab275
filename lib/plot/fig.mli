(** Figure model: a renderer-independent description of a 2-D plot.

    Build a figure with {!create} and the [add_*] functions (each returns
    the extended figure), then hand it to {!Svg_render} or
    {!Ascii_render}. [add_line] and [add_scatter] raise
    [Invalid_argument] on an [xs]/[ys] length mismatch. *)

type color = { r : int; g : int; b : int }

val black : color
val red : color
val blue : color
val green : color
val orange : color
val gray : color

type line_style = {
  color : color;
  width : float;
  dash : float list; (* empty = solid; else SVG dash pattern *)
}

val solid : ?width:float -> color -> line_style
val dashed : ?width:float -> color -> line_style

type marker = Circle | Cross | Square

type series =
  | Line of { xs : float array; ys : float array; style : line_style; label : string option }
  | Scatter of { xs : float array; ys : float array; marker : marker; color : color; size : float; label : string option }
  | Polylines of { curves : (float array * float array) list; style : line_style; label : string option }
  | Hline of { y : float; style : line_style }
  | Vline of { x : float; style : line_style }

type t = {
  title : string;
  xlabel : string;
  ylabel : string;
  x_range : (float * float) option;
  y_range : (float * float) option;
  series : series list; (* in draw order *)
}

val create : ?title:string -> ?xlabel:string -> ?ylabel:string -> unit -> t

val add_line :
  ?label:string -> ?style:line_style -> t -> xs:float array -> ys:float array -> t

val add_fun :
  ?label:string -> ?style:line_style -> ?n:int -> t ->
  f:(float -> float) -> a:float -> b:float -> t
(** Samples [f] at [n] (default 256) uniform points on [[a, b]]. *)

val add_scatter :
  ?label:string -> ?marker:marker -> ?color:color -> ?size:float -> t ->
  xs:float array -> ys:float array -> t

val add_polylines :
  ?label:string -> ?style:line_style -> t ->
  curves:(float array * float array) list -> t

val add_hline : ?style:line_style -> t -> y:float -> t
val add_vline : ?style:line_style -> t -> x:float -> t

val data_bounds : t -> (float * float) * (float * float)
(** [(x_lo, x_hi), (y_lo, y_hi)] over all series data (respecting the
    explicit ranges when set); defaults to the unit square when the figure
    has no located data. *)
