type color = { r : int; g : int; b : int }

let black = { r = 20; g = 20; b = 20 }
let red = { r = 204; g = 37; b = 41 }
let blue = { r = 57; g = 106; b = 177 }
let green = { r = 62; g = 150; b = 81 }
let orange = { r = 218; g = 124; b = 48 }
let gray = { r = 140; g = 140; b = 140 }

type line_style = { color : color; width : float; dash : float list }

let solid ?(width = 1.5) color = { color; width; dash = [] }
let dashed ?(width = 1.5) color = { color; width; dash = [ 6.0; 4.0 ] }

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
  series : series list;
}

let create ?(title = "") ?(xlabel = "") ?(ylabel = "") () =
  { title; xlabel; ylabel; x_range = None; y_range = None; series = [] }

let push t s = { t with series = t.series @ [ s ] }

let add_line ?label ?(style = solid blue) t ~xs ~ys =
  if Array.length xs <> Array.length ys then
    invalid_arg "Fig.add_line: length mismatch";
  push t (Line { xs; ys; style; label })

let add_fun ?label ?(style = solid blue) ?(n = 256) t ~f ~a ~b =
  let xs = Array.init n (fun i -> a +. ((b -. a) *. float_of_int i /. float_of_int (n - 1))) in
  let ys = Array.map f xs in
  push t (Line { xs; ys; style; label })

let add_scatter ?label ?(marker = Circle) ?(color = red) ?(size = 3.0) t ~xs ~ys =
  if Array.length xs <> Array.length ys then
    invalid_arg "Fig.add_scatter: length mismatch";
  push t (Scatter { xs; ys; marker; color; size; label })

let add_polylines ?label ?(style = solid green) t ~curves =
  push t (Polylines { curves; style; label })

let add_hline ?(style = dashed gray) t ~y = push t (Hline { y; style })
let add_vline ?(style = dashed gray) t ~x = push t (Vline { x; style })
let finite v = Float.is_finite v

let data_bounds t =
  let xlo = ref infinity and xhi = ref neg_infinity in
  let ylo = ref infinity and yhi = ref neg_infinity in
  let see_x x = if finite x then begin xlo := Float.min !xlo x; xhi := Float.max !xhi x end in
  let see_y y = if finite y then begin ylo := Float.min !ylo y; yhi := Float.max !yhi y end in
  let see_arrays xs ys =
    Array.iter see_x xs;
    Array.iter see_y ys
  in
  let see = function
    | Line { xs; ys; _ } | Scatter { xs; ys; _ } -> see_arrays xs ys
    | Polylines { curves; _ } -> List.iter (fun (xs, ys) -> see_arrays xs ys) curves
    | Hline { y; _ } -> see_y y
    | Vline { x; _ } -> see_x x
  in
  List.iter see t.series;
  let default lo hi = if !lo > !hi then (0.0, 1.0) else (!lo, !hi) in
  let xb = match t.x_range with Some r -> r | None -> default xlo xhi in
  let yb = match t.y_range with Some r -> r | None -> default ylo yhi in
  (xb, yb)
