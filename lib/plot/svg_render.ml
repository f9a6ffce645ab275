let css_color (c : Fig.color) = Printf.sprintf "rgb(%d,%d,%d)" c.r c.g c.b

let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '&' -> Buffer.add_string buf "&amp;"
      | '"' -> Buffer.add_string buf "&quot;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let dash_attr (st : Fig.line_style) =
  match st.dash with
  | [] -> ""
  | ds ->
    Printf.sprintf " stroke-dasharray=\"%s\""
      (String.concat "," (List.map (Printf.sprintf "%g") ds))

let style_attrs (st : Fig.line_style) =
  Printf.sprintf "stroke=\"%s\" stroke-width=\"%g\" fill=\"none\"%s"
    (css_color st.color) st.width (dash_attr st)

(* Emit one <polyline> per finite run of points (NaN/inf break the line). *)
let add_polyline buf xscale yscale style xs ys =
  let n = Array.length xs in
  let runs = ref [] and cur = ref [] in
  for i = 0 to n - 1 do
    let x = xs.(i) and y = ys.(i) in
    if Float.is_finite x && Float.is_finite y then
      cur := (Scale.apply xscale x, Scale.apply yscale y) :: !cur
    else begin
      if !cur <> [] then runs := List.rev !cur :: !runs;
      cur := []
    end
  done;
  if !cur <> [] then runs := List.rev !cur :: !runs;
  List.iter
    (fun run ->
      if List.length run >= 2 then begin
        Buffer.add_string buf "<polyline points=\"";
        List.iter
          (fun (x, y) ->
            Buffer.add_string buf (Printf.sprintf "%.2f,%.2f " x y))
          run;
        Buffer.add_string buf (Printf.sprintf "\" %s/>\n" (style_attrs style))
      end)
    (List.rev !runs)

let marker_svg marker color size x y =
  match (marker : Fig.marker) with
  | Circle ->
    Printf.sprintf "<circle cx=\"%.2f\" cy=\"%.2f\" r=\"%g\" fill=\"%s\"/>\n" x y
      size (css_color color)
  | Square ->
    Printf.sprintf
      "<rect x=\"%.2f\" y=\"%.2f\" width=\"%g\" height=\"%g\" fill=\"%s\"/>\n"
      (x -. size) (y -. size) (2.0 *. size) (2.0 *. size) (css_color color)
  | Cross ->
    Printf.sprintf
      "<path d=\"M %.2f %.2f L %.2f %.2f M %.2f %.2f L %.2f %.2f\" \
       stroke=\"%s\" stroke-width=\"1.5\"/>\n"
      (x -. size) (y -. size) (x +. size) (y +. size) (x -. size) (y +. size)
      (x +. size) (y -. size) (css_color color)

let legend_entries (fig : Fig.t) =
  List.filter_map
    (fun s ->
      match (s : Fig.series) with
      | Line { label = Some l; style; _ } -> Some (l, style.color)
      | Scatter { label = Some l; color; _ } -> Some (l, color)
      | Polylines { label = Some l; style; _ } -> Some (l, style.color)
      | Line _ | Scatter _ | Polylines _ | Hline _ | Vline _ -> None)
    fig.series

let to_string ?(width = 640) ?(height = 480) (fig : Fig.t) =
  let margin_left = 70.0
  and margin_right = 20.0
  and margin_top = if fig.title = "" then 20.0 else 40.0
  and margin_bottom = 55.0 in
  let w = float_of_int width and h = float_of_int height in
  let px0 = margin_left and px1 = w -. margin_right in
  let py0 = h -. margin_bottom and py1 = margin_top in
  let (xlo, xhi), (ylo, yhi) = Fig.data_bounds fig in
  let pad lo hi =
    if lo = hi then (lo -. 1.0, hi +. 1.0)
    else (lo -. (0.03 *. (hi -. lo)), hi +. (0.03 *. (hi -. lo)))
  in
  let xlo, xhi = match fig.x_range with Some (a, b) -> (a, b) | None -> pad xlo xhi in
  let ylo, yhi = match fig.y_range with Some (a, b) -> (a, b) | None -> pad ylo yhi in
  let xscale = Scale.make ~domain:(xlo, xhi) ~range:(px0, px1) in
  let yscale = Scale.make ~domain:(ylo, yhi) ~range:(py0, py1) in
  let buf = Buffer.create 8192 in
  Buffer.add_string buf
    (Printf.sprintf
       "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"%d\" height=\"%d\" \
        viewBox=\"0 0 %d %d\" font-family=\"Helvetica,Arial,sans-serif\">\n\
        <rect width=\"%d\" height=\"%d\" fill=\"white\"/>\n"
       width height width height width height);
  Buffer.add_string buf
    (Printf.sprintf
       "<defs><clipPath id=\"plotarea\"><rect x=\"%.1f\" y=\"%.1f\" \
        width=\"%.1f\" height=\"%.1f\"/></clipPath></defs>\n"
       px0 py1 (px1 -. px0) (py0 -. py1));
  let xticks = Scale.nice_ticks ~lo:xlo ~hi:xhi ~count:8 in
  let yticks = Scale.nice_ticks ~lo:ylo ~hi:yhi ~count:8 in
  List.iter
    (fun tx ->
      let px = Scale.apply xscale tx in
      Buffer.add_string buf
        (Printf.sprintf
           "<line x1=\"%.1f\" y1=\"%.1f\" x2=\"%.1f\" y2=\"%.1f\" \
            stroke=\"#e0e0e0\"/>\n"
           px py0 px py1);
      Buffer.add_string buf
        (Printf.sprintf
           "<text x=\"%.1f\" y=\"%.1f\" font-size=\"11\" \
            text-anchor=\"middle\">%s</text>\n"
           px (py0 +. 16.0)
           (escape (Scale.tick_label tx))))
    xticks;
  List.iter
    (fun ty ->
      let py = Scale.apply yscale ty in
      Buffer.add_string buf
        (Printf.sprintf
           "<line x1=\"%.1f\" y1=\"%.1f\" x2=\"%.1f\" y2=\"%.1f\" \
            stroke=\"#e0e0e0\"/>\n"
           px0 py px1 py);
      Buffer.add_string buf
        (Printf.sprintf
           "<text x=\"%.1f\" y=\"%.1f\" font-size=\"11\" \
            text-anchor=\"end\">%s</text>\n"
           (px0 -. 6.0) (py +. 4.0)
           (escape (Scale.tick_label ty))))
    yticks;
  Buffer.add_string buf
    (Printf.sprintf
       "<rect x=\"%.1f\" y=\"%.1f\" width=\"%.1f\" height=\"%.1f\" \
        fill=\"none\" stroke=\"black\"/>\n"
       px0 py1 (px1 -. px0) (py0 -. py1));
  Buffer.add_string buf "<g clip-path=\"url(#plotarea)\">\n";
  let draw_series (s : Fig.series) =
    match s with
    | Line { xs; ys; style; _ } -> add_polyline buf xscale yscale style xs ys
    | Polylines { curves; style; _ } ->
      List.iter (fun (xs, ys) -> add_polyline buf xscale yscale style xs ys) curves
    | Scatter { xs; ys; marker; color; size; _ } ->
      Array.iteri
        (fun i x ->
          let y = ys.(i) in
          if Float.is_finite x && Float.is_finite y then
            Buffer.add_string buf
              (marker_svg marker color size (Scale.apply xscale x)
                 (Scale.apply yscale y)))
        xs
    | Hline { y; style } ->
      let py = Scale.apply yscale y in
      Buffer.add_string buf
        (Printf.sprintf "<line x1=\"%.1f\" y1=\"%.1f\" x2=\"%.1f\" y2=\"%.1f\" %s/>\n"
           px0 py px1 py (style_attrs style))
    | Vline { x; style } ->
      let px = Scale.apply xscale x in
      Buffer.add_string buf
        (Printf.sprintf "<line x1=\"%.1f\" y1=\"%.1f\" x2=\"%.1f\" y2=\"%.1f\" %s/>\n"
           px py0 px py1 (style_attrs style))
  in
  List.iter draw_series fig.series;
  Buffer.add_string buf "</g>\n";
  if fig.title <> "" then
    Buffer.add_string buf
      (Printf.sprintf
         "<text x=\"%.1f\" y=\"22\" font-size=\"14\" font-weight=\"bold\" \
          text-anchor=\"middle\">%s</text>\n"
         (0.5 *. (px0 +. px1))
         (escape fig.title));
  if fig.xlabel <> "" then
    Buffer.add_string buf
      (Printf.sprintf
         "<text x=\"%.1f\" y=\"%.1f\" font-size=\"12\" \
          text-anchor=\"middle\">%s</text>\n"
         (0.5 *. (px0 +. px1))
         (h -. 12.0) (escape fig.xlabel));
  if fig.ylabel <> "" then
    Buffer.add_string buf
      (Printf.sprintf
         "<text x=\"16\" y=\"%.1f\" font-size=\"12\" text-anchor=\"middle\" \
          transform=\"rotate(-90 16 %.1f)\">%s</text>\n"
         (0.5 *. (py0 +. py1))
         (0.5 *. (py0 +. py1))
         (escape fig.ylabel));
  let entries = legend_entries fig in
  if entries <> [] then begin
    let lx = px1 -. 150.0 and ly = ref (py1 +. 14.0) in
    List.iter
      (fun (label, color) ->
        Buffer.add_string buf
          (Printf.sprintf
             "<line x1=\"%.1f\" y1=\"%.1f\" x2=\"%.1f\" y2=\"%.1f\" \
              stroke=\"%s\" stroke-width=\"2\"/>\n\
              <text x=\"%.1f\" y=\"%.1f\" font-size=\"11\">%s</text>\n"
             lx !ly (lx +. 22.0) !ly (css_color color) (lx +. 28.0) (!ly +. 4.0)
             (escape label));
        ly := !ly +. 16.0)
      entries
  end;
  Buffer.add_string buf "</svg>\n";
  Buffer.contents buf

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

let write_file ?width ?height ~path fig =
  mkdir_p (Filename.dirname path);
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string ?width ?height fig))
