let glyphs = [| '*'; '+'; 'o'; 'x'; '#'; '@' |]

let to_string ?(cols = 72) ?(rows = 24) (fig : Fig.t) =
  let (xlo, xhi), (ylo, yhi) = Fig.data_bounds fig in
  let xlo, xhi = if xlo = xhi then (xlo -. 1.0, xhi +. 1.0) else (xlo, xhi) in
  let ylo, yhi = if ylo = yhi then (ylo -. 1.0, yhi +. 1.0) else (ylo, yhi) in
  let grid = Array.make_matrix rows cols ' ' in
  let col_of x =
    int_of_float (Float.round ((x -. xlo) /. (xhi -. xlo) *. float_of_int (cols - 1)))
  in
  let row_of y =
    (rows - 1)
    - int_of_float
        (Float.round ((y -. ylo) /. (yhi -. ylo) *. float_of_int (rows - 1)))
  in
  let put x y ch =
    if Float.is_finite x && Float.is_finite y then begin
      let c = col_of x and r = row_of y in
      if c >= 0 && c < cols && r >= 0 && r < rows then grid.(r).(c) <- ch
    end
  in
  let plot_arrays xs ys ch =
    (* draw with simple linear interpolation between consecutive samples so
       steep curves stay connected *)
    let n = Array.length xs in
    for i = 0 to n - 1 do
      put xs.(i) ys.(i) ch
    done;
    for i = 0 to n - 2 do
      if
        Float.is_finite xs.(i) && Float.is_finite ys.(i)
        && Float.is_finite xs.(i + 1)
        && Float.is_finite ys.(i + 1)
      then begin
        let steps = 4 in
        for s = 1 to steps - 1 do
          let f = float_of_int s /. float_of_int steps in
          put
            (xs.(i) +. (f *. (xs.(i + 1) -. xs.(i))))
            (ys.(i) +. (f *. (ys.(i + 1) -. ys.(i))))
            ch
        done
      end
    done
  in
  let idx = ref 0 in
  let next_glyph () =
    let g = glyphs.(!idx mod Array.length glyphs) in
    incr idx;
    g
  in
  List.iter
    (fun (s : Fig.series) ->
      match s with
      | Line { xs; ys; _ } -> plot_arrays xs ys (next_glyph ())
      | Scatter { xs; ys; _ } -> plot_arrays xs ys (next_glyph ())
      | Polylines { curves; _ } ->
        let g = next_glyph () in
        List.iter (fun (xs, ys) -> plot_arrays xs ys g) curves
      | Hline { y; _ } ->
        let r = row_of y in
        if r >= 0 && r < rows then
          for c = 0 to cols - 1 do
            if grid.(r).(c) = ' ' then grid.(r).(c) <- '-'
          done
      | Vline { x; _ } ->
        let c = col_of x in
        if c >= 0 && c < cols then
          for r = 0 to rows - 1 do
            if grid.(r).(c) = ' ' then grid.(r).(c) <- '|'
          done)
    fig.series;
  let buf = Buffer.create ((rows + 4) * (cols + 4)) in
  if fig.title <> "" then Buffer.add_string buf (fig.title ^ "\n");
  Buffer.add_string buf (Printf.sprintf "%12s +%s+\n" (Scale.tick_label yhi) (String.make cols '-'));
  Array.iteri
    (fun r row ->
      let label =
        if r = rows - 1 then Printf.sprintf "%12s " (Scale.tick_label ylo)
        else String.make 13 ' '
      in
      Buffer.add_string buf label;
      Buffer.add_char buf '|';
      Array.iter (Buffer.add_char buf) row;
      Buffer.add_string buf "|\n")
    grid;
  Buffer.add_string buf (Printf.sprintf "%12s +%s+\n" "" (String.make cols '-'));
  let xlo_label = Scale.tick_label xlo in
  Buffer.add_string buf
    (Printf.sprintf "%13s%s%*s\n" "" xlo_label
       (cols - String.length xlo_label)
       (Scale.tick_label xhi));
  if fig.xlabel <> "" then
    Buffer.add_string buf (Printf.sprintf "%*s\n" ((cols / 2) + 13 + (String.length fig.xlabel / 2)) fig.xlabel);
  Buffer.contents buf

(* mlint: allow printf — [print] exists precisely to write the figure to stdout *)
let print ?cols ?rows fig = print_string (to_string ?cols ?rows fig)
