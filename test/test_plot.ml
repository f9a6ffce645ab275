(* Tests for the plotting library. *)

open Plotkit

let check_float ?(eps = 1e-9) msg expected got =
  Alcotest.(check (float eps)) msg expected got

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  ln = 0 || go 0

(* Scale *)

let test_scale_apply_invert () =
  let s = Scale.make ~domain:(0.0, 10.0) ~range:(100.0, 200.0) in
  check_float "apply lo" 100.0 (Scale.apply s 0.0);
  check_float "apply hi" 200.0 (Scale.apply s 10.0);
  check_float "apply mid" 150.0 (Scale.apply s 5.0)

let test_scale_degenerate () =
  let s = Scale.make ~domain:(3.0, 3.0) ~range:(0.0, 1.0) in
  Alcotest.(check bool) "finite output" true (Float.is_finite (Scale.apply s 3.0))

let test_nice_ticks () =
  let ticks = Scale.nice_ticks ~lo:0.0 ~hi:10.0 ~count:5 in
  Alcotest.(check bool) "covers range" true (List.length ticks >= 3);
  List.iter
    (fun t -> Alcotest.(check bool) "in range" true (t >= -1e-9 && t <= 10.0 +. 1e-9))
    ticks;
  (* spacing snapped to 1/2/5 decades *)
  match ticks with
  | a :: b :: _ ->
    let step = b -. a in
    let mant = step /. Float.pow 10.0 (Float.floor (Float.log10 step)) in
    Alcotest.(check bool) "125 spacing" true
      (List.exists (fun m -> Float.abs (mant -. m) < 1e-9) [ 1.0; 2.0; 5.0; 10.0 ])
  | _ -> Alcotest.fail "too few ticks"

let prop_ticks_sorted =
  Qseed.qtest ~count:100 "scale: ticks sorted and inside"
    QCheck.(pair (float_range (-100.0) 100.0) (float_range 0.1 100.0))
       (fun (lo, span) ->
         let hi = lo +. span in
         let ticks = Scale.nice_ticks ~lo ~hi ~count:8 in
         let rec sorted = function
           | a :: (b :: _ as rest) -> a < b && sorted rest
           | _ -> true
         in
         sorted ticks
         && List.for_all (fun t -> t >= lo -. 1e-6 && t <= hi +. 1e-6) ticks)

let test_tick_label () =
  Alcotest.(check string) "zero" "0" (Scale.tick_label 0.0);
  Alcotest.(check string) "int" "5" (Scale.tick_label 5.0);
  Alcotest.(check bool) "sci for big" true
    (contains (Scale.tick_label 3.2e8) "e")

(* Fig *)

let test_fig_bounds () =
  let fig =
    Fig.add_line (Fig.create ()) ~xs:[| 0.0; 2.0 |] ~ys:[| -1.0; 3.0 |]
  in
  let (xlo, xhi), (ylo, yhi) = Fig.data_bounds fig in
  check_float "xlo" 0.0 xlo;
  check_float "xhi" 2.0 xhi;
  check_float "ylo" (-1.0) ylo;
  check_float "yhi" 3.0 yhi

let test_fig_bounds_explicit_range () =
  let fig =
    {
      (Fig.add_line (Fig.create ()) ~xs:[| 0.0; 2.0 |] ~ys:[| 0.0; 1.0 |]) with
      Fig.x_range = Some (-5.0, 5.0);
    }
  in
  let (xlo, xhi), _ = Fig.data_bounds fig in
  check_float "explicit xlo" (-5.0) xlo;
  check_float "explicit xhi" 5.0 xhi

let test_fig_bounds_ignores_nan () =
  let fig =
    Fig.add_line (Fig.create ()) ~xs:[| 0.0; 1.0; 2.0 |] ~ys:[| 1.0; Float.nan; 2.0 |]
  in
  let _, (ylo, yhi) = Fig.data_bounds fig in
  check_float "ylo skips nan" 1.0 ylo;
  check_float "yhi skips nan" 2.0 yhi

let test_fig_add_fun () =
  let fig = Fig.add_fun (Fig.create ()) ~f:(fun x -> x *. x) ~a:0.0 ~b:2.0 in
  let _, (ylo, yhi) = Fig.data_bounds fig in
  check_float ~eps:1e-6 "f min" 0.0 ylo;
  check_float ~eps:1e-6 "f max" 4.0 yhi

let test_fig_mismatch () =
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Fig.add_line: length mismatch") (fun () ->
      ignore (Fig.add_line (Fig.create ()) ~xs:[| 0.0 |] ~ys:[| 0.0; 1.0 |]))

(* SVG *)

let sample_fig () =
  let fig = Fig.create ~title:"T<am>p" ~xlabel:"x" ~ylabel:"y" () in
  let fig = Fig.add_line ~label:"curve" fig ~xs:[| 0.0; 1.0; 2.0 |] ~ys:[| 0.0; 1.0; 0.0 |] in
  let fig = Fig.add_scatter fig ~xs:[| 0.5 |] ~ys:[| 0.5 |] in
  let fig = Fig.add_hline fig ~y:0.5 in
  Fig.add_vline fig ~x:1.0

let test_svg_structure () =
  let svg = Svg_render.to_string (sample_fig ()) in
  Alcotest.(check bool) "svg root" true (contains svg "<svg");
  Alcotest.(check bool) "polyline present" true (contains svg "<polyline");
  Alcotest.(check bool) "scatter present" true (contains svg "<circle");
  Alcotest.(check bool) "text escaped" true (contains svg "T&lt;am&gt;p");
  Alcotest.(check bool) "legend entry" true (contains svg "curve");
  Alcotest.(check bool) "closing tag" true (contains svg "</svg>")

let test_svg_size () =
  let svg = Svg_render.to_string ~width:800 ~height:300 (sample_fig ()) in
  Alcotest.(check bool) "width attr" true (contains svg "width=\"800\"");
  Alcotest.(check bool) "height attr" true (contains svg "height=\"300\"")

let test_svg_write_file () =
  let path = Filename.temp_file "oshil" ".svg" in
  Svg_render.write_file ~path (sample_fig ());
  let ic = open_in path in
  let len = in_channel_length ic in
  close_in ic;
  Sys.remove path;
  Alcotest.(check bool) "non-empty file" true (len > 500)

let count_occurrences hay needle =
  let lh = String.length hay and ln = String.length needle in
  let count = ref 0 in
  for i = 0 to lh - ln do
    if String.sub hay i ln = needle then incr count
  done;
  !count

let test_svg_nan_breaks_line () =
  let fig =
    Fig.add_line (Fig.create ())
      ~xs:[| 0.0; 1.0; 2.0; 3.0; 4.0 |]
      ~ys:[| 0.0; 1.0; Float.nan; 1.0; 0.0 |]
  in
  let svg = Svg_render.to_string fig in
  (* the NaN splits the series into two polylines *)
  Alcotest.(check bool) "two runs" true (count_occurrences svg "<polyline" >= 2)

(* ASCII *)

let test_ascii_dimensions () =
  let out = Ascii_render.to_string ~cols:40 ~rows:10 (sample_fig ()) in
  let lines = String.split_on_char '\n' out in
  Alcotest.(check bool) "enough rows" true (List.length lines >= 12)

let test_ascii_contains_glyph () =
  let out = Ascii_render.to_string (sample_fig ()) in
  Alcotest.(check bool) "glyph plotted" true (String.contains out '*')

let () =
  Alcotest.run "plot"
    [
      ( "scale",
        [
          Alcotest.test_case "apply/invert" `Quick test_scale_apply_invert;
          Alcotest.test_case "degenerate" `Quick test_scale_degenerate;
          Alcotest.test_case "nice ticks" `Quick test_nice_ticks;
          prop_ticks_sorted;
          Alcotest.test_case "tick label" `Quick test_tick_label;
        ] );
      ( "fig",
        [
          Alcotest.test_case "bounds" `Quick test_fig_bounds;
          Alcotest.test_case "explicit range" `Quick test_fig_bounds_explicit_range;
          Alcotest.test_case "nan skipped" `Quick test_fig_bounds_ignores_nan;
          Alcotest.test_case "add_fun" `Quick test_fig_add_fun;
          Alcotest.test_case "mismatch" `Quick test_fig_mismatch;
        ] );
      ( "svg",
        [
          Alcotest.test_case "structure" `Quick test_svg_structure;
          Alcotest.test_case "size" `Quick test_svg_size;
          Alcotest.test_case "write file" `Quick test_svg_write_file;
          Alcotest.test_case "nan breaks line" `Quick test_svg_nan_breaks_line;
        ] );
      ( "ascii",
        [
          Alcotest.test_case "dimensions" `Quick test_ascii_dimensions;
          Alcotest.test_case "glyph" `Quick test_ascii_contains_glyph;
        ] );
    ]
