(* Smoke and contract tests for the experiment drivers (prediction-side
   paths only; the heavy simulation paths run in `oshil experiments`,
   whose --fast pass is pinned by test/golden/experiments_fast.expected). *)

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  ln = 0 || go 0

let has_row (out : Experiments.Output.t) key =
  List.exists (fun (k, _) -> k = key) out.rows

let check_row out key =
  Alcotest.(check bool) (Printf.sprintf "row %S present" key) true (has_row out key)

let row_float (out : Experiments.Output.t) key =
  match List.assoc_opt key out.rows with
  | Some v -> float_of_string v
  | None -> Alcotest.failf "row %S missing" key

(* Output plumbing *)

let test_output_print () =
  let out =
    Experiments.Output.make ~id:"T0" ~title:"demo"
      ~rows:[ ("alpha", "1"); ("beta long key", "2") ]
      ()
  in
  let text = Format.asprintf "%a" Experiments.Output.print out in
  Alcotest.(check bool) "banner" true (contains text "=== [T0] demo");
  Alcotest.(check bool) "keys aligned and present" true
    (contains text "alpha" && contains text "beta long key")

let test_output_write_figures () =
  let dir = Filename.temp_file "oshil" "figs" in
  Sys.remove dir;
  let fig = Plotkit.Fig.add_line (Plotkit.Fig.create ()) ~xs:[| 0.; 1. |] ~ys:[| 0.; 1. |] in
  let out =
    Experiments.Output.make ~id:"T0" ~title:"demo" ~figures:[ ("line", fig) ] ()
  in
  match Experiments.Output.write_figures ~dir out with
  | [ path ] ->
    Alcotest.(check bool) "file written" true (Sys.file_exists path);
    Alcotest.(check bool) "named by id and stem" true (contains path "T0_line.svg");
    Sys.remove path
  | _ -> Alcotest.fail "expected one figure path"

(* Tanh experiments (fast paths) *)

let test_fig3 () =
  let out =
    Experiments.Tanh_experiments.fig3_natural ~validate:false
      Experiments.Tanh_experiments.default_setup
  in
  Alcotest.(check (float 1e-3)) "predicted A" 1.1582
    (row_float out "predicted A (V)");
  Alcotest.(check bool) "one figure" true (List.length out.figures = 1)

let test_fig6 () =
  let out = Experiments.Tanh_experiments.fig6_tank Experiments.Tanh_experiments.default_setup in
  Alcotest.(check (float 1.0)) "fc" 1e6 (row_float out "f_c (Hz)");
  Alcotest.(check (float 1e-6)) "Q" 10.0 (row_float out "Q");
  Alcotest.(check int) "two figures" 2 (List.length out.figures)

let test_fig7 () =
  let out = Experiments.Tanh_experiments.fig7_solutions Experiments.Tanh_experiments.default_setup in
  check_row out "number of locks";
  Alcotest.(check string) "two locks" "2" (List.assoc "number of locks" out.rows)

let test_fig9 () =
  let out = Experiments.Tanh_experiments.fig9_states Experiments.Tanh_experiments.default_setup in
  Alcotest.(check (float 1e-6)) "spacing 2pi/3"
    (2.0 *. Float.pi /. 3.0)
    (row_float out "state spacing (rad)")

let test_fig10_prediction_only () =
  let out =
    Experiments.Tanh_experiments.fig10_lock_range ~validate:false
      Experiments.Tanh_experiments.default_setup
  in
  let lo = row_float out "f_inj low (Hz)" and hi = row_float out "f_inj high (Hz)" in
  Alcotest.(check bool) "band straddles 3 MHz" true (lo < 3e6 && 3e6 < hi)

(* Benches (construction + prediction side) *)

let tanh_osc = Circuits.Tanh_osc.oscillator Circuits.Tanh_osc.default

let test_diff_pair_bench () =
  let b = Experiments.Osc_experiments.diff_pair in
  let cell = Api.Cells.of_spec (Api.Request.Builtin b.cell) in
  Alcotest.(check (float 1.0)) "fc" Circuits.Diff_pair.fc_paper
    (Shil.Tank.f_c cell.tank);
  let out = Experiments.Osc_experiments.fig_fv b in
  Alcotest.(check string) "id F12a" "F12a" out.id;
  let out2 = Experiments.Osc_experiments.table_lock_range ~predict_only:true b in
  Alcotest.(check string) "id T1" "T1" out2.id;
  Alcotest.(check (float 100.0)) "calibrated lock range" 17670.0
    (row_float out2 "prediction lock range (Hz)")

(* Pins of the §IV device cells the experiments simulate. For each
   cell: the MD5 of [Spice.Netlist.to_string] of its free netlist, of its
   netlist injected at n = 3, V_i = 0.03 and f_inj = 3 f_c, and of that
   injected netlist with the two state-flip pulses of Figs. 15/19; and
   the MD5 of the bits ([%h]) of its f(v) extraction table. *)
let md5 s = Digest.to_hex (Digest.string s)

let table_bits (vs, is) =
  String.concat " " (Array.to_list (Array.map (Printf.sprintf "%h") (Array.append vs is)))

let cell_pins name =
  let cell = Api.Cells.of_spec (Api.Request.Builtin name) in
  let netlist c = md5 (Spice.Netlist.to_string c) in
  let fc = Shil.Tank.f_c cell.tank in
  let flip = Option.get cell.flip in
  let off1, off2 = flip.offsets in
  let window = 800.0 /. fc in
  let pulses =
    [
      flip.pulse ~at:(window +. (off1 /. fc));
      flip.pulse ~at:((2.0 *. window) +. (off2 /. fc));
    ]
  in
  let injected = Some { Api.Cells.n = 3; vi = 0.03; f_inj = 3.0 *. fc } in
  [
    ("free", netlist (cell.circuit None));
    ("injected", netlist (cell.circuit injected));
    ("pulsed", netlist (cell.circuit ~extra:pulses injected));
    ("f(v) bits", md5 (table_bits (cell.fv ())));
  ]

let test_cell_pins () =
  List.iter
    (fun (cell, expected) ->
      List.iter2
        (fun (what, want) (what', got) ->
          assert (what = what');
          Alcotest.(check string) (Printf.sprintf "%s %s" cell what) want got)
        expected (cell_pins cell))
    [
      ( "diffpair",
        [
          ("free", "4a2d85a156ed96ab716e451651797375");
          ("injected", "74f5a73f5665dff86134a7f5bb1b30d8");
          ("pulsed", "d3008dc94322c52c5c932ec204c6d6a8");
          ("f(v) bits", "d6637759241feff6a8d8936ac87df5a3");
        ] );
      ( "tunnel",
        [
          ("free", "319278c19dc4da04e3f9bc58f8a834c0");
          ("injected", "e3f23fe10eaac622c855abce764d8854");
          ("pulsed", "0d9cbce1b98ba0d0c3256b096dbedaa9");
          ("f(v) bits", "3acfd492f31c67451c3ce621a93e5183");
        ] );
    ]

let test_tongue_monotone () =
  (* the lock band must widen monotonically with injection strength and
     contain 3 f_c at every strength *)
  let osc = Circuits.Tanh_osc.oscillator Circuits.Tanh_osc.default in
  let pts, failures =
    Experiments.Tongue_experiment.compute ~points:256
      ~vis:[ 0.01; 0.05; 0.15 ] osc ~n:3
  in
  Alcotest.(check bool) "no holes" true
    (Resilience.Summary.is_clean failures);
  let widths = List.map (fun (p : Experiments.Tongue_experiment.point) -> p.delta_f_inj) pts in
  (match widths with
  | [ a; b; c ] ->
    Alcotest.(check bool) "monotone widening" true (a < b && b < c)
  | _ -> Alcotest.fail "expected three points");
  List.iter
    (fun (p : Experiments.Tongue_experiment.point) ->
      Alcotest.(check bool) "band contains 3 fc" true
        (p.f_inj_low < 3e6 && 3e6 < p.f_inj_high))
    pts

let test_fhil_ablation () =
  let out = Experiments.Fhil_experiment.run ~vis:[ 0.01 ] () in
  Alcotest.(check string) "id" "A3" out.id;
  Alcotest.(check bool) "has the sweep row" true (has_row out "Vi = 0.01")

(* A2's harmonic-balance band against the simulated truth: the
   asymmetric cell's own 2nd harmonic pulls the band below the plain DF
   prediction, and K = 9 recovers where the oscillator locks. The
   constants are the reduced-model RK4 band (centre 3983903 Hz, width
   28897 Hz); the behavioural MNA transient that replaced it measures
   3983864 Hz and 28931 Hz, inside both tolerances (EXPERIMENTS.md A2) *)
let test_asym_hb_band () =
  match
    Api.hb_run
      ~osc:(Experiments.Asym_ablation.cell ())
      ~n:2 ~vi:0.06 ~k_max:9 ~samples:256 ~mode:Api.Request.Hb_lockrange
  with
  | { hb_mode = Hb_band { band; df }; _ } ->
    Alcotest.(check bool) "both HB edges below the plain DF band's" true
      (band.f_lo < df.f_inj_low && band.f_hi < df.f_inj_high);
    Alcotest.(check (float 100.0))
      "HB band centre = ODE truth" 3983903.0
      (0.5 *. (band.f_lo +. band.f_hi));
    Alcotest.(check (float (0.02 *. 28897.0)))
      "HB band width = ODE width" 28897.0 (band.f_hi -. band.f_lo)
  | _ -> Alcotest.fail "lock-range mode must return a band"

(* The A1/A2 rows against the RK4 shooting-plus-adjoint path the HB
   PPV replaced: each A1 PPV width within 1e-4 relative of the widths
   that path printed (the HB PPV lands about 1.7e-5 lower), and A2's
   recentred band within 5 Hz per edge of the band recentred at the
   orbit's f_0 (HB f_0 is 0.9 Hz higher, which moves each edge about
   +1.9 Hz) *)
let test_rows_vs_rk4_path () =
  let width = Experiments.Baseline_cmp.ppv_width tanh_osc ~n:3 in
  List.iter
    (fun (vi, old) ->
      let w = width vi in
      Alcotest.(check bool)
        (Printf.sprintf "A1 Vi = %g: %.6g within 1e-4 of %.6g" vi w old)
        true
        (Float.abs (w -. old) <= 1e-4 *. old))
    [
      (0.01, 3016.05);
      (0.02, 6032.09);
      (0.05, 15080.2);
      (0.1, 30160.5);
      (0.2, 60320.9);
    ];
  let out = Experiments.Asym_ablation.run ~simulate:false in
  Alcotest.(check bool) "A2 has no orbit f_0 row" false
    (has_row out "orbit f_0 (Hz)");
  let lo, hi =
    Scanf.sscanf (List.assoc "orbit-recentred" out.rows) "[%f, %f]"
      (fun lo hi -> (lo, hi))
  in
  Alcotest.(check (float 5.0)) "A2 recentred low edge" 3969029.4 lo;
  Alcotest.(check (float 5.0)) "A2 recentred high edge" 3998131.0 hi

(* PPV (generalized-Adler) baseline, [17] in the paper *)

let test_baseline_matches_rigorous_weak () =
  let ppv = Experiments.Baseline_cmp.ppv_width tanh_osc ~n:3 0.01 in
  let report = Shil.Analysis.run tanh_osc ~n:3 ~vi:0.01 in
  let rel =
    Float.abs (ppv -. report.lock_range.delta_f_inj)
    /. report.lock_range.delta_f_inj
  in
  Alcotest.(check bool) "weak injection: PPV within 2% of rigorous" true
    (rel < 0.02)

let test_baseline_linear_in_vi () =
  let width = Experiments.Baseline_cmp.ppv_width tanh_osc ~n:3 in
  Alcotest.(check (float 1e-3)) "first-order theory scales linearly" 2.0
    (width 0.02 /. width 0.01)

let test_baseline_overestimates_strong () =
  (* the documented failure mode of the first-order baseline, and the
     rigorous method's advantage (paper §I) *)
  let ppv = Experiments.Baseline_cmp.ppv_width tanh_osc ~n:3 0.2 in
  let report = Shil.Analysis.run tanh_osc ~n:3 ~vi:0.2 in
  Alcotest.(check bool) "strong injection: PPV drifts above rigorous" true
    (ppv > 1.04 *. report.lock_range.delta_f_inj)

(* Predictions recentred at the harmonic-balance f_0 *)

let hb_f0 osc =
  (Api.hb_run ~osc ~n:1 ~vi:0.0 ~k_max:7 ~samples:1024
     ~mode:Api.Request.Hb_osc)
    .free
    .f0

let test_f0_close_to_fc_for_odd_cell () =
  (* odd-symmetric tanh: tiny Groszkowski shift *)
  Alcotest.(check bool) "within 0.1% of fc" true
    (Float.abs (hb_f0 tanh_osc -. 1e6) /. 1e6 < 1e-3)

let test_recenter_scales () =
  let report = Shil.Analysis.run tanh_osc ~n:3 ~vi:0.05 in
  let lr = report.lock_range in
  let rc =
    Experiments.Asym_ablation.recenter lr ~f0:1.01e6 ~tank:tanh_osc.tank
  in
  Alcotest.(check (float 1.0)) "low edge scaled" (lr.f_inj_low *. 1.01)
    rc.f_inj_low;
  Alcotest.(check (float 1.0)) "width scaled" (lr.delta_f_inj *. 1.01)
    rc.delta_f_inj

let test_recenter_fixes_asymmetric_cell () =
  (* the asymmetric clipped cell: the recentred band must sit below the
     plain band (negative Groszkowski shift), by several kHz *)
  let osc = Experiments.Asym_ablation.cell () in
  let f0 = hb_f0 osc in
  Alcotest.(check bool) "f0 below fc" true (f0 < 2e6 -. 5e3);
  let plain = (Shil.Analysis.run osc ~n:2 ~vi:0.06).lock_range in
  let rc = Experiments.Asym_ablation.recenter plain ~f0 ~tank:osc.tank in
  Alcotest.(check bool) "recentred band sits lower" true
    (rc.f_inj_low < plain.f_inj_low -. 5e3)

let () =
  Alcotest.run "experiments"
    [
      ( "output",
        [
          Alcotest.test_case "print" `Quick test_output_print;
          Alcotest.test_case "write figures" `Quick test_output_write_figures;
        ] );
      ( "tanh",
        [
          Alcotest.test_case "fig3" `Quick test_fig3;
          Alcotest.test_case "fig6" `Quick test_fig6;
          Alcotest.test_case "fig7" `Slow test_fig7;
          Alcotest.test_case "fig9" `Slow test_fig9;
          Alcotest.test_case "fig10 prediction" `Slow test_fig10_prediction_only;
        ] );
      ( "benches",
        [
          Alcotest.test_case "diff pair" `Slow test_diff_pair_bench;
          Alcotest.test_case "cell netlist and f(v) pins" `Quick test_cell_pins;
          Alcotest.test_case "fhil ablation" `Slow test_fhil_ablation;
          Alcotest.test_case "A2 HB band vs ODE" `Quick test_asym_hb_band;
          Alcotest.test_case "arnold tongue" `Slow test_tongue_monotone;
          Alcotest.test_case "A1/A2 rows vs the RK4 path" `Quick
            test_rows_vs_rk4_path;
        ] );
      ( "lock_baseline",
        [
          Alcotest.test_case "matches rigorous (weak)" `Slow
            test_baseline_matches_rigorous_weak;
          Alcotest.test_case "linear in vi" `Quick test_baseline_linear_in_vi;
          Alcotest.test_case "overestimates (strong)" `Slow
            test_baseline_overestimates_strong;
        ] );
      ( "refined",
        [
          Alcotest.test_case "f0 near fc (odd cell)" `Quick
            test_f0_close_to_fc_for_odd_cell;
          Alcotest.test_case "recenter scales" `Slow test_recenter_scales;
          Alcotest.test_case "fixes asymmetric cell" `Slow
            test_recenter_fixes_asymmetric_cell;
        ] );
    ]
