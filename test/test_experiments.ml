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

let test_diff_pair_bench () =
  let b = Experiments.Osc_experiments.diff_pair () in
  Alcotest.(check (float 1.0)) "fc" Circuits.Diff_pair.fc_paper b.fc;
  let out = Experiments.Osc_experiments.fig_fv b in
  Alcotest.(check string) "id F12a" "F12a" out.id;
  let out2, lr = Experiments.Osc_experiments.table_lock_range ~predict_only:true b in
  Alcotest.(check string) "id T1" "T1" out2.id;
  Alcotest.(check (float 100.0)) "calibrated lock range" 17670.0 lr.delta_f_inj

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
          Alcotest.test_case "fhil ablation" `Slow test_fhil_ablation;
          Alcotest.test_case "A2 HB band vs ODE" `Quick test_asym_hb_band;
          Alcotest.test_case "arnold tongue" `Slow test_tongue_monotone;
        ] );
    ]
