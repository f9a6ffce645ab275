(* Tests for the benchmark circuits: extraction, calibration and (short)
   end-to-end validation runs. *)

let check_float ?(eps = 1e-9) msg expected got =
  Alcotest.(check (float eps)) msg expected got

let qtest ?(count = 50) name gen prop = Qseed.qtest ~count name gen prop

(* ------------------------------------------------------------------ *)
(* Tanh oscillator *)

let test_tanh_osc_parameters () =
  let p = Circuits.Tanh_osc.default in
  let tank = Circuits.Tanh_osc.tank p in
  check_float ~eps:1.0 "fc 1 MHz" 1e6 (Shil.Tank.f_c tank);
  check_float ~eps:1e-6 "Q 10" 10.0 (Shil.Tank.q tank);
  check_float ~eps:1e-12 "loop gain 2" 2.0
    (Shil.Natural.small_signal_gain (Circuits.Tanh_osc.oscillator p).nl ~r:p.r)

let test_tanh_osc_netlist_matches_reduced_model () =
  (* the MNA netlist and the describing-function prediction must agree
     on the steady amplitude *)
  let p = Circuits.Tanh_osc.default in
  let osc = Circuits.Tanh_osc.oscillator p in
  let cmp =
    Circuits.Validate.natural ~cycles:250.0 ~circuit:(Circuits.Tanh_osc.circuit p)
      ~probe:(Spice.Transient.Node "t") ~osc ()
  in
  check_float ~eps:(cmp.predicted_a *. 0.01) "netlist vs DF amplitude"
    cmp.predicted_a cmp.simulated_a;
  check_float ~eps:(cmp.predicted_f *. 2e-3) "netlist vs DF frequency"
    cmp.predicted_f cmp.simulated_f

(* ------------------------------------------------------------------ *)
(* Diff pair *)

let dp_fv = lazy (Circuits.Diff_pair.extraction_fv ~steps:120 Circuits.Diff_pair.default)

let test_diff_pair_fv_shape () =
  let vs, is = Lazy.force dp_fv in
  let n = Array.length vs in
  (* f(0) = 0 by symmetry *)
  let mid = n / 2 in
  check_float ~eps:1e-12 "f(0) = 0" 0.0 is.(mid);
  (* negative differential resistance at the origin *)
  Alcotest.(check bool) "negative slope at 0" true (is.(mid + 1) < is.(mid - 1));
  (* odd symmetry *)
  for k = 0 to n - 1 do
    check_float ~eps:1e-8 "odd symmetry" (-.is.(k)) is.(n - 1 - k)
  done

let test_diff_pair_fv_tanh_region () =
  (* in the core region the curve follows -(IEE+2Ib) tanh(v/2vt)-ish:
     check the plateau level is ~ IEE *)
  let vs, is = Lazy.force dp_fv in
  let p = Circuits.Diff_pair.default in
  let at v =
    let best = ref 0 in
    Array.iteri (fun k x -> if Float.abs (x -. v) < Float.abs (vs.(!best) -. v) then best := k) vs;
    is.(!best)
  in
  ignore (at 0.0);
  Alcotest.(check bool) "plateau near -IEE/2-ish magnitude" true
    (Float.abs (at 0.3) > 0.3 *. p.iee && Float.abs (at 0.3) < 1.2 *. p.iee)

let test_diff_pair_tank_centre () =
  let tank = Circuits.Diff_pair.tank Circuits.Diff_pair.default in
  check_float ~eps:1.0 "paper centre frequency" Circuits.Diff_pair.fc_paper
    (Shil.Tank.f_c tank)

let test_diff_pair_predicted_amplitude_is_calibrated () =
  let vs, is = Lazy.force dp_fv in
  let nl = Shil.Nonlinearity.of_table ~vs ~is () in
  match Shil.Natural.predicted_amplitude nl ~r:Circuits.Diff_pair.default.r with
  | Some a -> check_float ~eps:5e-3 "calibrated amplitude 0.505" 0.505 a
  | None -> Alcotest.fail "no oscillation predicted"

let test_diff_pair_circuit_has_injection () =
  let c =
    Circuits.Diff_pair.circuit
      ~injection:{ vi = 0.03; n = 3; f_inj = 1.5e6; phase = 0.0 }
      Circuits.Diff_pair.default
  in
  match
    List.find_opt
      (fun d -> Spice.Device.name d = "VINJ")
      (Spice.Circuit.devices c)
  with
  | Some (Spice.Device.Vsource { wave = Spice.Wave.Sine s; _ }) ->
    check_float ~eps:1e-12 "injection amplitude 2 vi" 0.06 s.ampl;
    check_float "injection frequency" 1.5e6 s.freq
  | _ -> Alcotest.fail "VINJ missing or not sinusoidal"

(* ------------------------------------------------------------------ *)
(* Tunnel oscillator *)

let test_tunnel_extraction_matches_analytic () =
  let p = Circuits.Tunnel_osc.default in
  let vs, is = Circuits.Tunnel_osc.extraction_fv ~steps:60 p in
  Array.iteri
    (fun k v ->
      let expected, _ = Spice.Device.tunnel_iv p.tunnel v in
      check_float ~eps:(1e-9 +. (1e-6 *. Float.abs expected)) "DC sweep = model" expected is.(k))
    vs

let test_tunnel_nonlinearity_extracted_agrees () =
  let p = Circuits.Tunnel_osc.default in
  let analytic = Circuits.Tunnel_osc.nonlinearity p in
  let extracted =
    Circuits.Tunnel_osc.nonlinearity_of_fv p
      (Circuits.Tunnel_osc.extraction_fv ~steps:200 p)
  in
  List.iter
    (fun v ->
      check_float ~eps:2e-7 "table vs analytic"
        (Shil.Nonlinearity.eval analytic v)
        (Shil.Nonlinearity.eval extracted v))
    [ -0.15; -0.05; 0.0; 0.05; 0.1; 0.18 ]

let test_tunnel_predicted_amplitude_is_calibrated () =
  let p = Circuits.Tunnel_osc.default in
  let nl = Circuits.Tunnel_osc.nonlinearity p in
  match Shil.Natural.predicted_amplitude nl ~r:p.r with
  | Some a -> check_float ~eps:2e-3 "calibrated amplitude 0.199" 0.199 a
  | None -> Alcotest.fail "no oscillation predicted"

let test_tunnel_bias_point () =
  (* the DC operating point of the oscillator sits at the 0.25 V bias *)
  let p = Circuits.Tunnel_osc.default in
  let op = Spice.Op.run (Circuits.Tunnel_osc.circuit p) in
  check_float ~eps:1e-6 "v(t) = vbias" p.vbias (Spice.Op.voltage op "t")

(* ------------------------------------------------------------------ *)
(* Calibration *)

let prop_calibrate_r_hits_target =
  qtest ~count:4 "calibrate: r_for_amplitude inverts predicted_amplitude"
    QCheck.(float_range 0.5 1.5)
    (fun target ->
      let nl = Shil.Nonlinearity.neg_tanh ~g0:2e-3 ~isat:1e-3 in
      let r = Circuits.Calibrate.r_for_amplitude ~nl ~target_a:target () in
      match Shil.Natural.predicted_amplitude nl ~r with
      | Some a -> Float.abs (a -. target) < 1e-4
      | None -> false)

let test_calibrate_unreachable () =
  let nl = Shil.Nonlinearity.neg_tanh ~g0:2e-3 ~isat:1e-3 in
  Alcotest.(check bool) "unreachable target raises typed Root_failure" true
    (try
       (* tanh amplitude is bounded by ~ 4/pi R isat; 1e9 V is absurd *)
       ignore (Circuits.Calibrate.r_for_amplitude ~nl ~target_a:1e9 ());
       false
     with Resilience.Oshil_error.Error e ->
       e.kind = Resilience.Oshil_error.Root_failure)

let test_fit_tank_consistency () =
  (* fit, then verify the fitted tank reproduces the requested range *)
  let nl = Shil.Nonlinearity.neg_tanh ~g0:2e-3 ~isat:1e-3 in
  let fit =
    Circuits.Calibrate.fit_tank ~points:256 ~nl ~target_a:1.1582 ~f_c:1e6 ~n:3
      ~vi:0.05 ~target_delta_f_inj:15e3 ()
  in
  let tank = Shil.Tank.make ~r:fit.r ~l:fit.l ~c:fit.c in
  check_float ~eps:1.0 "fc preserved" 1e6 (Shil.Tank.f_c tank);
  check_float ~eps:1e-6 "q consistent" fit.q (Shil.Tank.q tank);
  let grid =
    Shil.Grid.sample ~points:256 nl ~n:3 ~r:fit.r ~vi:0.05 ~a_range:(0.3, 1.45) ()
  in
  let lr = Shil.Lock_range.predict ~points:256 grid ~tank in
  check_float ~eps:100.0 "requested range reproduced" 15e3 lr.delta_f_inj

(* ------------------------------------------------------------------ *)
(* Validate plumbing *)

let test_validate_natural_on_tanh () =
  let p = Circuits.Tanh_osc.default in
  let osc = Circuits.Tanh_osc.oscillator p in
  let cmp =
    Circuits.Validate.natural ~cycles:200.0 ~steps_per_cycle:100
      ~circuit:(Circuits.Tanh_osc.circuit p)
      ~probe:(Spice.Transient.Node "t") ~osc ()
  in
  Alcotest.(check bool) "amplitude within 2%" true
    (Float.abs (cmp.simulated_a -. cmp.predicted_a) /. cmp.predicted_a < 0.02)


(* The behavioural tanh netlist on the MNA transient, pinned against the
   reduced-model RK4 figures it replaces (F3: 300 cycles; F10, n = 3,
   Vi = 0.2: 800 cycles per probe). Trapezoidal integration shortens the
   period by (2 pi / spc)^2 / 12, so at 600 steps per cycle the
   frequency may sit up to f_c * warp (9.1 Hz at 1 MHz) low, plus 2 Hz
   of measurement slack; each edge is injection-referred, so it may
   move by n * f_c * warp plus the bisection's 2 * rel_tol * f_centre
   (147 Hz here); the band width within 0.5 %. The amplitude does not
   see the warp: 1e-6 relative. *)
let test_behavioural_reproduces_rk4 () =
  let p = Circuits.Tanh_osc.default in
  let osc = Circuits.Tanh_osc.oscillator p in
  let spc = 600 in
  let fc = Shil.Tank.f_c osc.tank in
  let warp = ((2.0 *. Float.pi /. float_of_int spc) ** 2.0) /. 12.0 in
  let nat =
    Circuits.Validate.natural ~cycles:300.0 ~steps_per_cycle:spc
      ~circuit:(Circuits.Tanh_osc.circuit p)
      ~probe:(Spice.Transient.Node "t") ~osc ()
  in
  check_float ~eps:(1e-6 *. 1.1582147) "F3 amplitude" 1.1582147
    nat.simulated_a;
  check_float ~eps:((fc *. warp) +. 2.0) "F3 frequency" 999_773.04
    nat.simulated_f;
  let n = 3 and vi = 0.2 in
  let predicted = (Shil.Analysis.run osc ~n ~vi).lock_range in
  let cmp =
    Circuits.Validate.lock_range ~cycles:800.0 ~steps_per_cycle:spc
      ~make_circuit:(Circuits.Behavioural.injected ~n ~vi osc)
      ~probe:Circuits.Behavioural.probe ~n ~predicted ()
  in
  let lo = 2_971_837.7 and hi = 3_027_399.9 in
  let edge_tol =
    (float_of_int n *. fc *. warp) +. (2.0 *. 2e-5 *. 0.5 *. (lo +. hi))
  in
  check_float ~eps:edge_tol "F10 low edge" lo cmp.sim_f_low;
  check_float ~eps:edge_tol "F10 high edge" hi cmp.sim_f_high;
  check_float ~eps:(0.005 *. (hi -. lo)) "F10 lock range" (hi -. lo)
    cmp.sim_delta;
  Alcotest.(check int) "no holes" 0
    (List.length cmp.failures.Resilience.Summary.failures)

(* The diff-pair at n = 2, V_i = 0.01: its 600-cycle trial is shorter
   than the band's settling time, so the predicted centre does not lock.
   The search ends after that one transient run, and both edges are
   typed holes naming the centre and the trial length (it used to
   march on to an "upper edge" below the predicted lower edge). *)
let test_validate_centre_unlocked () =
  let cell = Api.Cells.of_spec (Api.Request.Builtin "diffpair") in
  let n = 2 and vi = 0.01 in
  let predicted = (Shil.Analysis.run (cell.oscillator ()) ~n ~vi).lock_range in
  let cmp = Api.Cells.validate cell ~n ~vi ~predicted in
  Alcotest.(check bool) "no edge" true
    (Float.is_nan cmp.sim_f_low && Float.is_nan cmp.sim_f_high);
  Alcotest.(check int) "one transient run" 1 cmp.failures.attempted;
  let f_centre =
    Printf.sprintf "%.8g" (0.5 *. (predicted.f_inj_low +. predicted.f_inj_high))
  in
  Alcotest.(check (list string)) "both edges are holes"
    [ "low edge"; "high edge" ]
    (List.map
       (fun (f : Resilience.Summary.failure) ->
         Alcotest.(check string) "typed root-failure" "root-failure"
           (Resilience.Oshil_error.code f.error);
         Alcotest.(check (list (pair string string))) "names centre and trial"
           [ ("f_centre", f_centre); ("cycles", "600") ]
           f.error.context;
         f.site)
       cmp.failures.failures)

(* ------------------------------------------------------------------ *)
(* CMOS cross-coupled pair (extension circuit) *)

let cmos_fv = lazy (Circuits.Cmos_pair.extraction_fv ~steps:120 Circuits.Cmos_pair.default)

let test_cmos_fv_shape () =
  let vs, is = Lazy.force cmos_fv in
  let n = Array.length vs in
  let mid = n / 2 in
  check_float ~eps:1e-12 "f(0) = 0" 0.0 is.(mid);
  Alcotest.(check bool) "negative slope at 0" true (is.(mid + 1) < is.(mid - 1));
  for k = 0 to n - 1 do
    check_float ~eps:1e-9 "odd symmetry" (-.is.(k)) is.(n - 1 - k)
  done;
  (* the plateau is the full tail current steered to one side *)
  let p = Circuits.Cmos_pair.default in
  Alcotest.(check bool) "plateau ~ itail/2" true
    (Float.abs is.(n - 1) > 0.45 *. p.itail && Float.abs is.(n - 1) < 0.55 *. p.itail)

let test_cmos_natural_prediction_vs_transient () =
  let p = Circuits.Cmos_pair.default in
  let vs, is = Lazy.force cmos_fv in
  let nl = Shil.Nonlinearity.of_table ~vs ~is () in
  let osc = { Shil.Analysis.nl; tank = Circuits.Cmos_pair.tank p } in
  let cmp =
    Circuits.Validate.natural ~cycles:300.0 ~circuit:(Circuits.Cmos_pair.circuit p)
      ~probe:Circuits.Cmos_pair.osc_probe ~osc ()
  in
  Alcotest.(check bool) "amplitude within 1%" true
    (Float.abs (cmp.simulated_a -. cmp.predicted_a) /. cmp.predicted_a < 0.01);
  Alcotest.(check bool) "frequency within 0.2%" true
    (Float.abs (cmp.simulated_f -. cmp.predicted_f) /. cmp.predicted_f < 2e-3)

let () =
  Alcotest.run "circuits"
    [
      ( "tanh_osc",
        [
          Alcotest.test_case "parameters" `Quick test_tanh_osc_parameters;
          Alcotest.test_case "netlist vs reduced" `Slow test_tanh_osc_netlist_matches_reduced_model;
        ] );
      ( "diff_pair",
        [
          Alcotest.test_case "f(v) shape" `Slow test_diff_pair_fv_shape;
          Alcotest.test_case "f(v) tanh region" `Slow test_diff_pair_fv_tanh_region;
          Alcotest.test_case "tank centre" `Quick test_diff_pair_tank_centre;
          Alcotest.test_case "calibrated amplitude" `Slow test_diff_pair_predicted_amplitude_is_calibrated;
          Alcotest.test_case "injection device" `Quick test_diff_pair_circuit_has_injection;
        ] );
      ( "tunnel_osc",
        [
          Alcotest.test_case "extraction matches model" `Slow test_tunnel_extraction_matches_analytic;
          Alcotest.test_case "extracted nl agrees" `Slow test_tunnel_nonlinearity_extracted_agrees;
          Alcotest.test_case "calibrated amplitude" `Quick test_tunnel_predicted_amplitude_is_calibrated;
          Alcotest.test_case "bias point" `Quick test_tunnel_bias_point;
        ] );
      ( "cmos_pair",
        [
          Alcotest.test_case "f(v) shape" `Slow test_cmos_fv_shape;
          Alcotest.test_case "natural vs transient" `Slow test_cmos_natural_prediction_vs_transient;
        ] );
      ( "calibrate",
        [
          prop_calibrate_r_hits_target;
          Alcotest.test_case "unreachable" `Quick test_calibrate_unreachable;
          Alcotest.test_case "fit_tank consistency" `Slow test_fit_tank_consistency;
        ] );
      ( "validate",
        [
          Alcotest.test_case "natural on tanh" `Slow test_validate_natural_on_tanh;
          Alcotest.test_case "behavioural transient reproduces the RK4 reference"
            `Slow test_behavioural_reproduces_rk4;
          Alcotest.test_case "a centre that does not lock ends the search"
            `Slow test_validate_centre_unlocked;
        ] );
    ]
