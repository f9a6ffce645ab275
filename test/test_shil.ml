(* Tests for the core SHIL theory library. *)

open Shil
module Cx = Numerics.Cx
module Angle = Numerics.Angle

let check_float ?(eps = 1e-9) msg expected got =
  Alcotest.(check (float eps)) msg expected got

let qtest ?(count = 100) name gen prop = Qseed.qtest ~count name gen prop

(* Shared fixtures: the paper's illustration oscillator (negative tanh). *)
let tanh_nl = Nonlinearity.neg_tanh ~g0:2e-3 ~isat:1e-3
let fixture_r = 1000.0
let fixture_tank =
  let fc = 1e6 in
  let wc = 2.0 *. Float.pi *. fc in
  let z0 = 100.0 in
  Tank.make ~r:fixture_r ~l:(z0 /. wc) ~c:(1.0 /. (z0 *. wc))

let fixture_grid =
  lazy
    (Grid.sample tanh_nl ~n:3 ~r:fixture_r ~vi:0.05 ~a_range:(0.3, 1.45) ())

(* ------------------------------------------------------------------ *)
(* Nonlinearity *)

let test_neg_tanh () =
  check_float "f(0)" 0.0 (Nonlinearity.eval tanh_nl 0.0);
  check_float ~eps:1e-12 "f'(0) = -g0" (-2e-3) (Nonlinearity.deriv tanh_nl 0.0);
  check_float ~eps:1e-6 "saturates to -isat" (-1e-3) (Nonlinearity.eval tanh_nl 100.0)

let test_cubic () =
  let nl = Nonlinearity.cubic ~g1:1e-3 ~g3:1e-4 in
  check_float ~eps:1e-15 "cubic value" ((-.1e-3 *. 2.0) +. (1e-4 *. 8.0))
    (Nonlinearity.eval nl 2.0);
  check_float ~eps:1e-15 "cubic deriv" (-.1e-3 +. (3.0 *. 1e-4 *. 4.0))
    (Nonlinearity.deriv nl 2.0)

let prop_numeric_df =
  qtest "nonlinearity: default df matches analytic"
    QCheck.(float_range (-2.0) 2.0)
    (fun v ->
      let f x = sin (3.0 *. x) in
      let nl = Nonlinearity.make f in
      Float.abs (Nonlinearity.deriv nl v -. (3.0 *. cos (3.0 *. v))) < 1e-5)

let prop_table_matches_function =
  qtest ~count:50 "nonlinearity: of_table reproduces tanh"
    QCheck.(float_range (-0.9) 0.9)
    (fun v ->
      let vs = Array.init 201 (fun k -> -1.0 +. (float_of_int k /. 100.0)) in
      let is = Array.map (Nonlinearity.eval tanh_nl) vs in
      let table = Nonlinearity.of_table ~vs ~is () in
      Float.abs (Nonlinearity.eval table v -. Nonlinearity.eval tanh_nl v) < 1e-6)

let test_shift_bias () =
  let nl = Nonlinearity.make (fun v -> v *. v) in
  let sh = Nonlinearity.shift_bias nl 1.0 in
  check_float "shifted zero" 0.0 (Nonlinearity.eval sh 0.0);
  check_float "shifted value" 3.0 (Nonlinearity.eval sh 1.0)

let test_scale_current () =
  let nl = Nonlinearity.scale_current tanh_nl (-2.0) in
  check_float ~eps:1e-15 "scaled"
    (-2.0 *. Nonlinearity.eval tanh_nl 0.3)
    (Nonlinearity.eval nl 0.3)

let test_tunnel_nl_negative_resistance () =
  let nl = Nonlinearity.tunnel_diode ~bias:0.25 () in
  check_float "f(0) = 0 after bias shift" 0.0 (Nonlinearity.eval nl 0.0);
  Alcotest.(check bool) "negative slope at bias" true (Nonlinearity.deriv nl 0.0 < 0.0)

let test_tunnel_nl_matches_spice_device () =
  (* bit for bit, over both signs of v and past the x > 40 cap of the
     diode exponential, for the paper model and one other *)
  let vs = Numerics.Kernel.linspace (-0.5) 1.5 401 in
  let bits = Int64.bits_of_float in
  List.iter
    (fun (label, (p : Spice.Device.tunnel_params)) ->
      let nl =
        Nonlinearity.tunnel_diode ~model:(Circuits.Tunnel_osc.model p) ~bias:0.0 ()
      in
      Array.iter
        (fun v ->
          let i_spice, g_spice = Spice.Device.tunnel_iv p v in
          if bits i_spice <> bits (Nonlinearity.eval nl v) then
            Alcotest.failf "%s: i(%h) = %h, spice %h" label v
              (Nonlinearity.eval nl v) i_spice;
          if bits g_spice <> bits (Nonlinearity.deriv nl v) then
            Alcotest.failf "%s: di/dv(%h) = %h, spice %h" label v
              (Nonlinearity.deriv nl v) g_spice)
        vs)
    [
      ("paper", Spice.Device.paper_tunnel);
      ( "non-paper",
        { is = 5e-12; eta = 1.2; vth = 0.026; r0 = 800.0; v0 = 0.18; m = 2.5 } );
    ];
  Alcotest.(check bool) "default model is the paper's" true
    (Circuits.Tunnel_osc.model Spice.Device.paper_tunnel
    = Nonlinearity.paper_tunnel)

let test_sample () =
  let vs, is = Nonlinearity.sample tanh_nl ~v_min:(-1.0) ~v_max:1.0 ~n:21 in
  Alcotest.(check int) "n points" 21 (Array.length vs);
  check_float "first" (-1.0) vs.(0);
  check_float "last" 1.0 vs.(20);
  check_float ~eps:1e-15 "value" (Nonlinearity.eval tanh_nl vs.(7)) is.(7)

(* ------------------------------------------------------------------ *)
(* Tank *)

let test_tank_basics () =
  check_float ~eps:1e-6 "fc" 1e6 (Tank.f_c fixture_tank);
  check_float ~eps:1e-9 "q" 10.0 (Tank.q fixture_tank);
  check_float ~eps:1e-12 "phase at wc" 0.0
    (Tank.phase fixture_tank ~omega:(Tank.omega_c fixture_tank));
  check_float ~eps:1e-9 "peak gain R" fixture_r
    (Tank.mag fixture_tank ~omega:(Tank.omega_c fixture_tank))

let test_tank_phase_sign () =
  let wc = Tank.omega_c fixture_tank in
  Alcotest.(check bool) "below resonance: positive phase" true
    (Tank.phase fixture_tank ~omega:(0.95 *. wc) > 0.0);
  Alcotest.(check bool) "above resonance: negative phase" true
    (Tank.phase fixture_tank ~omega:(1.05 *. wc) < 0.0)

let prop_tank_circle_identity =
  (* circle property: |H(jw)| = R cos(phi_d(w)) for every w *)
  qtest "tank: |H| = R cos phi_d"
    QCheck.(float_range 0.3 3.0)
    (fun ratio ->
      let omega = ratio *. Tank.omega_c fixture_tank in
      let mag = Tank.mag fixture_tank ~omega in
      let phi_d = Tank.phase fixture_tank ~omega in
      Float.abs (mag -. (fixture_r *. cos phi_d)) < 1e-9 *. fixture_r)

let prop_tank_phase_roundtrip =
  qtest "tank: omega_of_phase inverts phase"
    QCheck.(float_range (-1.5) 1.5)
    (fun phi_d ->
      let omega = Tank.omega_of_phase fixture_tank ~phi_d in
      Float.abs (Tank.phase fixture_tank ~omega -. phi_d) < 1e-9)

let test_tank_circle_point () =
  (* circle property (§VI-B1): where the tank phase is phi_d, the output
     phasor is the centre-frequency one (R, for a unit current)
     projected, R cos(phi_d) e^{j phi_d} *)
  let r = fixture_tank.Tank.r in
  let omega = Tank.omega_of_phase fixture_tank ~phi_d:0.5 in
  let p = Tank.h fixture_tank ~omega in
  check_float ~eps:(1e-12 *. r) "projection magnitude" (r *. cos 0.5) (Cx.abs p);
  check_float ~eps:1e-12 "projection angle" 0.5 (Cx.arg p)

let test_tank_circle_locus () =
  (* as the frequency sweeps (0, infinity) the output phasor runs over
     the circle with diameter R *)
  let r = fixture_tank.Tank.r in
  let wc = Tank.omega_c fixture_tank in
  List.iter
    (fun x ->
      let p = Tank.h fixture_tank ~omega:(x *. wc) in
      check_float ~eps:(1e-9 *. r) "on circle" (0.5 *. r)
        (Cx.abs (Cx.sub p (Cx.of_float (0.5 *. r)))))
    [ 0.01; 0.5; 0.9; 1.0; 1.1; 2.0; 100.0 ]

let test_tank_validation () =
  Alcotest.check_raises "negative R"
    (Invalid_argument "Tank.make: r, l, c must be positive") (fun () ->
      ignore (Tank.make ~r:(-1.0) ~l:1.0 ~c:1.0))

let test_tank_h_formula () =
  (* H = R / (1 + jQ(w/wc - wc/w)) checked against an explicit admittance
     computation 1/(1/R + jwC + 1/(jwL)) *)
  let omega = 1.23 *. Tank.omega_c fixture_tank in
  let h = Tank.h fixture_tank ~omega in
  let { Tank.r; l; c } = fixture_tank in
  let y =
    Cx.add
      (Cx.add (Cx.of_float (1.0 /. r)) (Cx.make 0.0 (omega *. c)))
      (Cx.div (Cx.of_float 1.0) (Cx.make 0.0 (omega *. l)))
  in
  let expected = Cx.div (Cx.of_float 1.0) y in
  Alcotest.(check bool) "h = 1/Y" true (Cx.abs (Cx.sub h expected) < 1e-6)

(* ------------------------------------------------------------------ *)
(* Describing functions *)

let prop_df_linear_i1 =
  (* for f = g v: I1(A) = g A / 2 *)
  qtest ~count:50 "df: linear nonlinearity"
    QCheck.(pair (float_range (-5e-3) 5e-3) (float_range 0.1 3.0))
    (fun (g, a) ->
      let nl = Nonlinearity.make (fun v -> g *. v) in
      Float.abs (Describing_function.i1 nl ~a -. (g *. a /. 2.0)) < 1e-12)

let prop_df_cubic_closed_form =
  (* f = -g1 v + g3 v^3: I1(A) = (-g1 A + 3/4 g3 A^3) / 2 *)
  qtest ~count:50 "df: cubic closed form"
    QCheck.(pair (float_range 1e-4 5e-3) (float_range 0.1 2.0))
    (fun (g1, a) ->
      let g3 = 1e-3 in
      let nl = Nonlinearity.cubic ~g1 ~g3 in
      let expected = ((-.g1 *. a) +. (0.75 *. g3 *. (a ** 3.0))) /. 2.0 in
      Float.abs (Describing_function.i1 nl ~a -. expected) < 1e-12)

let test_df_even_harmonics_vanish () =
  (* odd f: even harmonics of f(A cos) vanish (no injected tone) *)
  let ik k =
    Describing_function.ik_two_tone tanh_nl ~n:3 ~a:1.0 ~vi:0.0 ~phi:0.0 ~k
  in
  let i2 = ik 2 in
  check_float ~eps:1e-12 "I2 = 0" 0.0 (Cx.abs i2);
  let i3 = ik 3 in
  Alcotest.(check bool) "I3 nonzero" true (Cx.abs i3 > 1e-6)

let prop_df_two_tone_reduces_to_single =
  qtest ~count:30 "df: vi = 0 reduces to single tone"
    QCheck.(pair (float_range 0.2 2.0) (float_range 0.0 6.2))
    (fun (a, phi) ->
      let two = Describing_function.i1_two_tone tanh_nl ~n:3 ~a ~vi:0.0 ~phi in
      let one = Describing_function.i1 tanh_nl ~a in
      Cx.abs (Cx.sub two (Cx.of_float one)) < 1e-12)

let prop_df_two_tone_linear_no_leak =
  (* a linear f cannot mix the n-th harmonic down to the fundamental *)
  qtest ~count:30 "df: linear f has no intermodulation"
    QCheck.(pair (float_range 0.1 2.0) (float_range 0.0 6.2))
    (fun (a, phi) ->
      let nl = Nonlinearity.make (fun v -> 2e-3 *. v) in
      let i1 = Describing_function.i1_two_tone nl ~n:3 ~a ~vi:0.2 ~phi in
      Cx.abs (Cx.sub i1 (Cx.of_float (2e-3 *. a /. 2.0))) < 1e-12)

let prop_df_phi_periodicity =
  qtest ~count:30 "df: 2pi-periodic in phi"
    QCheck.(pair (float_range 0.3 1.4) (float_range 0.0 6.2))
    (fun (a, phi) ->
      let f p = Describing_function.i1_two_tone tanh_nl ~n:3 ~a ~vi:0.05 ~phi:p in
      Cx.abs (Cx.sub (f phi) (f (phi +. (2.0 *. Float.pi)))) < 1e-10)

let prop_df_conjugate_symmetry =
  (* time reversal: I1(A, Vi, -phi) = conj I1(A, Vi, phi) for real f *)
  qtest ~count:30 "df: conjugate symmetry in phi"
    QCheck.(pair (float_range 0.3 1.4) (float_range 0.0 6.2))
    (fun (a, phi) ->
      let ip = Describing_function.i1_two_tone tanh_nl ~n:3 ~a ~vi:0.05 ~phi in
      let im = Describing_function.i1_two_tone tanh_nl ~n:3 ~a ~vi:0.05 ~phi:(-.phi) in
      Cx.abs (Cx.sub im (Cx.conj ip)) < 1e-10)

let prop_df_rotation_identity =
  (* with the fundamental at phase psi, I1 = e^{j psi} g(phi - n psi):
     the lock equations depend only on the relative phase chi (section
     VI-B4's n-states argument) *)
  qtest ~count:30 "df: fundamental-phase rotation identity"
    QCheck.(pair (float_range 0.0 6.2) (float_range 0.0 6.2))
    (fun (psi, phi) ->
      let n = 3 and a = 1.0 and vi = 0.05 in
      let f_shifted theta =
        Nonlinearity.eval tanh_nl
          ((a *. cos (theta +. psi))
          +. (2.0 *. vi *. cos ((float_of_int n *. theta) +. phi)))
      in
      let lhs = Numerics.Fourier.coeff ~f:f_shifted ~k:1 () in
      let rhs =
        Cx.mul (Cx.exp_j psi)
          (Describing_function.i1_two_tone tanh_nl ~n ~a ~vi
             ~phi:(phi -. (float_of_int n *. psi)))
      in
      Cx.abs (Cx.sub lhs rhs) < 1e-9)

let test_df_t_f_free_small_signal () =
  (* T_f(A -> 0) = -R f'(0) *)
  let tf = Describing_function.t_f_free tanh_nl ~r:fixture_r ~a:1e-5 in
  check_float ~eps:1e-5 "small signal loop gain" 2.0 tf

let test_df_t_f_requires_positive_a () =
  Alcotest.check_raises "a > 0"
    (Invalid_argument "Describing_function.t_f_free: a must be > 0") (fun () ->
      ignore (Describing_function.t_f_free tanh_nl ~r:fixture_r ~a:0.0))

let test_df_t_cap_f_vs_t_f_on_solution () =
  (* on the phase condition (eq. 4), eq. 5's magnitude form
     T_F = |R I_1 cos(phi_d) / (A/2)| equals |T_f| *)
  let a = 1.0 and phi = 2.0 and vi = 0.05 in
  let i1 = Describing_function.i1_two_tone tanh_nl ~n:3 ~a ~vi ~phi in
  let phi_d = -.Cx.arg (Cx.neg i1) in
  let tf = Describing_function.t_f tanh_nl ~n:3 ~r:fixture_r ~a ~vi ~phi in
  let t_cap_f = Float.abs (fixture_r *. Cx.abs i1 *. cos phi_d /. (a /. 2.0)) in
  check_float ~eps:1e-9 "T_F = |T_f| on eq. 4" (Float.abs tf) t_cap_f

let test_df_quadrature_convergence () =
  (* 256 points already agree with 4096 to near machine precision *)
  let coarse = Describing_function.i1_two_tone ~points:256 tanh_nl ~n:3 ~a:1.1 ~vi:0.05 ~phi:1.0 in
  let fine = Describing_function.i1_two_tone ~points:4096 tanh_nl ~n:3 ~a:1.1 ~vi:0.05 ~phi:1.0 in
  Alcotest.(check bool) "spectral convergence" true (Cx.abs (Cx.sub coarse fine) < 1e-12)

(* ------------------------------------------------------------------ *)
(* Natural oscillation *)

let test_natural_tanh () =
  match Natural.solve tanh_nl ~r:fixture_r with
  | [ s ] ->
    Alcotest.(check bool) "stable" true s.stable;
    (* golden value validated against time-domain simulation *)
    check_float ~eps:1e-3 "tanh natural amplitude" 1.1582 s.a
  | sols -> Alcotest.failf "expected 1 solution, got %d" (List.length sols)

let prop_natural_cubic_closed_form =
  (* van der Pol: A = sqrt(4 (g1 - 1/R) / (3 g3)) *)
  qtest ~count:30 "natural: cubic closed form"
    QCheck.(float_range 1.5e-3 8e-3)
    (fun g1 ->
      let g3 = 1e-3 in
      let r = 1000.0 in
      let nl = Nonlinearity.cubic ~g1 ~g3 in
      let expected = sqrt (4.0 *. (g1 -. (1.0 /. r)) /. (3.0 *. g3)) in
      match Natural.predicted_amplitude nl ~r with
      | Some a -> Float.abs (a -. expected) < 1e-6 *. expected
      | None -> false)

let test_natural_no_oscillation () =
  (* loop gain below 1: no solutions *)
  let sols = Natural.solve tanh_nl ~r:400.0 in
  Alcotest.(check int) "no oscillation" 0 (List.length sols);
  Alcotest.(check bool) "oscillates predicate" false (Natural.oscillates tanh_nl ~r:400.0)

let test_small_signal_gain () =
  check_float ~eps:1e-12 "-R f'(0)" 2.0 (Natural.small_signal_gain tanh_nl ~r:fixture_r)

(* ------------------------------------------------------------------ *)
(* Contour *)

let circle_field xs ys radius =
  Array.map (fun x -> Array.map (fun y -> (x *. x) +. (y *. y) -. (radius *. radius)) ys) xs

let linspace = Numerics.Kernel.linspace

let test_contour_circle () =
  let xs = linspace (-2.0) 2.0 81 and ys = linspace (-2.0) 2.0 81 in
  let field = circle_field xs ys 1.0 in
  let segs = Contour.segments ~xs ~ys ~field ~level:0.0 in
  Alcotest.(check bool) "many segments" true (List.length segs > 20);
  (* every crossing point lies on the unit circle to grid accuracy *)
  List.iter
    (fun (s : Contour.segment) ->
      let r1 = sqrt ((s.x1 *. s.x1) +. (s.y1 *. s.y1)) in
      check_float ~eps:2e-3 "on circle" 1.0 r1)
    segs;
  (* total length approximates the circumference *)
  let len =
    List.fold_left
      (fun acc (s : Contour.segment) ->
        acc +. sqrt (((s.x2 -. s.x1) ** 2.0) +. ((s.y2 -. s.y1) ** 2.0)))
      0.0 segs
  in
  check_float ~eps:0.02 "circumference" (2.0 *. Float.pi) len

let test_contour_polyline_closed () =
  let xs = linspace (-2.0) 2.0 81 and ys = linspace (-2.0) 2.0 81 in
  (* radius chosen off the grid nodes so the loop is non-degenerate *)
  let field = circle_field xs ys 0.997 in
  match Contour.polylines ~xs ~ys ~field ~level:0.0 with
  | [ (cx, cy) ] ->
    let m = Array.length cx in
    Alcotest.(check bool) "rich polyline" true (m > 30);
    (* closed: endpoints coincide *)
    check_float ~eps:1e-6 "closed x" cx.(0) cx.(m - 1);
    check_float ~eps:1e-6 "closed y" cy.(0) cy.(m - 1)
  | ls -> Alcotest.failf "expected a single closed polyline, got %d" (List.length ls)

let test_contour_line () =
  (* field x - y: the contour is the diagonal *)
  let xs = linspace 0.0 1.0 11 and ys = linspace 0.0 1.0 11 in
  let field = Array.map (fun x -> Array.map (fun y -> x -. y) ys) xs in
  let segs = Contour.segments ~xs ~ys ~field ~level:0.0 in
  List.iter
    (fun (s : Contour.segment) ->
      check_float ~eps:1e-9 "on diagonal 1" s.x1 s.y1;
      check_float ~eps:1e-9 "on diagonal 2" s.x2 s.y2)
    segs

let test_contour_filter () =
  let segs =
    [ { Contour.x1 = 0.0; y1 = 0.0; x2 = 1.0; y2 = 0.0 };
      { Contour.x1 = 0.0; y1 = 2.0; x2 = 1.0; y2 = 2.0 } ]
  in
  let kept = Contour.filter_segments (fun (_, y) -> y < 1.0) segs in
  Alcotest.(check int) "filtered" 1 (List.length kept)

let test_contour_nan_skipped () =
  let xs = linspace 0.0 1.0 5 and ys = linspace 0.0 1.0 5 in
  let field = Array.map (fun x -> Array.map (fun y -> x +. y -. 1.0) ys) xs in
  field.(2).(2) <- Float.nan;
  (* must not raise *)
  ignore (Contour.segments ~xs ~ys ~field ~level:0.0)

(* ------------------------------------------------------------------ *)
(* Grid *)

let test_grid_t_f_field_consistency () =
  let g = Lazy.force fixture_grid in
  let field = Grid.t_f_field g in
  (* compare a few grid nodes against the direct evaluation *)
  List.iter
    (fun (i, j) ->
      let direct =
        Describing_function.t_f ~points:512 tanh_nl ~n:3 ~r:fixture_r
          ~a:g.amps.(j) ~vi:0.05 ~phi:g.phis.(i)
        -. 1.0
      in
      check_float ~eps:1e-9 "grid vs direct" direct field.(i).(j))
    [ (0, 0); (5, 7); (60, 50); (120, 100) ]

let prop_grid_interp_accuracy =
  qtest ~count:30 "grid: bilinear interp close to direct I1"
    QCheck.(pair (float_range 0.0 6.28) (float_range 0.35 1.4))
    (fun (phi, a) ->
      let g = Lazy.force fixture_grid in
      let interp = Grid.interp_i1 g ~phi ~a in
      let direct =
        Describing_function.i1_two_tone ~points:512 tanh_nl ~n:3 ~a ~vi:0.05 ~phi
      in
      Cx.abs (Cx.sub interp direct) < 5e-3 *. (Cx.abs direct +. 1e-6))

let test_grid_curves_nonempty () =
  let g = Lazy.force fixture_grid in
  Alcotest.(check bool) "T_f curve exists" true (Grid.t_f_curve g <> []);
  Alcotest.(check bool) "phase curve exists" true (Grid.phase_curve g ~phi_d:0.0 <> [])

let test_grid_validation () =
  Alcotest.check_raises "bad a_range" (Invalid_argument "Grid.sample: bad a_range")
    (fun () ->
      ignore (Grid.sample tanh_nl ~n:3 ~r:1.0 ~vi:0.0 ~a_range:(1.0, 0.5) ()))

let test_grid_parallel_equals_sequential () =
  (* the multicore grid sampler must be bit-identical to the sequential
     path: rows are pure and land in their own slots *)
  let sample () =
    Grid.sample ~points:256 ~n_phi:41 ~n_amp:31 tanh_nl ~n:3 ~r:fixture_r
      ~vi:0.05 ~a_range:(0.3, 1.45) ()
  in
  Numerics.Pool.set_jobs 1;
  let g_seq = sample () in
  Numerics.Pool.set_jobs 4;
  let g_par = sample () in
  Numerics.Pool.set_jobs 1;
  Alcotest.(check bool) "i1 grids bit-identical" true (g_seq.i1 = g_par.i1);
  Alcotest.(check bool) "axes bit-identical" true
    (g_seq.phis = g_par.phis && g_seq.amps = g_par.amps);
  (* the derived solution finder (parallel candidate refinement) must
     agree too *)
  let s_seq = Solutions.find g_seq ~phi_d:0.05 in
  Numerics.Pool.set_jobs 4;
  let s_par = Solutions.find g_par ~phi_d:0.05 in
  Numerics.Pool.set_jobs 1;
  Alcotest.(check int) "same solution count" (List.length s_seq)
    (List.length s_par);
  List.iter2
    (fun (p : Solutions.point) (q : Solutions.point) ->
      Alcotest.(check bool) "solution points bit-identical" true
        (p.phi = q.phi && p.a = q.a && p.stable = q.stable))
    s_seq s_par;
  (* the symmetry-reduced grid and the lock-range boundary search on
     both grids: pooled = sequential, bit for bit *)
  let sample_red () =
    Grid.sample ~reduction:`Symmetry ~points:256 ~n_phi:41 ~n_amp:31 tanh_nl
      ~n:3 ~r:fixture_r ~vi:0.05 ~a_range:(0.3, 1.45) ()
  in
  let r_seq = sample_red () in
  Numerics.Pool.set_jobs 4;
  let r_par = sample_red () in
  Numerics.Pool.set_jobs 1;
  Alcotest.(check bool) "reduced i1 grids bit-identical" true
    (r_seq.i1 = r_par.i1);
  (* the torus path fans out over amplitude columns instead of rows *)
  let sample_torus () =
    Grid.sample ~points:128 ~psi:16 ~n_phi:41 ~n_amp:31 tanh_nl ~n:3
      ~r:fixture_r ~vi:0.05 ~a_range:(0.3, 1.45) ()
  in
  let t_seq = sample_torus () in
  Numerics.Pool.set_jobs 4;
  let t_par = sample_torus () in
  Numerics.Pool.set_jobs 1;
  Alcotest.(check bool) "torus i1 grids bit-identical" true
    (t_seq.i1 = t_par.i1);
  List.iter
    (fun (name, g) ->
      let b_seq = Lock_range.phi_d_boundary ~tol:1e-3 g in
      Numerics.Pool.set_jobs 4;
      let b_par = Lock_range.phi_d_boundary ~tol:1e-3 g in
      Numerics.Pool.set_jobs 1;
      Alcotest.(check bool) (name ^ " boundary is a lock") true (b_seq > 0.0);
      Alcotest.(check bool) (name ^ " phi_d_boundary bit-identical") true
        (Int64.bits_of_float b_seq = Int64.bits_of_float b_par))
    [ ("exact", g_seq); ("reduced", r_seq) ]

(* ------------------------------------------------------------------ *)
(* Solutions *)

let test_solutions_at_center () =
  let g = Lazy.force fixture_grid in
  match Solutions.find g ~phi_d:0.0 with
  | [ s1; s2 ] ->
    (* phi = 0 unstable, phi = pi stable for the odd tanh (Fig. 7) *)
    check_float ~eps:1e-3 "unstable at phi=0" 0.0 s1.phi;
    Alcotest.(check bool) "s1 unstable" false s1.stable;
    check_float ~eps:1e-3 "stable at phi=pi" Float.pi s2.phi;
    Alcotest.(check bool) "s2 stable" true s2.stable;
    Alcotest.(check bool) "amplitudes near natural" true
      (Float.abs (s1.a -. 1.1582) < 0.1 && Float.abs (s2.a -. 1.1582) < 0.1)
  | sols -> Alcotest.failf "expected 2 locks, got %d" (List.length sols)

let test_solutions_residuals_vanish () =
  let g = Lazy.force fixture_grid in
  List.iter
    (fun (s : Solutions.point) ->
      let r1, r2 =
        Solutions.residuals tanh_nl ~n:3 ~r:fixture_r ~vi:0.05 ~phi_d:0.03
          (s.phi, s.a)
      in
      check_float ~eps:1e-7 "residual 1" 0.0 r1;
      check_float ~eps:1e-7 "residual 2" 0.0 r2)
    (Solutions.find g ~phi_d:0.03)

let test_solutions_mirror_symmetry () =
  (* (phi_s, A_s) at phi_d <-> (-phi_s, A_s) at -phi_d (§VI-B3) *)
  let g2 =
    Grid.sample tanh_nl ~n:3 ~r:fixture_r ~vi:0.05
      ~phi_range:(-.Float.pi, Float.pi) ~a_range:(0.3, 1.45) ()
  in
  let plus = Solutions.find g2 ~phi_d:0.02 in
  let minus = Solutions.find g2 ~phi_d:(-0.02) in
  Alcotest.(check int) "same count" (List.length plus) (List.length minus);
  List.iter
    (fun (p : Solutions.point) ->
      let mirrored =
        List.exists
          (fun (m : Solutions.point) ->
            Angle.dist m.phi (-.p.phi) < 1e-4
            && Float.abs (m.a -. p.a) < 1e-6
            && m.stable = p.stable)
          minus
      in
      Alcotest.(check bool) "mirror exists" true mirrored)
    plus

let test_solutions_disappear_past_boundary () =
  let g = Lazy.force fixture_grid in
  Alcotest.(check bool) "stable inside" true (Solutions.stable_exists g ~phi_d:0.045);
  Alcotest.(check bool) "gone outside" false (Solutions.stable_exists g ~phi_d:0.06)

let test_n_states () =
  let p = { Solutions.phi = 1.2; a = 1.0; stable = true; trace = -1.0; det = 1.0 } in
  let states = Solutions.n_states p ~n:3 in
  Alcotest.(check int) "three states" 3 (List.length states);
  (match states with
  | (psi0, _) :: rest ->
    List.iteri
      (fun k (psi, a) ->
        check_float ~eps:1e-12 "spacing 2pi/3"
          (Angle.wrap_two_pi (psi0 +. (2.0 *. Float.pi *. float_of_int (k + 1) /. 3.0)))
          psi;
        check_float "amplitude preserved" 1.0 a)
      rest
  | [] -> Alcotest.fail "empty states")

(* ------------------------------------------------------------------ *)
(* Lock range *)

let test_lock_range_tanh_golden () =
  let g = Lazy.force fixture_grid in
  let boundary = Lock_range.phi_d_boundary g in
  (* golden value; validated against transient simulation in
     test_simulate below *)
  check_float ~eps:2e-3 "phi_d boundary" 0.0500 boundary

let test_lock_range_predict () =
  let g = Lazy.force fixture_grid in
  let lr = Lock_range.predict g ~tank:fixture_tank in
  Alcotest.(check bool) "band straddles 3 fc" true
    (lr.f_inj_low < 3e6 && 3e6 < lr.f_inj_high);
  (* delta identity: delta_f_osc = fc tan(phi_max) / Q *)
  let expected_delta =
    3.0 *. Tank.f_c fixture_tank *. tan lr.phi_d_max /. Tank.q fixture_tank
  in
  check_float ~eps:(expected_delta *. 1e-9) "delta identity" expected_delta
    lr.delta_f_inj;
  Alcotest.(check bool) "has locks at centre" true (lr.at_center <> [])

let test_lock_range_r_mismatch () =
  let g = Lazy.force fixture_grid in
  let tank = Tank.make ~r:999.0 ~l:1e-5 ~c:1e-9 in
  Alcotest.check_raises "R mismatch"
    (Invalid_argument "Lock_range.predict: grid and tank R differ") (fun () ->
      ignore (Lock_range.predict g ~tank))

let test_lock_range_no_lock () =
  (* absurdly small injection at coarse grid: boundary ~ small but > 0;
     zero injection has marginal lock: check it does not crash and is finite *)
  let g = Grid.sample tanh_nl ~n:3 ~r:fixture_r ~vi:1e-6 ~a_range:(0.9, 1.4) () in
  let b = Lock_range.phi_d_boundary ~tol:1e-4 g in
  Alcotest.(check bool) "tiny injection -> tiny range" true (b < 0.01)

(* ------------------------------------------------------------------ *)
(* FHIL / Adler baseline *)

let test_fhil_matches_adler_weak_injection () =
  (* for weak injection the rigorous n=1 lock range approaches Adler *)
  let vi = 0.01 in
  let a_nat = 1.1582 in
  let g = Grid.sample tanh_nl ~n:1 ~r:fixture_r ~vi ~a_range:(0.9, 1.4) () in
  let lr = Lock_range.predict g ~tank:fixture_tank in
  let f_lo, f_hi = Fhil.adler_range ~tank:fixture_tank ~a:a_nat ~vi in
  let adler_delta = f_hi -. f_lo in
  Alcotest.(check bool) "within 15% of Adler" true
    (Float.abs (lr.delta_f_inj -. adler_delta) /. adler_delta < 0.15)

(* ------------------------------------------------------------------ *)
(* Simulate: the fixture oscillator as a behavioural netlist on the MNA
   transient *)

let fixture_osc : Analysis.oscillator = { nl = tanh_nl; tank = fixture_tank }
let spc = Circuits.Behavioural.steps_per_cycle
let probe = Circuits.Behavioural.probe

let fixture_locked ~f_inj =
  Circuits.Validate.locked ~cycles:400.0 ~steps_per_cycle:spc
    ~circuit:(Circuits.Behavioural.injected ~n:3 ~vi:0.05 fixture_osc ~f_inj)
    ~probe ~n:3 ~f_inj ()

let test_simulate_free_run_amplitude () =
  let cmp =
    Circuits.Validate.natural ~cycles:300.0 ~steps_per_cycle:spc
      ~circuit:
        (Circuits.Behavioural.circuit ~kick:Circuits.Behavioural.kick
           fixture_osc)
      ~probe ~osc:fixture_osc ()
  in
  check_float ~eps:2e-3 "transient amplitude matches DF" 1.1582
    cmp.simulated_a;
  check_float ~eps:(1e6 *. 1e-3) "transient frequency is fc" 1e6
    cmp.simulated_f

let test_simulate_locks_inside_band () =
  Alcotest.(check bool) "locks at centre" true (fixture_locked ~f_inj:3.0e6)

let test_simulate_unlocked_outside_band () =
  Alcotest.(check bool) "does not lock far out" false
    (fixture_locked ~f_inj:3.06e6)

let test_injection_current () =
  let inj = { Simulate.vi = 0.05; n = 3; f_inj = 3.0e6; phase = 0.0 } in
  let im = Simulate.injection_current ~tank:fixture_tank inj in
  let h = Tank.mag fixture_tank ~omega:(2.0 *. Float.pi *. 3.0e6) in
  check_float ~eps:1e-12 "I = 2 vi / |H|" (2.0 *. 0.05 /. h) im

(* ------------------------------------------------------------------ *)
(* Analysis *)

let test_analysis_run () =
  let report = Analysis.run { nl = tanh_nl; tank = fixture_tank } ~n:3 ~vi:0.05 in
  (match report.natural_amplitude with
  | Some a -> check_float ~eps:1e-3 "natural amplitude" 1.1582 a
  | None -> Alcotest.fail "no natural oscillation");
  Alcotest.(check int) "two locks at centre" 2 (List.length report.locks_at_center);
  Alcotest.(check bool) "positive lock range" true
    (report.lock_range.delta_f_inj > 0.0)

let test_analysis_locks_at () =
  let report = Analysis.run { nl = tanh_nl; tank = fixture_tank } ~n:3 ~vi:0.05 in
  let inside = Analysis.locks_at report ~f_inj:3.0e6 in
  Alcotest.(check bool) "locks at centre frequency" true
    (List.exists (fun (p : Solutions.point) -> p.stable) inside);
  let outside = Analysis.locks_at report ~f_inj:3.1e6 in
  Alcotest.(check bool) "no stable lock far away" false
    (List.exists (fun (p : Solutions.point) -> p.stable) outside)

let test_analysis_requires_oscillation () =
  let dead = Nonlinearity.neg_tanh ~g0:1e-4 ~isat:1e-3 in
  Alcotest.(check bool) "raises typed No_oscillation without a_range" true
    (try
       ignore (Analysis.run { nl = dead; tank = fixture_tank } ~n:3 ~vi:0.05);
       false
     with Resilience.Oshil_error.Error e ->
       e.kind = Resilience.Oshil_error.No_oscillation)

(* ------------------------------------------------------------------ *)
(* Quadrature chosen by stated error *)

let quad_tol = Lock_range.default_tol /. 10.0

let paper_osc = function
  | "tanh" -> Circuits.Tanh_osc.oscillator Circuits.Tanh_osc.default
  | "diffpair" -> Circuits.Diff_pair.oscillator Circuits.Diff_pair.default
  | "tunnel" -> Circuits.Tunnel_osc.oscillator Circuits.Tunnel_osc.default
  | other -> invalid_arg other

(* the three paper cells at n = 3, V_i = 0.03, N chosen by the pilot *)
let paper_reports =
  List.map
    (fun name -> (name, lazy (Analysis.run (paper_osc name) ~n:3 ~vi:0.03)))
    [ "tanh"; "diffpair"; "tunnel" ]

let paper_report name = Lazy.force (List.assoc name paper_reports)

let chosen (r : Analysis.shil_report) =
  match r.quadrature with
  | Some q -> q
  | None -> Alcotest.fail "no quadrature chosen without ?points"

let prop_chosen_points_accuracy name =
  qtest ~count:40
    (Printf.sprintf "%s: I1 at chosen N within 10 tol of 4096 points" name)
    QCheck.(pair (float_range 0.0 1.0) (float_range 0.0 (2.0 *. Float.pi)))
    (fun (u, phi) ->
      let r = paper_report name in
      let a_lo, a_hi = r.grid.a_range in
      let a = a_lo +. (u *. (a_hi -. a_lo)) in
      let i1 points =
        Describing_function.i1_two_tone ~points r.osc.nl ~n:3 ~a ~vi:0.03 ~phi
      in
      let reference = i1 4096 in
      Cx.abs (Cx.sub (i1 (chosen r).points) reference)
      <= 10.0 *. quad_tol *. Cx.abs reference)

let test_diffpair_hits_cap () =
  let r = paper_report "diffpair" in
  let q = chosen r in
  Alcotest.(check int) "N at the cap" Describing_function.default_points
    q.points;
  Alcotest.(check bool) "estimate above tol" true (q.estimate > quad_tol);
  Alcotest.(check int) "grid at its own cap" Grid.default_points r.grid.points

let bits_equal msg x y =
  Alcotest.(check int64) msg (Int64.bits_of_float x) (Int64.bits_of_float y)

let test_explicit_points_bypass () =
  let osc = paper_osc "tanh" in
  let run = Analysis.run ~points:128 ~n_phi:31 ~n_amp:21 osc ~n:3 ~vi:0.03 in
  Alcotest.(check bool) "no pilot" true (Option.is_none run.quadrature);
  Alcotest.(check int) "grid at the given points" 128 run.grid.points;
  let grid =
    Grid.sample ~points:128 ~n_phi:31 ~n_amp:21 osc.nl ~n:3 ~r:osc.tank.r
      ~vi:0.03 ~a_range:run.grid.a_range ()
  in
  let lr = Lock_range.predict ~points:128 grid ~tank:osc.tank in
  bits_equal "phi_d_max" lr.phi_d_max run.lock_range.phi_d_max

(* The natural solve sized by stated error finds the fixed-count
   solve's roots: to 1e-12 where the pilot accepts 128 points, bit for
   bit where the diff-pair's bracket ends need the 1024 cap. *)
let test_natural_within_matches_solve () =
  let within nl ~r = Natural.solve_within ~tol:quad_tol nl ~r in
  List.iter
    (fun name ->
      let osc = paper_osc name in
      let r = osc.tank.r in
      match (within osc.nl ~r, Natural.solve osc.nl ~r) with
      | [ s ], [ s' ] ->
        Alcotest.(check bool) (name ^ " stable") s'.stable s.stable;
        if name = "diffpair" then bits_equal "diff-pair root" s'.a s.a
        else if Float.abs (s.a -. s'.a) > 1e-12 *. s'.a then
          Alcotest.failf "%s: %.17g vs %.17g" name s.a s'.a
      | _ -> Alcotest.failf "%s: expected one solution each" name)
    [ "tanh"; "tunnel"; "diffpair" ];
  Alcotest.(check int) "no oscillation" 0
    (List.length (within tanh_nl ~r:400.0))

(* The fixed-count pipeline the chosen N replaces: a 512-point grid and
   the 1024-point refinement default. *)
let test_chosen_edges_bit_identical name () =
  let r = paper_report name in
  let osc = paper_osc name in
  let a =
    match Natural.predicted_amplitude osc.nl ~r:osc.tank.r with
    | Some a -> a
    | None -> Alcotest.fail "no natural oscillation"
  in
  let grid =
    Grid.sample ~points:512 osc.nl ~n:3 ~r:osc.tank.r ~vi:0.03
      ~a_range:(0.25 *. a, 1.25 *. a) ()
  in
  let old = Lock_range.predict grid ~tank:osc.tank in
  bits_equal "phi_d_max" old.phi_d_max r.lock_range.phi_d_max;
  bits_equal "f_inj_low" old.f_inj_low r.lock_range.f_inj_low;
  bits_equal "f_inj_high" old.f_inj_high r.lock_range.f_inj_high

(* The injection-harmonic line reads |I_n| at the stable centre lock,
   not at the first lock in phi order (the unstable phi = 0 one) *)
let test_injection_harmonic_stable_lock () =
  let r = paper_report "tanh" in
  let stable, unstable =
    List.partition (fun (p : Solutions.point) -> p.stable) r.locks_at_center
  in
  let a =
    match (stable, unstable) with
    | [ s ], [ u ] ->
      Alcotest.(check bool) "the unstable lock comes first" true
        (List.hd r.locks_at_center = u);
      s.a
    | _ -> Alcotest.fail "expected one stable and one unstable centre lock"
  in
  let expected =
    Describing_function.ik_two_tone ~points:(chosen r).points r.osc.nl ~n:3
      ~a ~vi:0.03 ~phi:0.0 ~k:3
  in
  match r.injection_harmonic with
  | Some z ->
    bits_equal "Re I3" (Cx.re expected) (Cx.re z);
    bits_equal "Im I3" (Cx.im expected) (Cx.im z)
  | None -> Alcotest.fail "no injection harmonic"

(* ------------------------------------------------------------------ *)
(* The torus grid: the grid Analysis.run fills without ?points *)

let natural_a_range =
  let memo = Hashtbl.create 3 in
  fun name ->
    match Hashtbl.find_opt memo name with
    | Some range -> range
    | None ->
      let osc = paper_osc name in
      let range =
        match Natural.predicted_amplitude osc.nl ~r:osc.tank.r with
        | Some a -> (0.25 *. a, 1.25 *. a)
        | None -> Alcotest.fail "no natural oscillation"
      in
      Hashtbl.add memo name range;
      range

(* every paper cell's torus grid, as Analysis.run would sample it, or
   [None] where the pilot chose the direct grid *)
let torus_cells =
  List.concat_map
    (fun name ->
      List.concat_map
        (fun n ->
          List.map
            (fun vi ->
              ( (name, n, vi),
                lazy
                  (let osc = paper_osc name in
                   let a_range = natural_a_range name in
                   let q =
                     Describing_function.choose_points
                       ~grid_cap:Grid.default_points ~tol:quad_tol osc.nl ~n
                       ~vi ~a_range
                   in
                   Option.map
                     (fun psi ->
                       Grid.sample
                         ~points:(min q.points Grid.default_points)
                         ~psi osc.nl ~n ~r:osc.tank.r ~vi ~a_range ())
                     q.psi) ))
            [ 0.01; 0.03; 0.08 ])
        [ 2; 3; 4; 5 ])
    [ "tanh"; "tunnel"; "diffpair" ]

let test_analytic_cells_take_torus () =
  List.iter
    (fun ((name, n, vi), g) ->
      if name <> "diffpair" && Option.is_none (Lazy.force g) then
        Alcotest.failf "%s n=%d vi=%g: no torus count met the tolerance" name
          n vi)
    torus_cells

(* the diff-pair's PCHIP table stalls the torus pilot's doubling, so
   every diff-pair cell samples the direct grid *)
let test_diffpair_cells_fall_back () =
  List.iter
    (fun ((name, n, vi), g) ->
      if name = "diffpair" && Option.is_some (Lazy.force g) then
        Alcotest.failf "diffpair n=%d vi=%g: took a torus count" n vi)
    torus_cells

(* The error is measured against the grid's largest |I1|, the scale of
   the eq. 3 and eq. 4 fields: the tunnel diode's I1 passes through zero
   inside its analysis box, where no relative bound per cell can hold. *)
let prop_torus_cells_match_direct =
  qtest ~count:200 "torus grid cells within 10 tol of the direct grid"
    QCheck.(
      triple
        (int_bound (List.length torus_cells - 1))
        (float_range 0.0 1.0) (float_range 0.0 1.0))
    (fun (c, u, v) ->
      let (name, n, vi), g = List.nth torus_cells c in
      match Lazy.force g with
      | None -> true
      | Some g ->
        let i = int_of_float (u *. float_of_int (Array.length g.phis - 1)) in
        let j = int_of_float (v *. float_of_int (Array.length g.amps - 1)) in
        let direct =
          Describing_function.i1_two_tone ~points:g.points (paper_osc name).nl
            ~n ~a:g.amps.(j) ~vi ~phi:g.phis.(i)
        in
        let scale =
          Array.fold_left
            (Array.fold_left (fun m z -> Float.max m (Cx.abs z)))
            0.0 g.i1
        in
        Cx.abs (Cx.sub g.i1.(i).(j) direct) <= 10.0 *. quad_tol *. scale)

(* the PCHIP diff-pair never meets the torus tolerance: its grid is the
   direct 512-point grid, bit for bit *)
let test_diffpair_falls_back () =
  let r = paper_report "diffpair" in
  let q = chosen r in
  Alcotest.(check (option int)) "no torus count" None q.psi;
  Alcotest.(check bool) "torus estimate above tol" true
    (q.psi_estimate > quad_tol);
  Alcotest.(check (option int)) "direct grid" None r.grid.psi;
  let direct =
    Grid.sample ~points:512 r.osc.nl ~n:3 ~r:r.osc.tank.r ~vi:0.03
      ~a_range:r.grid.a_range ()
  in
  Array.iteri
    (fun i row ->
      Array.iteri
        (fun j z ->
          let z' = direct.i1.(i).(j) in
          bits_equal "re" (Cx.re z') (Cx.re z);
          bits_equal "im" (Cx.im z') (Cx.im z))
        row)
    r.grid.i1

(* ------------------------------------------------------------------ *)
(* Injection pulling *)

let test_pulling_zero_inside_band () =
  let report = Analysis.run { nl = tanh_nl; tank = fixture_tank } ~n:3 ~vi:0.05 in
  let lr = report.lock_range in
  let centre = 0.5 *. (lr.f_inj_low +. lr.f_inj_high) in
  check_float "no beat inside" 0.0
    (Pulling.beat_frequency ~lock_range:lr ~n:3 ~f_inj:centre)

let test_pulling_sqrt_law () =
  let report = Analysis.run { nl = tanh_nl; tank = fixture_tank } ~n:3 ~vi:0.05 in
  let lr = report.lock_range in
  let half = 0.5 *. lr.delta_f_inj /. 3.0 in
  (* at delta = 2 wL the beat is sqrt(3) wL *)
  let centre = 0.5 *. (lr.f_inj_low +. lr.f_inj_high) in
  let f_inj = centre +. (3.0 *. (2.0 *. half)) in
  check_float ~eps:(half *. 1e-6) "sqrt(3) wL"
    (sqrt 3.0 *. half)
    (Pulling.beat_frequency ~lock_range:lr ~n:3 ~f_inj)

let test_pulling_measured_tracks_prediction () =
  let report = Analysis.run { nl = tanh_nl; tank = fixture_tank } ~n:3 ~vi:0.05 in
  let lr = report.lock_range in
  let f_inj = lr.f_inj_high +. lr.delta_f_inj in
  let pred = Pulling.beat_frequency ~lock_range:lr ~n:3 ~f_inj in
  let signal =
    Circuits.Validate.transient_signal
      ~circuit:(Circuits.Behavioural.injected ~n:3 ~vi:0.05 fixture_osc ~f_inj)
      ~probe
      ~dt:(1.0 /. (1e6 *. float_of_int spc))
      ~t_stop:(1200.0 /. 1e6)
  in
  let meas = Pulling.measure_beat signal ~n:3 ~f_inj in
  Alcotest.(check bool) "within 10%" true (Float.abs (meas -. pred) /. pred < 0.1)

(* Lock-point pins: the refined points at the band centre (phi_d = 0)
   of the three paper cells at n = 3, V_i = 0.03. The values were
   recorded with a finite-difference Jacobian and Cramer's rule; the
   exact-Jacobian Newton takes other steps to the same roots, which
   may move them by no more than [pin_tol] relative. A phase pinned
   at 0 must stay exactly 0: [Solutions] snaps a lock within 1e-9 of
   0 to 0. *)
let pin_tol = 1e-10

let lock_point_pins =
  [
    ( "tanh",
      Circuits.Tanh_osc.oscillator Circuits.Tanh_osc.default,
      [
        (0x0p+0, 0x1.23e191ad9b0c5p+0, false);
        (0x1.921fb54442d1dp+1, 0x1.2c157a8ad668dp+0, true);
      ] );
    ( "diffpair",
      Circuits.Diff_pair.oscillator Circuits.Diff_pair.default,
      [
        (0x0p+0, 0x1.d3b56d444ce03p-2, false);
        (0x1.921fb54442d19p+1, 0x1.16cbbd1040f09p-1, true);
      ] );
    ( "tunnel",
      Circuits.Tunnel_osc.oscillator Circuits.Tunnel_osc.default,
      [
        (0x0p+0, 0x1.30b1520a54dbep-3, false);
        (0x1.921fb54442d18p+1, 0x1.b7eac877fb5fcp-3, true);
      ] );
  ]

let test_lock_point_pins () =
  List.iter
    (fun (name, osc, expected) ->
      let report = Analysis.run osc ~n:3 ~vi:0.03 in
      let got =
        List.map
          (fun (p : Solutions.point) -> (p.phi, p.a, p.stable))
          report.Analysis.locks_at_center
      in
      Alcotest.(check int) (name ^ ": lock count") (List.length expected)
        (List.length got);
      List.iter2
        (fun (phi, a, stable) (phi', a', stable') ->
          let near what x x' =
            if Float.abs (x -. x') > pin_tol *. Float.abs x then
              Alcotest.failf "%s: %s = %h, pinned %h" name what x' x
          in
          near "phi" phi phi';
          near "a" a a';
          Alcotest.(check bool) (name ^ ": stability") stable stable')
        expected got)
    lock_point_pins

(* The diff-pair cell at n = 2, V_i = 0.01, exact quadrature, just past
   the fold of its stable branch: the largest -arg(-I_1) along
   T_f = 1 is 0.0078973 there (1024 points), and the lock range's
   bisection probes 0.00789795. A refinement that counts a residual
   below 1e-6 after 60 steps as converged returned 3-4 near-duplicate
   non-roots at these phases, two "stable" points 3.4e-4 rad apart.
   Every point [find] returns must be a root (residual <= 1e-10), no
   two of one stability within 1e-2 rad; just inside the fold both
   stable points are still found. *)
let test_no_spurious_points_near_fold () =
  let r =
    Analysis.run (Circuits.Diff_pair.oscillator Circuits.Diff_pair.default)
      ~n:2 ~vi:0.01
  in
  let g = r.grid in
  let points = Option.map (fun (q : Describing_function.points_choice) -> q.points) r.quadrature in
  let locks phi_d =
    let pts = Solutions.find ?points g ~phi_d in
    List.iter
      (fun (p : Solutions.point) ->
        let r1, r2 =
          Solutions.residuals ?points g.nl ~n:g.n ~r:g.r ~vi:g.vi ~phi_d (p.phi, p.a)
        in
        let res = Float.max (Float.abs r1) (Float.abs r2) in
        if not (res <= 1e-10) then
          Alcotest.failf "phi_d = %g: point (%.9g, %.9g) has residual %.2e" phi_d
            p.phi p.a res)
      pts;
    List.iteri
      (fun i (p : Solutions.point) ->
        List.iteri
          (fun j (q : Solutions.point) ->
            if i < j && p.stable = q.stable && Angle.dist p.phi q.phi < 1e-2 then
              Alcotest.failf "phi_d = %g: duplicates at phi %.9g and %.9g" phi_d
                p.phi q.phi)
          pts)
      pts;
    pts
  in
  List.iter
    (fun phi_d -> ignore (locks phi_d))
    [ 0.0078975; 0.0078980; 0.0078982; 0.00789795 ];
  Alcotest.(check int) "both stable points just inside the fold" 2
    (List.length
       (List.filter (fun (p : Solutions.point) -> p.stable) (locks 0.0078972)))

(* The fused pass against central differences of [i1_two_tone] on the
   same samples, for an analytic odd f (tanh), an analytic asymmetric
   one (the tunnel diode) and the C^1 PCHIP diff-pair table, in both
   reductions. The steps are 1e-6 relative in A and 1e-6 rad in phi;
   the central differences then carry ~1e-10 rounding and, where a
   sample straddles a PCHIP knot, ~3e-8 truncation error (measured),
   so the bound is 1e-6 of |I_1|/A for the A derivative and of |I_1|
   for the phi derivative. Its I_1 is i1_two_tone's, bit for bit. *)
let test_df_jacobian_matches_differences () =
  let cells =
    [
      ("tanh", tanh_nl, 1.15);
      ("tunnel", (Circuits.Tunnel_osc.oscillator Circuits.Tunnel_osc.default).nl, 0.2);
      ("diffpair", (Circuits.Diff_pair.oscillator Circuits.Diff_pair.default).nl, 0.5);
    ]
  in
  let vi = 0.03 and points = 256 in
  List.iter
    (fun (name, nl, a) ->
      List.iter
        (fun (n, reduction, phi) ->
          let i1 ~a ~phi =
            Describing_function.i1_two_tone ~points ~reduction nl ~n ~a ~vi ~phi
          in
          let d =
            Describing_function.i1_jacobian ~points ~reduction nl ~n ~a ~vi ~phi
          in
          let label =
            Printf.sprintf "%s n=%d %s phi=%g" name n
              (if reduction = `Exact then "exact" else "symmetry")
              phi
          in
          let z = i1 ~a ~phi in
          if
            Int64.bits_of_float (Cx.re d.i1) <> Int64.bits_of_float (Cx.re z)
            || Int64.bits_of_float (Cx.im d.i1) <> Int64.bits_of_float (Cx.im z)
          then Alcotest.failf "%s: I1 is not i1_two_tone's" label;
          let ha = 1e-6 *. a and hp = 1e-6 in
          let cd h zp zm = Cx.scale (1.0 /. (2.0 *. h)) (Cx.sub zp zm) in
          let check what got want bound =
            let err = Cx.abs (Cx.sub got want) in
            if not (err <= bound) then
              Alcotest.failf "%s: %s off by %.2e (bound %.2e)" label what err bound
          in
          check "dI1/dA" d.d_a
            (cd ha (i1 ~a:(a +. ha) ~phi) (i1 ~a:(a -. ha) ~phi))
            (1e-6 *. Cx.abs z /. a);
          check "dI1/dphi" d.d_phi
            (cd hp (i1 ~a ~phi:(phi +. hp)) (i1 ~a ~phi:(phi -. hp)))
            (1e-6 *. Cx.abs z))
        (List.concat_map
           (fun n ->
             List.concat_map
               (fun reduction ->
                 List.map (fun phi -> (n, reduction, phi)) [ 0.3; 2.0; 4.5 ])
               [ `Exact; `Symmetry ])
           [ 2; 3 ]))
    cells

let () =
  Alcotest.run "shil"
    [
      ( "nonlinearity",
        [
          Alcotest.test_case "neg_tanh" `Quick test_neg_tanh;
          Alcotest.test_case "cubic" `Quick test_cubic;
          prop_numeric_df;
          prop_table_matches_function;
          Alcotest.test_case "shift_bias" `Quick test_shift_bias;
          Alcotest.test_case "scale_current" `Quick test_scale_current;
          Alcotest.test_case "tunnel negative resistance" `Quick test_tunnel_nl_negative_resistance;
          Alcotest.test_case "tunnel matches spice" `Quick test_tunnel_nl_matches_spice_device;
          Alcotest.test_case "sample" `Quick test_sample;
        ] );
      ( "tank",
        [
          Alcotest.test_case "basics" `Quick test_tank_basics;
          Alcotest.test_case "phase sign" `Quick test_tank_phase_sign;
          prop_tank_circle_identity;
          prop_tank_phase_roundtrip;
          Alcotest.test_case "circle point" `Quick test_tank_circle_point;
          Alcotest.test_case "circle locus" `Quick test_tank_circle_locus;
          Alcotest.test_case "validation" `Quick test_tank_validation;
          Alcotest.test_case "h formula" `Quick test_tank_h_formula;
        ] );
      ( "describing_function",
        [
          prop_df_linear_i1;
          prop_df_cubic_closed_form;
          Alcotest.test_case "even harmonics vanish" `Quick test_df_even_harmonics_vanish;
          prop_df_two_tone_reduces_to_single;
          prop_df_two_tone_linear_no_leak;
          prop_df_phi_periodicity;
          prop_df_conjugate_symmetry;
          prop_df_rotation_identity;
          Alcotest.test_case "small signal T_f" `Quick test_df_t_f_free_small_signal;
          Alcotest.test_case "a > 0 required" `Quick test_df_t_f_requires_positive_a;
          Alcotest.test_case "T_F vs T_f" `Quick test_df_t_cap_f_vs_t_f_on_solution;
          Alcotest.test_case "quadrature convergence" `Quick test_df_quadrature_convergence;
          Alcotest.test_case "fused pass vs differences" `Quick
            test_df_jacobian_matches_differences;
        ] );
      ( "natural",
        [
          Alcotest.test_case "tanh amplitude" `Quick test_natural_tanh;
          prop_natural_cubic_closed_form;
          Alcotest.test_case "no oscillation" `Quick test_natural_no_oscillation;
          Alcotest.test_case "small signal gain" `Quick test_small_signal_gain;
        ] );
      ( "contour",
        [
          Alcotest.test_case "circle" `Quick test_contour_circle;
          Alcotest.test_case "closed polyline" `Quick test_contour_polyline_closed;
          Alcotest.test_case "line" `Quick test_contour_line;
          Alcotest.test_case "filter" `Quick test_contour_filter;
          Alcotest.test_case "nan skipped" `Quick test_contour_nan_skipped;
        ] );
      ( "grid",
        [
          Alcotest.test_case "t_f field" `Quick test_grid_t_f_field_consistency;
          prop_grid_interp_accuracy;
          Alcotest.test_case "curves nonempty" `Quick test_grid_curves_nonempty;
          Alcotest.test_case "validation" `Quick test_grid_validation;
          Alcotest.test_case "parallel = sequential" `Quick
            test_grid_parallel_equals_sequential;
        ] );
      ( "solutions",
        [
          Alcotest.test_case "centre locks" `Quick test_solutions_at_center;
          Alcotest.test_case "residuals vanish" `Quick test_solutions_residuals_vanish;
          Alcotest.test_case "mirror symmetry" `Quick test_solutions_mirror_symmetry;
          Alcotest.test_case "boundary" `Quick test_solutions_disappear_past_boundary;
          Alcotest.test_case "n states" `Quick test_n_states;
          Alcotest.test_case "lock point pins" `Quick test_lock_point_pins;
          Alcotest.test_case "no spurious points near a fold" `Quick
            test_no_spurious_points_near_fold;
        ] );
      ( "lock_range",
        [
          Alcotest.test_case "tanh golden boundary" `Quick test_lock_range_tanh_golden;
          Alcotest.test_case "predict" `Quick test_lock_range_predict;
          Alcotest.test_case "r mismatch" `Quick test_lock_range_r_mismatch;
          Alcotest.test_case "tiny injection" `Quick test_lock_range_no_lock;
        ] );
      ( "fhil",
        [ Alcotest.test_case "adler agreement" `Quick test_fhil_matches_adler_weak_injection ] );
      ( "pulling",
        [
          Alcotest.test_case "zero inside band" `Quick test_pulling_zero_inside_band;
          Alcotest.test_case "sqrt law" `Quick test_pulling_sqrt_law;
          Alcotest.test_case "measured tracks prediction" `Slow test_pulling_measured_tracks_prediction;
        ] );
      ( "simulate",
        [
          Alcotest.test_case "free run amplitude" `Slow test_simulate_free_run_amplitude;
          Alcotest.test_case "locks inside band" `Slow test_simulate_locks_inside_band;
          Alcotest.test_case "unlocked outside band" `Slow test_simulate_unlocked_outside_band;
          Alcotest.test_case "injection current" `Quick test_injection_current;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "run" `Slow test_analysis_run;
          Alcotest.test_case "locks_at" `Slow test_analysis_locks_at;
          Alcotest.test_case "requires oscillation" `Quick test_analysis_requires_oscillation;
        ] );
      ( "quadrature choice",
        [
          prop_chosen_points_accuracy "tanh";
          prop_chosen_points_accuracy "tunnel";
          Alcotest.test_case "diff-pair hits the cap" `Quick
            test_diffpair_hits_cap;
          Alcotest.test_case "explicit points bypass the pilot" `Quick
            test_explicit_points_bypass;
          Alcotest.test_case "natural solve by stated error" `Quick
            test_natural_within_matches_solve;
          Alcotest.test_case "tanh edges match fixed points" `Quick
            (test_chosen_edges_bit_identical "tanh");
          Alcotest.test_case "tunnel edges match fixed points" `Quick
            (test_chosen_edges_bit_identical "tunnel");
          Alcotest.test_case "diff-pair edges match fixed points" `Quick
            (test_chosen_edges_bit_identical "diffpair");
          Alcotest.test_case "injection harmonic at the stable lock" `Quick
            test_injection_harmonic_stable_lock;
        ] );
      ( "torus grid",
        [
          Alcotest.test_case "analytic cells take the torus" `Quick
            test_analytic_cells_take_torus;
          prop_torus_cells_match_direct;
          Alcotest.test_case "diff-pair falls back to the direct grid" `Quick
            test_diffpair_falls_back;
          Alcotest.test_case "every diff-pair cell falls back" `Quick
            test_diffpair_cells_fall_back;
        ] );
    ]
