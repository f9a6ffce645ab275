(* Property and differential tests for the paper's limit cases.

   Three families:

   - qcheck limit-case laws (satellite a): with [V_i = 0] the SHIL
     machinery reduces to the free-running [Natural] theory, and with
     [n = 1] it agrees with the FHIL phasor picture (Adler regime).
   - metamorphic laws (satellite b): symmetries of [I_1(A, V_i, phi)]
     that hold for *any* nonlinearity — conjugation, 2 pi periodicity,
     current scaling, amplitude scaling for linear cells, and the
     [psi -> psi + 2 pi / n] state symmetry behind the paper's n
     distinct lock states (section VI-B4).
   - a coarse-budget differential test (satellite c): the DF-predicted
     lock range of the tanh oscillator cross-checked against
     [Spice.Transient] lock/unlock probes at the band edges.

   Every qcheck test runs from the pinned seed in [Qseed] and prints it
   in its case name, so failures replay with
   [QCHECK_SEED=<seed> dune runtest]. *)

module Cx = Numerics.Cx
module Df = Shil.Describing_function
module Nl = Shil.Nonlinearity

(* Quadrature points for property evaluations: 256 keeps each qcheck
   iteration cheap; the tanh/cubic cells here are smooth enough that
   the trapezoid rule is already at roundoff by then. *)
let pts = 256

let cx_close ?(tol = 1e-9) a b =
  let scale = Float.max 1.0 (Float.max (Cx.abs a) (Cx.abs b)) in
  Cx.abs (Cx.sub a b) <= tol *. scale

let close ?(tol = 1e-9) a b =
  let scale = Float.max 1.0 (Float.max (Float.abs a) (Float.abs b)) in
  Float.abs (a -. b) <= tol *. scale

(* ------------------------------------------------------------------ *)
(* Generators *)

(* tanh cells that actually oscillate in a 1 kOhm tank: g0 R in
   [1.3, 4], so Natural.solve always has a stable solution. *)
let gen_tanh_params =
  QCheck.Gen.(
    triple (float_range 1.3e-3 4e-3) (float_range 0.5e-3 2e-3)
      (float_range 0.6 1.8))

let arb_tanh =
  QCheck.make gen_tanh_params ~print:(fun (g0, isat, a) ->
      Printf.sprintf "g0=%.6g isat=%.6g a=%.6g" g0 isat a)

let gen_two_tone =
  QCheck.Gen.(
    tup5 (float_range 1.3e-3 4e-3) (float_range 0.5 1.5)
      (float_range 0.01 0.1)
      (float_range (-.Float.pi) Float.pi)
      (int_range 2 5))

let arb_two_tone =
  QCheck.make gen_two_tone ~print:(fun (g0, a, vi, phi, n) ->
      Printf.sprintf "g0=%.6g a=%.6g vi=%.6g phi=%.6g n=%d" g0 a vi phi n)

let tanh_cell g0 = Nl.neg_tanh ~g0 ~isat:1e-3

(* ------------------------------------------------------------------ *)
(* Limit case: V_i = 0 reduces SHIL to the free-running theory *)

let prop_vi_zero_i1 =
  Qseed.qtest ~count:60 "vi=0: I1(A,0,phi) = I1(A), real" arb_two_tone
    (fun (g0, a, _vi, phi, n) ->
      let nl = tanh_cell g0 in
      let two = Df.i1_two_tone ~points:pts nl ~n ~a ~vi:0.0 ~phi in
      let one = Df.i1 ~points:pts nl ~a in
      close two.Cx.re one && Float.abs two.Cx.im <= 1e-12 *. Float.abs one)

let prop_vi_zero_t_f =
  Qseed.qtest ~count:60 "vi=0: T_f(A,0,phi) = T_f_free(A)" arb_two_tone
    (fun (g0, a, _vi, phi, n) ->
      let nl = tanh_cell g0 in
      close
        (Df.t_f ~points:pts nl ~n ~r:1e3 ~a ~vi:0.0 ~phi)
        (Df.t_f_free ~points:pts nl ~r:1e3 ~a))

let prop_vi_zero_natural =
  Qseed.qtest ~count:25 "vi=0: injected gain is 1 at the natural amplitude"
    arb_tanh (fun (g0, isat, _a) ->
      let nl = Nl.neg_tanh ~g0 ~isat in
      match Shil.Natural.predicted_amplitude ~points:pts nl ~r:1e3 with
      | None -> QCheck.Test.fail_report "no natural solution"
      | Some a_star ->
        close ~tol:1e-6
          (Df.t_f ~points:pts nl ~n:3 ~r:1e3 ~a:a_star ~vi:0.0 ~phi:0.7)
          1.0)

(* ------------------------------------------------------------------ *)
(* Limit case: n = 1 is the FHIL phasor picture *)

(* For n = 1 the two tones add at the same frequency:
   A cos t + 2 V_i cos (t + phi) = B cos (t + psi) with
   B e^{j psi} = A + 2 V_i e^{j phi}, so
   I_1(A, V_i, phi) = e^{j psi} I_1(B). *)
let prop_fhil_phasor =
  Qseed.qtest ~count:60 "n=1: I1(A,vi,phi) = e^{j psi} I1(B)" arb_two_tone
    (fun (g0, a, vi, phi, _n) ->
      let nl = tanh_cell g0 in
      let b_phasor = Cx.add (Cx.of_float a) (Cx.polar (2.0 *. vi) phi) in
      let b = Cx.abs b_phasor and psi = Cx.arg b_phasor in
      cx_close
        (Df.i1_two_tone ~points:pts nl ~n:1 ~a ~vi ~phi)
        (Cx.scale (Df.i1 ~points:pts nl ~a:b) (Cx.exp_j psi)))

(* ------------------------------------------------------------------ *)
(* Metamorphic symmetries of I_1(A, V_i, phi) *)

let prop_conjugate =
  Qseed.qtest ~count:60 "I1(A,vi,-phi) = conj I1(A,vi,phi)" arb_two_tone
    (fun (g0, a, vi, phi, n) ->
      let nl = tanh_cell g0 in
      cx_close
        (Df.i1_two_tone ~points:pts nl ~n ~a ~vi ~phi:(-.phi))
        (Cx.conj (Df.i1_two_tone ~points:pts nl ~n ~a ~vi ~phi)))

let prop_periodic =
  Qseed.qtest ~count:60 "I1 is 2pi-periodic in phi" arb_two_tone
    (fun (g0, a, vi, phi, n) ->
      let nl = tanh_cell g0 in
      cx_close
        (Df.i1_two_tone ~points:pts nl ~n ~a ~vi ~phi:(phi +. 2.0 *. Float.pi))
        (Df.i1_two_tone ~points:pts nl ~n ~a ~vi ~phi))

let prop_current_scaling =
  Qseed.qtest ~count:60 "scale_current k => k * I1" arb_two_tone
    (fun (g0, a, vi, phi, n) ->
      let nl = tanh_cell g0 in
      let k = 0.25 +. Float.abs (Float.rem a 1.0) in
      cx_close
        (Df.i1_two_tone ~points:pts (Nl.scale_current nl k) ~n ~a ~vi ~phi)
        (Cx.scale k (Df.i1_two_tone ~points:pts nl ~n ~a ~vi ~phi)))

let prop_amplitude_scaling_linear =
  Qseed.qtest ~count:60 "linear cell: I1(cA, c vi, phi) = c I1(A, vi, phi)"
    arb_two_tone (fun (g0, a, vi, phi, n) ->
      let nl = Nl.make ~name:"linear" (fun v -> -.g0 *. v) in
      let c = 0.5 +. Float.abs (Float.rem (a *. 7.0) 2.0) in
      cx_close
        (Df.i1_two_tone ~points:pts nl ~n ~a:(c *. a) ~vi:(c *. vi) ~phi)
        (Cx.scale c (Df.i1_two_tone ~points:pts nl ~n ~a ~vi ~phi)))

(* State symmetry (section VI-B4): shifting the oscillator phase by
   2 pi / n leaves the injection tone invariant, so the fundamental
   coefficient K(psi) of f(A cos(theta+psi) + 2 V_i cos(n theta + phi0))
   obeys K(psi + 2 pi / n) = e^{j 2 pi / n} K(psi) — the n lock states
   are physically equivalent. *)
let prop_state_symmetry =
  Qseed.qtest ~count:40 "K(psi + 2pi/n) = e^{j 2pi/n} K(psi)" arb_two_tone
    (fun (g0, a, vi, phi0, n) ->
      let nl = tanh_cell g0 in
      let k_of psi =
        Numerics.Fourier.coeff ~n:pts
          ~f:(fun th ->
            Nl.eval nl
              ((a *. Float.cos (th +. psi))
              +. (2.0 *. vi *. Float.cos ((float_of_int n *. th) +. phi0))))
          ~k:1 ()
      in
      let psi = 0.3 and step = 2.0 *. Float.pi /. float_of_int n in
      cx_close (k_of (psi +. step)) (Cx.mul (Cx.exp_j step) (k_of psi)))

let prop_n_states_spacing =
  Qseed.qtest ~count:60 "n_states: n phases spaced 2pi/n at one amplitude"
    arb_two_tone (fun (_g0, a, _vi, phi, n) ->
      let point : Shil.Solutions.point =
        { phi; a; stable = true; trace = -1.0; det = 1.0 }
      in
      let states = Shil.Solutions.n_states point ~n in
      List.length states = n
      && List.for_all (fun (_, ai) -> ai = a) states
      && (* phases come back wrapped into [0, 2 pi): sorted, the n
            equally-spaced states show n - 1 internal gaps of 2 pi / n *)
      (let phases = List.sort Float.compare (List.map fst states) in
       let step = 2.0 *. Float.pi /. float_of_int n in
       List.for_all2
         (fun p q -> close ~tol:1e-9 (q -. p) step)
         (List.filteri (fun i _ -> i < n - 1) phases)
         (List.tl phases)))

(* ------------------------------------------------------------------ *)
(* Adler's law as a weak-injection oracle (n = 1) *)

let test_adler_vs_lock_range () =
  let p = Circuits.Tanh_osc.default in
  let nl = (Circuits.Tanh_osc.oscillator p).nl in
  let tank = Circuits.Tanh_osc.tank p in
  let vi = 0.01 in
  let a_star =
    match Shil.Natural.predicted_amplitude ~points:pts nl ~r:p.r with
    | Some a -> a
    | None -> Alcotest.fail "tanh cell must oscillate"
  in
  let grid =
    Shil.Fhil.grid ~points:pts ~n_phi:81 ~n_amp:61 nl ~r:p.r ~vi
      ~a_range:(0.5 *. a_star, 1.5 *. a_star)
  in
  let lr = Shil.Lock_range.predict ~points:pts grid ~tank in
  let f_lo, f_hi = Shil.Fhil.adler_range ~tank ~a:a_star ~vi in
  let adler_delta = f_hi -. f_lo in
  Alcotest.(check bool) "rigorous range positive" true (lr.delta_f_inj > 0.0);
  (* Adler is a first-order estimate: for weak injection (2 vi / A ~ 2%)
     the rigorous boundary agrees to well under 20%. *)
  Alcotest.(check bool) "within 20% of Adler" true
    (Float.abs (lr.delta_f_inj -. adler_delta) /. adler_delta < 0.2);
  Alcotest.(check bool) "band brackets f_c" true
    (lr.f_inj_low < Shil.Tank.f_c tank && lr.f_inj_high > Shil.Tank.f_c tank)

(* ------------------------------------------------------------------ *)
(* Differential oracle: DF vs full-MNA harmonic balance *)

(* The free-running HB solution every differential leg shares: K = 5
   harmonics, 256-sample quadrature — matched to [pts] so the DF and
   HB legs integrate the same nonlinearity samples. *)
let hb_free osc =
  let tank = (osc.Shil.Analysis.tank : Shil.Tank.t) in
  let a_guess =
    match
      Shil.Natural.predicted_amplitude ~points:pts osc.Shil.Analysis.nl
        ~r:tank.r
    with
    | Some a -> a
    | None -> Alcotest.fail "cell must oscillate"
  in
  Hb.Driver.oscprobe ~k_max:5 ~samples:256
    ~f_guess:(Shil.Tank.f_c tank)
    ~a_guess (Circuits.Behavioural.circuit osc)

let hb_lock_range osc ~free ~n ~vi ~guess_width =
  let tank = (osc.Shil.Analysis.tank : Shil.Tank.t) in
  let inject ~f_inj =
    Circuits.Behavioural.circuit
      ~injection:(Circuits.Behavioural.injection_wave ~tank ~n ~vi ~f_inj)
      osc
  in
  Hb.Driver.lock_range ~free ~n ~guess_width ~inject ()

(* HB truncated to one harmonic is *the same fixed point* as the
   describing function (identical quadrature, identical Trig tables),
   reached through a completely different unknown layout — MNA node
   voltages and branch currents against the scalar amplitude root. *)
let test_hb_k1_is_df_fixed_point () =
  let osc = Circuits.Tanh_osc.oscillator Circuits.Tanh_osc.default in
  let tank = (osc.Shil.Analysis.tank : Shil.Tank.t) in
  let a_df =
    match Shil.Natural.predicted_amplitude osc.Shil.Analysis.nl ~r:tank.r with
    | Some a -> a
    | None -> Alcotest.fail "tanh cell must oscillate"
  in
  let sol =
    Hb.Driver.oscprobe ~k_max:1 ~samples:1024
      ~f_guess:(Shil.Tank.f_c tank)
      ~a_guess:(0.8 *. a_df) (Circuits.Behavioural.circuit osc)
  in
  Alcotest.(check bool) "amplitude to 1e-9 relative" true
    (Float.abs (Hb.Driver.amplitude sol -. a_df) /. a_df < 1e-9);
  Alcotest.(check bool) "frequency is the tank resonance" true
    (close ~tol:1e-9 sol.Hb.Driver.f0 (Shil.Tank.f_c tank))

(* Lock-range agreement on canonical tanh scenarios (odd sub-harmonic
   orders; the tanh cell is odd, so even n couples only at second
   order). The two predictions come from independent machinery — the
   paper's graphical phase condition against Newton on the spectral
   residual — and must place both band edges within 1%. The small
   systematic offset that remains is real physics: HB centers the band
   on the Groszkowski-shifted f_osc, the DF on the tank resonance. *)
let canonical_scenarios = [ (3, 0.03); (3, 0.08); (5, 0.02) ]

let test_hb_vs_df_lock_range () =
  let osc = Circuits.Tanh_osc.oscillator Circuits.Tanh_osc.default in
  let free = hb_free osc in
  List.iter
    (fun (n, vi) ->
      let report = Shil.Analysis.run osc ~n ~vi in
      let lr = report.Shil.Analysis.lock_range in
      let band =
        hb_lock_range osc ~free ~n ~vi
          ~guess_width:lr.Shil.Lock_range.delta_f_inj
      in
      let label fmt =
        Printf.ksprintf
          (fun s -> Printf.sprintf "n=%d vi=%g: %s" n vi s)
          fmt
      in
      Alcotest.(check int) (label "no probe holes") 0 band.Hb.Driver.holes;
      Alcotest.(check bool)
        (label "low edge within 1%%")
        true
        (Float.abs (band.Hb.Driver.f_lo -. lr.Shil.Lock_range.f_inj_low)
         /. lr.Shil.Lock_range.f_inj_low
        < 0.01);
      Alcotest.(check bool)
        (label "high edge within 1%%")
        true
        (Float.abs (band.Hb.Driver.f_hi -. lr.Shil.Lock_range.f_inj_high)
         /. lr.Shil.Lock_range.f_inj_high
        < 0.01);
      Alcotest.(check bool)
        (label "band width within 1%%")
        true
        (Float.abs
           (band.Hb.Driver.f_hi -. band.Hb.Driver.f_lo
          -. lr.Shil.Lock_range.delta_f_inj)
         /. lr.Shil.Lock_range.delta_f_inj
        < 0.01))
    canonical_scenarios

(* ------------------------------------------------------------------ *)
(* Three-way differential oracle: DF vs HB vs MNA transient *)

(* Coarse transient budget on purpose: 4 transients of [cycles] tank
   periods on the 4-node tanh netlist. DF and HB each predict the band
   independently and must agree on both edges to 1%; the MNA
   simulation must then lock at probes 30% inside each edge of the
   band intersection and lose lock 70% outside the union — i.e. the
   three independent solvers agree on the edges to better than ~30% of
   the band width (the recorded transient tolerance; the paper's
   Table I reports ~1% agreement at full budget). *)
let test_lock_range_three_way () =
  let p = Circuits.Tanh_osc.default in
  let nl = (Circuits.Tanh_osc.oscillator p).nl in
  let tank = Circuits.Tanh_osc.tank p in
  let osc = Circuits.Tanh_osc.oscillator p in
  let n = 3 and vi = 0.08 in
  let a_star =
    match Shil.Natural.predicted_amplitude ~points:pts nl ~r:p.r with
    | Some a -> a
    | None -> Alcotest.fail "tanh cell must oscillate"
  in
  let grid =
    Shil.Grid.sample ~points:pts ~n_phi:81 ~n_amp:61 nl ~n ~r:p.r ~vi
      ~a_range:(0.5 *. a_star, 1.5 *. a_star)
      ()
  in
  let lr = Shil.Lock_range.predict ~points:pts grid ~tank in
  Alcotest.(check bool) "predicted band is non-trivial" true
    (lr.delta_f_inj > 1e3);
  (* leg 2: harmonic balance on the full MNA system *)
  let free = hb_free osc in
  Alcotest.(check bool) "HB free amplitude within 0.5% of DF" true
    (Float.abs (Hb.Driver.amplitude free -. a_star) /. a_star < 5e-3);
  let band =
    hb_lock_range osc ~free ~n ~vi ~guess_width:lr.delta_f_inj
  in
  Alcotest.(check bool) "HB/DF low edges within 1%" true
    (Float.abs (band.Hb.Driver.f_lo -. lr.f_inj_low) /. lr.f_inj_low < 0.01);
  Alcotest.(check bool) "HB/DF high edges within 1%" true
    (Float.abs (band.Hb.Driver.f_hi -. lr.f_inj_high) /. lr.f_inj_high
    < 0.01);
  let cycles = 260.0 and steps_per_cycle = 80 in
  let probe = Spice.Transient.Node "t" in
  let locked_at f_inj =
    let im =
      Shil.Simulate.injection_current ~tank { vi; n; f_inj; phase = 0.0 }
    in
    let wave =
      Spice.Wave.Sine { offset = 0.0; ampl = im; freq = f_inj; phase = 0.0; delay = 0.0 }
    in
    let circuit = Circuits.Tanh_osc.circuit ~injection:wave p in
    let dt = 1.0 /. (float_of_int steps_per_cycle *. Shil.Tank.f_c tank) in
    let opts =
      Spice.Transient.default_options ~dt
        ~t_stop:(cycles /. Shil.Tank.f_c tank)
    in
    let res = Spice.Transient.run circuit ~probes:[ probe ] opts in
    (match res.failure with
    | Some e ->
      Alcotest.fail ("transient probe failed: " ^ Resilience.Oshil_error.to_string e)
    | None -> ());
    let s =
      Waveform.Signal.make ~times:res.times
        ~values:(Spice.Transient.signal res probe)
    in
    (Waveform.Lock.analyze s ~f_target:(f_inj /. float_of_int n)).locked
  in
  (* leg 3: transient probes against the DF/HB band intersection
     (inside) and union (outside) — one set of probes checks both
     frequency-domain predictions at once *)
  let d = lr.delta_f_inj in
  let lo_in = Float.max lr.f_inj_low band.Hb.Driver.f_lo in
  let hi_in = Float.min lr.f_inj_high band.Hb.Driver.f_hi in
  let lo_out = Float.min lr.f_inj_low band.Hb.Driver.f_lo in
  let hi_out = Float.max lr.f_inj_high band.Hb.Driver.f_hi in
  Alcotest.(check bool) "locked 30% inside the low edge" true
    (locked_at (lo_in +. (0.3 *. d)));
  Alcotest.(check bool) "locked 30% inside the high edge" true
    (locked_at (hi_in -. (0.3 *. d)));
  Alcotest.(check bool) "unlocked 70% below the low edge" false
    (locked_at (lo_out -. (0.7 *. d)));
  Alcotest.(check bool) "unlocked 70% above the high edge" false
    (locked_at (hi_out +. (0.7 *. d)))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "properties"
    [
      ( "limit: vi = 0",
        [ prop_vi_zero_i1; prop_vi_zero_t_f; prop_vi_zero_natural ] );
      ("limit: n = 1", [ prop_fhil_phasor ]);
      ( "metamorphic",
        [
          prop_conjugate;
          prop_periodic;
          prop_current_scaling;
          prop_amplitude_scaling_linear;
          prop_state_symmetry;
          prop_n_states_spacing;
        ] );
      ( "differential",
        [
          Alcotest.test_case "Adler oracle (weak FHIL)" `Quick
            test_adler_vs_lock_range;
          Alcotest.test_case "HB at K=1 is the DF fixed point" `Quick
            test_hb_k1_is_df_fixed_point;
          Alcotest.test_case "HB vs DF lock range (canonical scenarios)"
            `Quick test_hb_vs_df_lock_range;
          Alcotest.test_case "three-way: DF vs HB vs MNA transient" `Slow
            test_lock_range_three_way;
        ] );
    ]
