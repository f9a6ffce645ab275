(* Harmonic-balance engine tests.

   Nine families:

   - fixed-point equivalence: the oscprobe solve at [k_max = 1] must
     reproduce the describing-function fixed point (same quadrature,
     same Trig tables), on every builtin cell and — property-tested
     from the pinned seed — across random custom tanh cells;
   - reduced cross-check: the MNA engine against the test-only reduced
     solver [Hb_reference] at matched [k_max]/[samples];
   - golden values (the [harmonic_balance] group): the amplitude at the
     DF's, the Groszkowski frequency shift the DF misses, K = 1 as the
     DF itself, the odd cell's missing even harmonics, the asymmetric
     A2 cell's frequency converging in [k_max], and a cell that does
     not oscillate raising a typed error;
   - the synthesized orbit's peak (the [orbit] group);
   - engine internals: the conversion-matrix Jacobian against finite
     differences, the injected-tone branch structure (locked at the
     band center, suppressed far outside), and the input guards;
   - the PPV (the [sensitivity] group): the left null vector of the
     Jacobian with its normalisation, the tanh |V_3| the RK4 adjoint
     path gave, the tunnel cell that path could not solve, and the
     typed error of a singular bordered system;
   - resilience and caching: the [hb-newton] fault site walks the
     policy ladder (recovery on the damped rung, typed
     [solver-divergence] when every rung is shot), and cached solves
     replay bit-identically;
   - the oscprobe's seeds: a table of seeds around the default reaches
     one orbit, a seed that falls into the trivial orbit raises a typed
     error, and a plain rung that leaves for a negative frequency hands
     over to the damped one;
   - pins: MD5s of solution vectors, and one [hb.solves] per
     oscprobe. *)

module Cx = Numerics.Cx
module Nl = Shil.Nonlinearity
module Driver = Hb.Driver
module System = Hb.System

let close ?(tol = 1e-9) a b =
  let scale = Float.max 1.0 (Float.max (Float.abs a) (Float.abs b)) in
  Float.abs (a -. b) <= tol *. scale

let rel a b = Float.abs (a -. b) /. Float.max 1e-300 (Float.abs b)

let df_amplitude ?points nl ~r =
  match Shil.Natural.predicted_amplitude ?points nl ~r with
  | Some a -> a
  | None -> Alcotest.fail "cell must have a natural amplitude"

(* the oscprobe seeded at [f_scale] x f_c and [a_scale] x the DF
   amplitude, the seeds [Api.hb_run] passes when both are 1 *)
let free_solution ?(k_max = 5) ?(samples = 256) ?(f_scale = 1.0)
    ?(a_scale = 1.0) osc =
  let tank = (osc.Shil.Analysis.tank : Shil.Tank.t) in
  Driver.oscprobe ~k_max ~samples
    ~f_guess:(f_scale *. Shil.Tank.f_c tank)
    ~a_guess:(a_scale *. df_amplitude osc.Shil.Analysis.nl ~r:tank.r)
    (Circuits.Behavioural.circuit osc)

(* ------------------------------------------------------------------ *)
(* oscprobe at K = 1 is the describing-function fixed point *)

let builtins =
  [
    ("tanh", Circuits.Tanh_osc.oscillator Circuits.Tanh_osc.default);
    ("diffpair", Circuits.Diff_pair.oscillator Circuits.Diff_pair.default);
    ("tunnel", Circuits.Tunnel_osc.oscillator Circuits.Tunnel_osc.default);
  ]

let test_k1_matches_df () =
  List.iter
    (fun (name, osc) ->
      let tank = (osc.Shil.Analysis.tank : Shil.Tank.t) in
      let a_df = df_amplitude osc.Shil.Analysis.nl ~r:tank.r in
      let sol = free_solution ~k_max:1 ~samples:1024 osc in
      Alcotest.(check bool)
        (name ^ ": K=1 amplitude = DF amplitude")
        true
        (rel (Driver.amplitude sol) a_df < 1e-9);
      (* one retained harmonic leaves no distortion to shift the
         frequency: the oscprobe lands on the tank resonance *)
      Alcotest.(check bool)
        (name ^ ": K=1 frequency = f_c")
        true
        (rel sol.Driver.f0 (Shil.Tank.f_c tank) < 1e-9);
      Alcotest.(check bool)
        (name ^ ": DC is forced to zero by the inductor")
        true
        (Float.abs (Cx.re sol.Driver.spectra.(sol.Driver.osc_node).(0))
        < 1e-12))
    builtins

let prop_k1_matches_df =
  (* random custom tanh cells through the same resolver the CLI and
     daemon use; 256-sample oscprobe vs the 256-point DF quadrature *)
  let gen =
    QCheck.Gen.(
      tup4 (float_range 1.3e-3 4e-3) (float_range 0.5e-3 2e-3)
        (float_range 0.5e6 2e6) (float_range 4.0 25.0))
  in
  let arb =
    QCheck.make gen ~print:(fun (g0, isat, fc, q) ->
        Printf.sprintf "g0=%.6g isat=%.6g fc=%.6g q=%.6g" g0 isat fc q)
  in
  Qseed.qtest ~count:25 "oscprobe K=1 = DF fixed point (custom cells)" arb
    (fun (g0, isat, fc, q) ->
      let osc =
        Api.resolve_oscillator
          (Api.Request.Custom { g0; isat; r = 1e3; fc; q })
      in
      let tank = (osc.Shil.Analysis.tank : Shil.Tank.t) in
      let a_df =
        df_amplitude ~points:256 osc.Shil.Analysis.nl ~r:tank.r
      in
      let sol = free_solution ~k_max:1 ~samples:256 osc in
      rel (Driver.amplitude sol) a_df < 1e-9
      && rel sol.Driver.f0 (Shil.Tank.f_c tank) < 1e-9)

(* ------------------------------------------------------------------ *)
(* MNA engine vs the reduced Hb_reference solver *)

let test_matches_reduced () =
  let p = Circuits.Tanh_osc.default in
  let osc = Circuits.Tanh_osc.oscillator p in
  List.iter
    (fun k_max ->
      let sol = free_solution ~k_max ~samples:256 osc in
      let red =
        Hb_reference.solve ~k_max ~samples:256 osc.Shil.Analysis.nl
          ~tank:osc.Shil.Analysis.tank
      in
      let label what =
        Printf.sprintf "K=%d: %s matches reduced HB" k_max what
      in
      Alcotest.(check bool)
        (label "amplitude") true
        (rel (Driver.amplitude sol) (Hb_reference.amplitude red) < 1e-9);
      Alcotest.(check bool)
        (label "frequency (Groszkowski)")
        true
        (rel sol.Driver.f0 (Hb_reference.frequency red) < 1e-9);
      (* per-harmonic magnitudes, phase-reference independent *)
      let sp = sol.Driver.spectra.(sol.Driver.osc_node) in
      for k = 2 to k_max do
        Alcotest.(check bool)
          (Printf.sprintf "K=%d: |V_%d| matches reduced HB" k_max k)
          true
          (close ~tol:1e-9 (Cx.abs sp.(k))
             (Cx.abs red.Hb_reference.coeffs.(k)))
      done)
    [ 1; 3; 5; 7 ]

(* ------------------------------------------------------------------ *)
(* harmonic-balance golden values of the engine *)

let tanh_osc = Circuits.Tanh_osc.oscillator Circuits.Tanh_osc.default

let test_hb_matches_df () =
  let sol = free_solution ~k_max:7 ~samples:256 tanh_osc in
  (* the fundamental amplitude stays at the describing function's *)
  Alcotest.(check (float 1e-4)) "K=7 amplitude ~ DF" 1.1582
    (Driver.amplitude sol);
  Alcotest.(check bool) "converged residual" true (sol.Driver.residual < 1e-10)

let test_hb_groszkowski_shift () =
  (* golden: a long ODE run of this cell measures f0 = 999773.0 Hz,
     227 Hz below the DF's f_c = 1 MHz; HB must recover the shift *)
  let sol = free_solution ~k_max:7 ~samples:256 tanh_osc in
  Alcotest.(check (float 1.0)) "K=7 frequency = ODE truth" 999773.1
    sol.Driver.f0

let test_orbit_amplitude () =
  (* the peak of the synthesized K = 7 waveform, not just its
     fundamental, sits at the describing-function amplitude *)
  let sol = free_solution ~k_max:7 ~samples:1024 tanh_osc in
  let sp = sol.Driver.spectra.(sol.Driver.osc_node) in
  let peak = ref neg_infinity in
  for s = 0 to 1023 do
    let theta = 2.0 *. Float.pi *. float_of_int s /. 1024.0 in
    peak := Float.max !peak (Numerics.Fourier.reconstruct sp ~theta)
  done;
  Alcotest.(check (float 3e-3)) "orbit peak" 1.1582 !peak

let test_hb_k1_is_df () =
  (* with a single harmonic, HB is the describing-function analysis *)
  let sol = free_solution ~k_max:1 ~samples:256 tanh_osc in
  Alcotest.(check (float 1e-6)) "K=1 amplitude = DF" 1.1581719
    (Driver.amplitude sol);
  Alcotest.(check (float 1e-3)) "K=1 frequency = f_c" 1e6 sol.Driver.f0

let test_hb_odd_cell_harmonics () =
  (* an odd nonlinearity makes no even harmonics *)
  let sol = free_solution ~k_max:7 ~samples:256 tanh_osc in
  let sp = sol.Driver.spectra.(sol.Driver.osc_node) in
  Alcotest.(check bool) "V_2 ~ 0 for odd f" true
    (Cx.abs sp.(2) < 1e-9 *. Cx.abs sp.(1));
  Alcotest.(check bool) "V_3 present" true
    (Cx.abs sp.(3) > 1e-5 *. Cx.abs sp.(1))

let test_hb_asym_k_convergence () =
  (* golden: the asymmetric A2 cell's orbit truth is f0 = 1991777 Hz *)
  let asym = Experiments.Asym_ablation.cell () in
  let f_asym k_max = (free_solution ~k_max ~samples:256 asym).Driver.f0 in
  let f5 = f_asym 5 and f11 = f_asym 11 in
  Alcotest.(check (float 50.0)) "K=5 near truth" 1991777.0 f5;
  Alcotest.(check (float 5.0)) "K=11 at truth" 1991777.0 f11;
  Alcotest.(check bool) "monotone convergence" true
    (Float.abs (f11 -. 1991777.0) <= Float.abs (f5 -. 1991777.0) +. 1.0)

let test_hb_dead_cell () =
  (* g0 R = 0.8 < 1: the cell does not start, so there is no
     describing-function amplitude to seed the oscprobe *)
  let dead =
    { tanh_osc with
      Shil.Analysis.tank =
        (let t = tanh_osc.Shil.Analysis.tank in
         Shil.Tank.make ~r:400.0 ~l:t.l ~c:t.c) }
  in
  match
    Api.hb_run ~osc:dead ~n:3 ~vi:0.03 ~k_max:7 ~samples:256
      ~mode:Api.Request.Hb_osc
  with
  | _ -> Alcotest.fail "a cell that does not oscillate must be rejected"
  | exception Resilience.Oshil_error.Error e ->
    Alcotest.(check string)
      "typed no-oscillation" "no-oscillation"
      (Resilience.Oshil_error.code e);
    Alcotest.(check string)
      "raised by shil.hb" "shil.hb"
      (Resilience.Oshil_error.loc e)

(* ------------------------------------------------------------------ *)
(* conversion-matrix Jacobian vs finite differences *)

let test_jacobian_vs_fd () =
  let p = Circuits.Tanh_osc.default in
  let osc = Circuits.Tanh_osc.oscillator p in
  let f_inj = 3.0e6 in
  let circuit =
    Circuits.Behavioural.circuit
      ~injection:
        (Circuits.Behavioural.injection_wave ~tank:osc.Shil.Analysis.tank
           ~n:3 ~vi:0.05 ~f_inj)
      osc
  in
  let sys = System.compile ~k_max:3 ~samples:64 circuit in
  let asm = System.assemble sys ~omega0:(2.0 *. Float.pi *. f_inj /. 3.0) in
  let n = System.size sys in
  let x = Array.init n (fun i -> 0.3 *. sin (float_of_int (i + 1))) in
  let jac = Numerics.Linalg.create n n and res = Array.make n 0.0 in
  System.eval asm ~x ~jac ~res;
  let jac0 = Array.map Array.copy jac in
  let rp = Array.make n 0.0 and rm = Array.make n 0.0 in
  let h = 1e-6 in
  let worst = ref 0.0 in
  for j = 0 to n - 1 do
    let xj = x.(j) in
    x.(j) <- xj +. h;
    System.eval asm ~x ~jac ~res;
    Array.blit res 0 rp 0 n;
    x.(j) <- xj -. h;
    System.eval asm ~x ~jac ~res;
    Array.blit res 0 rm 0 n;
    x.(j) <- xj;
    for i = 0 to n - 1 do
      let fd = (rp.(i) -. rm.(i)) /. (2.0 *. h) in
      let scale =
        Float.max 1e-3 (Float.max (Float.abs fd) (Float.abs jac0.(i).(j)))
      in
      let e = Float.abs (fd -. jac0.(i).(j)) /. scale in
      if e > !worst then worst := e
    done
  done;
  Alcotest.(check bool)
    (Printf.sprintf "analytic Jacobian matches FD (worst %.3g)" !worst)
    true (!worst < 1e-6)

(* ------------------------------------------------------------------ *)
(* injected-tone branches *)

let test_injected_branches () =
  let p = Circuits.Tanh_osc.default in
  let osc = Circuits.Tanh_osc.oscillator p in
  let tank = (osc.Shil.Analysis.tank : Shil.Tank.t) in
  let free = free_solution osc in
  let n = 3 and vi = 0.03 in
  let solve_at f_inj =
    Driver.injected ~free ~n ~f_inj
      (Circuits.Behavioural.circuit
         ~injection:(Circuits.Behavioural.injection_wave ~tank ~n ~vi ~f_inj)
         osc)
  in
  let fc3 = 3.0 *. free.Driver.f0 in
  let center = solve_at fc3 in
  Alcotest.(check bool) "locks at the band center" true center.Driver.locked;
  Alcotest.(check bool) "locked amplitude is near the free-running one" true
    (rel center.Driver.amp (Driver.amplitude free) < 0.05);
  Alcotest.(check bool) "lock phase is finite" true
    (Float.is_finite center.Driver.lock_phase);
  (* 20% off the band center: far outside any lock range at this vi —
     the spectrum collapses onto the injection-driven subspace *)
  let far = solve_at (1.2 *. fc3) in
  Alcotest.(check bool) "no lock far outside the band" false far.Driver.locked;
  Alcotest.(check bool) "suppressed branch has a tiny fundamental" true
    (far.Driver.amp < 0.05 *. Driver.amplitude free)

(* ------------------------------------------------------------------ *)
(* resilience: the hb-newton fault site *)

let with_fault_plan plan f =
  (match Resilience.Fault.configure plan with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("bad fault plan: " ^ msg));
  Fun.protect ~finally:Resilience.Fault.clear f

let test_fault_recovery () =
  let p = Circuits.Tanh_osc.default in
  let osc = Circuits.Tanh_osc.oscillator p in
  let clean = free_solution osc in
  (* first attempt (plain newton) is shot; the damped rung recovers
     and the result is bit-identical to the clean run *)
  let recovered =
    with_fault_plan "hb-newton@0" (fun () -> free_solution osc)
  in
  Alcotest.(check bool) "recovered solve is bit-identical" true
    (clean.Driver.x = recovered.Driver.x);
  Alcotest.(check bool) "recovered frequency is bit-identical" true
    (clean.Driver.f0 = recovered.Driver.f0)

let test_fault_divergence () =
  let p = Circuits.Tanh_osc.default in
  let osc = Circuits.Tanh_osc.oscillator p in
  with_fault_plan "hb-newton" (fun () ->
      match free_solution osc with
      | _ -> Alcotest.fail "solve must not survive a bare hb-newton plan"
      | exception Resilience.Oshil_error.Error e ->
        Alcotest.(check string)
          "typed solver-divergence" "solver-divergence"
          (Resilience.Oshil_error.code e))

let test_lockrange_hole_degrades () =
  (* kill two probe windows mid-search: the probes become typed holes,
     classified unlocked — the band shrinks instead of aborting *)
  let p = Circuits.Tanh_osc.default in
  let osc = Circuits.Tanh_osc.oscillator p in
  let tank = (osc.Shil.Analysis.tank : Shil.Tank.t) in
  let free = free_solution osc in
  let n = 3 and vi = 0.03 in
  let inject ~f_inj =
    Circuits.Behavioural.circuit
      ~injection:(Circuits.Behavioural.injection_wave ~tank ~n ~vi ~f_inj)
      osc
  in
  let clean = Driver.lock_range ~free ~n ~guess_width:9e3 ~inject () in
  Alcotest.(check int) "clean search has no holes" 0 clean.Driver.holes;
  let rerun = Driver.lock_range ~free ~n ~guess_width:9e3 ~inject () in
  Alcotest.(check int) "clean rerun has no holes" 0 rerun.Driver.holes;
  Alcotest.(check bool) "clean rerun returns the same band" true
    (rerun = clean);
  let faulted =
    (* occurrences 4-7: both rungs of two probes after the center
       solve (each probe burns a plain and a damped attempt) *)
    with_fault_plan "hb-newton@4x4" (fun () ->
        Driver.lock_range ~free ~n ~guess_width:9e3 ~inject ())
  in
  Alcotest.(check bool) "faulted probes become holes" true
    (faulted.Driver.holes >= 1);
  Alcotest.(check bool) "band only shrinks under holes" true
    (faulted.Driver.f_hi -. faulted.Driver.f_lo
    <= clean.Driver.f_hi -. clean.Driver.f_lo +. 1.0)

(* ------------------------------------------------------------------ *)
(* the oscprobe's seeds *)

let tunnel_osc = Circuits.Tunnel_osc.oscillator Circuits.Tunnel_osc.default

(* X = 0 solves every autonomous system; a seed at a tenth of the
   oscillation's amplitude falls into it, and that must not pass for
   an oscillation *)
let test_trivial_orbit_typed () =
  List.iter
    (fun (name, osc) ->
      match free_solution ~k_max:7 ~samples:1024 ~a_scale:0.1 osc with
      | sol ->
        Alcotest.failf "%s: seed 0.1 x A_DF returned an orbit of amplitude %g"
          name (Driver.amplitude sol)
      | exception Resilience.Oshil_error.Error e ->
        Alcotest.(check string)
          (name ^ ": typed no-oscillation")
          "no-oscillation"
          (Resilience.Oshil_error.code e))
    [ ("tanh", tanh_osc); ("tunnel", tunnel_osc) ]

(* seeds around the ones [Api.hb_run] passes reach its orbit *)
let test_seed_table () =
  List.iter
    (fun (name, osc) ->
      let solve = free_solution ~k_max:7 ~samples:1024 osc in
      let f_ref = solve.Driver.f0 and a_ref = Driver.amplitude solve in
      List.iter
        (fun a_scale ->
          List.iter
            (fun f_scale ->
              let sol =
                free_solution ~k_max:7 ~samples:1024 ~f_scale ~a_scale osc
              in
              let df = rel sol.Driver.f0 f_ref
              and da = rel (Driver.amplitude sol) a_ref in
              Alcotest.(check bool)
                (Printf.sprintf
                   "%s seeded at %g x A_DF, %g x f_c: f0 %.2g, A %.2g < 1e-8"
                   name a_scale f_scale df da)
                true
                (df < 1e-8 && da < 1e-8))
            [ 0.98; 1.0; 1.02 ])
        [ 0.5; 0.8; 1.25; 2.0 ])
    builtins

(* from 0.3 x A_DF the diff-pair's plain Newton steps to a negative
   frequency: that fails the attempt, and the damped rung, backing off
   from such trials, reaches the orbit *)
let test_negative_frequency_rung () =
  let osc = List.assoc "diffpair" builtins in
  let reference = free_solution ~k_max:7 ~samples:1024 osc in
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled false) @@ fun () ->
  let damped = Obs.Metrics.counter_value "resilience.hb.rung.damped-newton" in
  let sol = free_solution ~k_max:7 ~samples:1024 ~a_scale:0.3 osc in
  Alcotest.(check int) "the damped rung solved it" 1
    (Obs.Metrics.counter_value "resilience.hb.rung.damped-newton" - damped);
  Alcotest.(check bool) "the default-seed orbit" true
    (rel sol.Driver.f0 reference.Driver.f0 < 1e-8
    && rel (Driver.amplitude sol) (Driver.amplitude reference) < 1e-8)

(* the oscprobe is one HB solve *)
let test_one_solve_per_oscprobe () =
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled false) @@ fun () ->
  List.iter
    (fun (name, osc) ->
      let solves = Obs.Metrics.counter_value "hb.solves" in
      ignore (free_solution ~k_max:7 ~samples:1024 osc);
      Alcotest.(check int)
        (name ^ ": hb.solves per oscprobe")
        1
        (Obs.Metrics.counter_value "hb.solves" - solves))
    builtins

(* ------------------------------------------------------------------ *)
(* bit pins of HB solution vectors (tanh cell, K = 5, 256 samples) *)

let digest_floats xs =
  let b = Buffer.create (8 * List.length xs) in
  List.iter (fun x -> Buffer.add_int64_le b (Int64.bits_of_float x)) xs;
  Digest.to_hex (Digest.string (Buffer.contents b))

let digest_solution (s : Driver.solution) =
  digest_floats (s.Driver.f0 :: Array.to_list s.Driver.x)

let test_solution_pins () =
  let osc = tanh_osc in
  let tank = (osc.Shil.Analysis.tank : Shil.Tank.t) in
  let n = 3 and vi = 0.03 in
  let inject ~f_inj =
    Circuits.Behavioural.circuit
      ~injection:(Circuits.Behavioural.injection_wave ~tank ~n ~vi ~f_inj)
      osc
  in
  let free = free_solution osc in
  (* the solution these bits pin is the nested oscprobe's to 1e-9: its
     f0 and amplitude were 999774.19372845592 Hz and 1.1581626716173314 V *)
  Alcotest.(check bool) "f0 within 1e-9 of the nested solve's" true
    (rel free.Driver.f0 999774.19372845592 < 1e-9);
  Alcotest.(check bool) "amplitude within 1e-9 of the nested solve's" true
    (rel (Driver.amplitude free) 1.1581626716173314 < 1e-9);
  let pin name expected got =
    Alcotest.(check string) (name ^ ": md5") expected got
  in
  pin "oscprobe" "736e86186f932583823666727a7fb622" (digest_solution free);
  let inj =
    Driver.injected ~free ~n ~f_inj:2998000.0 (inject ~f_inj:2998000.0)
  in
  pin "injected" "9fb770be5c8bba4b993ceca8e4e81a98"
    (digest_solution inj.Driver.sol);
  (* the lock-range search: its probe frequencies and band, and its
     first two probes re-solved the way the search solves them (the
     centre from the free solution, the next from the centre's) *)
  let guess_width = 9e3 in
  let probed = ref [] in
  let inject_logged ~f_inj =
    probed := f_inj :: !probed;
    inject ~f_inj
  in
  let band = Driver.lock_range ~free ~n ~guess_width ~inject:inject_logged () in
  pin "lock-range probes and band" "fbe1344f1933a9b59a5432a3692fd355"
    (digest_floats
       (List.rev !probed @ [ band.Driver.f_lo; band.Driver.f_hi ]));
  let fc = float_of_int n *. free.Driver.f0 in
  let f2 = fc +. Float.max (guess_width /. 2.0) (1e-7 *. fc) in
  Alcotest.(check (list (float 0.0))) "first two probe frequencies" [ fc; f2 ]
    (match List.rev !probed with a :: b :: _ -> [ a; b ] | l -> l);
  let p1 = Driver.injected ~free ~n ~f_inj:fc (inject ~f_inj:fc) in
  pin "probe 1" "52900b5a6c96da43e7bc5e577b36c0a4"
    (digest_solution p1.Driver.sol);
  let p2 =
    Driver.injected ~free:{ free with Driver.x = p1.Driver.sol.Driver.x } ~n
      ~f_inj:f2 (inject ~f_inj:f2)
  in
  pin "probe 2" "27850e2d4c87d40ac6e0324fb8d55644" (digest_solution p2.Driver.sol)

(* ------------------------------------------------------------------ *)
(* PPV: the left null vector of the autonomous Jacobian *)

let ppv_of ?(k_max = 7) osc =
  let sol = free_solution ~k_max ~samples:1024 osc in
  (sol, Driver.ppv (Circuits.Behavioural.circuit osc) sol)

(* |V_n| of the ODE model's voltage PPV, C |Y_n|: the unit the RK4
   shooting-plus-adjoint baseline printed *)
let ode_vn osc (sol, y) ~n =
  (osc.Shil.Analysis.tank : Shil.Tank.t).c
  *. Cx.abs y.(sol.Driver.osc_node).(n)

let test_ppv_null_vector () =
  let sol, y = ppv_of tanh_osc in
  let tank = (tanh_osc.Shil.Analysis.tank : Shil.Tank.t) in
  let sys =
    System.compile ~k_max:sol.Driver.k_max ~samples:sol.Driver.samples
      (Circuits.Behavioural.circuit tanh_osc)
  in
  let size = System.size sys and km = sol.Driver.k_max in
  let omega0 = 2.0 *. Float.pi *. sol.Driver.f0 in
  (* w back from the rows: node t, then the inductor branch *)
  let w = Array.make size 0.0 in
  Array.iteri
    (fun i row ->
      w.(System.idx sys i 0) <- Cx.re row.(0);
      for k = 1 to km do
        w.(System.idx sys i ((2 * k) - 1)) <- 2.0 *. Cx.re row.(k);
        w.(System.idx sys i (2 * k)) <- 2.0 *. Cx.im row.(k)
      done)
    y;
  let jac = Numerics.Linalg.create size size and res = Array.make size 0.0 in
  System.eval (System.assemble sys ~omega0) ~x:sol.Driver.x ~jac ~res;
  let wj =
    Array.init size (fun j ->
        let s = ref 0.0 in
        for i = 0 to size - 1 do
          s := !s +. (w.(i) *. jac.(i).(j))
        done;
        !s)
  in
  let wj_rel = Numerics.Linalg.norm_inf wj /. Numerics.Linalg.norm_inf w in
  Alcotest.(check bool)
    (Printf.sprintf "||w^T J|| / ||w|| = %.3g < 1e-12" wj_rel)
    true (wj_rel < 1e-12);
  (* y . M x' = 1 with the charge derivatives C dv/dt on node t and
     -L di/dt on the inductor branch row: exactly on average (the
     bordering row), and along the orbit up to the K = 7 truncation *)
  let dq i scale =
    Array.init (km + 1) (fun k ->
        let xk =
          if k = 0 then Cx.zero
          else
            Cx.make
              sol.Driver.x.(System.idx sys i ((2 * k) - 1))
              sol.Driver.x.(System.idx sys i (2 * k))
        in
        Cx.mul (Cx.make 0.0 (scale *. float_of_int k *. omega0)) xk)
  in
  let q = [| dq 0 tank.c; dq 1 (-.tank.l) |] in
  let mean = ref 0.0 in
  for i = 0 to 1 do
    for k = 1 to km do
      mean := !mean +. (2.0 *. Cx.re (Cx.mul (Cx.conj y.(i).(k)) q.(i).(k)))
    done
  done;
  Alcotest.(check (float 1e-9)) "<y, M x'> = 1" 1.0 !mean;
  let worst = ref 0.0 in
  for s = 0 to 63 do
    let theta = 2.0 *. Float.pi *. float_of_int s /. 64.0 in
    let at cs = Numerics.Fourier.reconstruct cs ~theta in
    let dot = (at y.(0) *. at q.(0)) +. (at y.(1) *. at q.(1)) in
    worst := Float.max !worst (Float.abs (dot -. 1.0))
  done;
  Alcotest.(check bool)
    (Printf.sprintf "y . M x' = 1 along the orbit (worst %.3g)" !worst)
    true (!worst < 1e-3)

let test_ppv_fundamental_dominates () =
  let sol, y = ppv_of tanh_osc in
  let row = y.(sol.Driver.osc_node) in
  Alcotest.(check bool) "|Y_1| > |Y_3| for a mildly nonlinear oscillator"
    true
    (Cx.abs row.(1) > Cx.abs row.(3))

(* the RK4 shooting-plus-adjoint path this replaces printed
   |V_3| = 1.49976993e-9 for the tanh cell; the HB PPV at K = 7 lands
   1.7e-5 below it *)
let test_ppv_tanh_pinned () =
  let v3 = ode_vn tanh_osc (ppv_of tanh_osc) ~n:3 in
  Alcotest.(check bool)
    (Printf.sprintf "|V_3| = %.9g within 1e-4 of 1.49976993e-9" v3)
    true
    (rel v3 1.49976993e-9 < 1e-4)

(* the tunnel cell, on which the RK4 shooting did not converge *)
let test_ppv_tunnel () =
  let osc = Circuits.Tunnel_osc.oscillator Circuits.Tunnel_osc.default in
  let v7 = ode_vn osc (ppv_of ~k_max:7 osc) ~n:3 in
  let v15 = ode_vn osc (ppv_of ~k_max:15 osc) ~n:3 in
  Alcotest.(check bool)
    (Printf.sprintf "|V_3| = %.9g near 3.6201e-12" v7)
    true
    (rel v7 3.6201e-12 < 1e-4);
  Alcotest.(check bool)
    (Printf.sprintf "K = 7 vs K = 15: %.3g < 1e-6" (rel v7 v15))
    true
    (rel v7 v15 < 1e-6)

let test_ppv_singular_typed () =
  (* the zero spectrum has no phase direction: the bordered system is
     singular, and that surfaces as a typed error *)
  let sol = free_solution tanh_osc in
  let dead = { sol with Driver.x = Array.map (fun _ -> 0.0) sol.Driver.x } in
  match Driver.ppv (Circuits.Behavioural.circuit tanh_osc) dead with
  | _ -> Alcotest.fail "a zero spectrum must not yield a PPV"
  | exception Resilience.Oshil_error.Error e ->
    Alcotest.(check string)
      "typed singular-system" "singular-system"
      (Resilience.Oshil_error.code e);
    Alcotest.(check string)
      "raised by shil.hb" "shil.hb"
      (Resilience.Oshil_error.loc e)

(* ------------------------------------------------------------------ *)
(* caching: hb/v2 replays bit-identically *)

let test_cache_roundtrip () =
  let dir = Filename.temp_file "oshil_hb_cache" "" in
  Sys.remove dir;
  Cache.Store.set_dir dir;
  Cache.Store.set_enabled true;
  Fun.protect ~finally:(fun () -> Cache.Store.set_enabled false)
  @@ fun () ->
  let p = Circuits.Tanh_osc.default in
  let osc = Circuits.Tanh_osc.oscillator p in
  let tank = (osc.Shil.Analysis.tank : Shil.Tank.t) in
  let ident =
    match Api.hb_ident osc with
    | Some id -> id
    | None -> Alcotest.fail "builtin tanh cell must have a cache identity"
  in
  let solve () =
    Driver.oscprobe ~ident ~k_max:5 ~samples:256
      ~f_guess:(Shil.Tank.f_c tank)
      ~a_guess:(df_amplitude osc.Shil.Analysis.nl ~r:tank.r)
      (Circuits.Behavioural.circuit osc)
  in
  let cold = solve () in
  let warm = solve () in
  Alcotest.(check bool) "warm oscprobe replays bit-identically" true
    (cold = warm)

(* ------------------------------------------------------------------ *)
(* system guards *)

let test_compile_guards () =
  let p = Circuits.Tanh_osc.default in
  let circuit = Circuits.Behavioural.circuit (Circuits.Tanh_osc.oscillator p) in
  (match System.compile ~k_max:0 circuit with
  | _ -> Alcotest.fail "k_max = 0 must be rejected"
  | exception Invalid_argument _ -> ());
  (match System.compile ~k_max:7 ~samples:16 circuit with
  | _ -> Alcotest.fail "samples < 4 k_max must be rejected"
  | exception Invalid_argument _ -> ());
  (* a BJT netlist has no harmonic-domain stamp: typed parse-failure *)
  match
    System.compile (Circuits.Diff_pair.circuit Circuits.Diff_pair.default)
  with
  | _ -> Alcotest.fail "device-level BJT netlist must be rejected"
  | exception Resilience.Oshil_error.Error e ->
    Alcotest.(check string)
      "typed parse-failure" "parse-failure"
      (Resilience.Oshil_error.code e)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "hb"
    [
      ( "fixed point",
        [
          Alcotest.test_case "K=1 oscprobe = DF (builtins)" `Quick
            test_k1_matches_df;
          prop_k1_matches_df;
        ] );
      ( "reduced cross-check",
        [
          Alcotest.test_case "MNA engine = reduced HB (K=1,3,5,7)" `Quick
            test_matches_reduced;
        ] );
      ( "harmonic_balance",
        [
          Alcotest.test_case "matches DF" `Quick test_hb_matches_df;
          Alcotest.test_case "groszkowski shift" `Quick
            test_hb_groszkowski_shift;
          Alcotest.test_case "K=1 is the DF" `Quick test_hb_k1_is_df;
          Alcotest.test_case "odd cell harmonics" `Quick
            test_hb_odd_cell_harmonics;
          Alcotest.test_case "K convergence (asym)" `Slow
            test_hb_asym_k_convergence;
          Alcotest.test_case "dead cell" `Quick test_hb_dead_cell;
        ] );
      ("orbit", [ Alcotest.test_case "amplitude" `Quick test_orbit_amplitude ]);
      ( "engine",
        [
          Alcotest.test_case "Jacobian vs finite differences" `Quick
            test_jacobian_vs_fd;
          Alcotest.test_case "injected-tone branches" `Quick
            test_injected_branches;
          Alcotest.test_case "compile guards" `Quick test_compile_guards;
        ] );
      ( "sensitivity",
        [
          Alcotest.test_case "normalization" `Quick test_ppv_null_vector;
          Alcotest.test_case "fundamental dominates" `Quick
            test_ppv_fundamental_dominates;
          Alcotest.test_case "tanh |V_3| pinned" `Quick test_ppv_tanh_pinned;
          Alcotest.test_case "tunnel cell solves" `Quick test_ppv_tunnel;
          Alcotest.test_case "singular system is typed" `Quick
            test_ppv_singular_typed;
        ] );
      ( "resilience",
        [
          Alcotest.test_case "hb-newton: damped rung recovers" `Quick
            test_fault_recovery;
          Alcotest.test_case "hb-newton: typed solver-divergence" `Quick
            test_fault_divergence;
          Alcotest.test_case "lock-range holes degrade, not abort" `Quick
            test_lockrange_hole_degrades;
        ] );
      ( "seeds",
        [
          Alcotest.test_case "trivial orbit is typed" `Quick
            test_trivial_orbit_typed;
          Alcotest.test_case "seed table reaches the orbit" `Quick
            test_seed_table;
          Alcotest.test_case "negative frequency moves the ladder" `Quick
            test_negative_frequency_rung;
        ] );
      ( "pins",
        [
          Alcotest.test_case "solution vectors" `Quick test_solution_pins;
          Alcotest.test_case "one hb.solves per oscprobe" `Quick
            test_one_solve_per_oscprobe;
        ] );
      ( "cache",
        [
          Alcotest.test_case "hb/v2 replays bit-identically" `Quick
            test_cache_roundtrip;
        ] );
    ]
