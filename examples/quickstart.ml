(* Quickstart: analyse sub-harmonic injection locking of a negative-tanh
   LC oscillator in ~20 lines.

   Run with:  dune exec examples/quickstart.exe *)

let () =
  (* 1. describe the oscillator: a memoryless negative-resistance
     nonlinearity i = f(v) and a parallel RLC tank *)
  let nl = Shil.Nonlinearity.neg_tanh ~g0:2e-3 ~isat:1e-3 in
  let tank =
    (* 1 MHz centre, Q = 10 *)
    let wc = 2.0 *. Float.pi *. 1e6 in
    Shil.Tank.make ~r:1000.0 ~l:(100.0 /. wc) ~c:(1.0 /. (100.0 *. wc))
  in
  (* 2. one call: natural oscillation, lock points, lock range for
     3rd-sub-harmonic injection with |Vi| = 0.05 V *)
  let osc : Shil.Analysis.oscillator = { nl; tank } in
  let report = Shil.Analysis.run osc ~n:3 ~vi:0.05 in
  Format.printf "%a@." Shil.Analysis.pp report;
  (* 3. sanity-check the prediction with a transient of the same
     oscillator as a netlist: inject at the centre of the predicted band
     and watch it lock ... *)
  let locked f_inj =
    Circuits.Validate.locked
      ~steps_per_cycle:Circuits.Behavioural.steps_per_cycle
      ~circuit:(Circuits.Behavioural.injected ~n:3 ~vi:0.05 osc ~f_inj)
      ~probe:Circuits.Behavioural.probe ~n:3 ~f_inj ()
  in
  let f_inj = 0.5 *. (report.lock_range.f_inj_low +. report.lock_range.f_inj_high) in
  Format.printf "time-domain check at %.6g Hz: %s@." f_inj
    (if locked f_inj then "locked (as predicted)" else "NOT locked");
  (* ... and just outside the band, where it must not lock *)
  let f_out = report.lock_range.f_inj_high +. report.lock_range.delta_f_inj in
  Format.printf "time-domain check at %.6g Hz: %s@." f_out
    (if locked f_out then "locked (unexpected!)" else "unlocked (as predicted)")
