(* The paper's §IV-B flow on the tunnel-diode UHF oscillator: bias the
   diode into its negative-resistance region, extract the shifted f(v),
   predict natural oscillation and the 3rd-SHIL lock range, and show the
   n = 3 lock states.

   Run with:  dune exec examples/tunnel_diode_shil.exe *)

let () =
  let params = Circuits.Tunnel_osc.default in
  Format.printf "tunnel diode: bias %.3g V (middle of the negative-resistance region)@."
    params.vbias;
  let nl = Circuits.Tunnel_osc.nonlinearity params in
  let tank = Circuits.Tunnel_osc.tank params in
  Format.printf "  f'(0) = %.4g S after the bias shift@."
    (Shil.Nonlinearity.deriv nl 0.0);
  let osc : Shil.Analysis.oscillator = { nl; tank } in
  let report = Shil.Analysis.run osc ~n:3 ~vi:0.03 in
  Format.printf "@.%a@.@." Shil.Analysis.pp report;
  (* n states: each stable lock corresponds to 3 oscillator phases *)
  (match
     List.find_opt
       (fun (p : Shil.Solutions.point) -> p.stable)
       report.locks_at_center
   with
  | Some p ->
    Format.printf "the stable lock (phi = %.4f, A = %.4g V) has %d states:@."
      p.phi p.a 3;
    List.iter
      (fun (psi, a) ->
        Format.printf "  oscillator phase %.4f rad (A = %.4g V)@." psi a)
      (Shil.Solutions.n_states p ~n:3)
  | None -> Format.printf "no stable lock at the centre frequency@.");
  (* transient validation of the band edges on the behavioural netlist
     of the extracted f(v) (fast next to the device-level netlist) *)
  let lr = report.lock_range in
  Format.printf "@.validating the predicted band [%.8g, %.8g] Hz in the time domain...@."
    lr.f_inj_low lr.f_inj_high;
  let probe name f_inj =
    let locked =
      Circuits.Validate.locked
        ~steps_per_cycle:Circuits.Behavioural.steps_per_cycle
        ~circuit:(Circuits.Behavioural.injected ~n:3 ~vi:0.03 osc ~f_inj)
        ~probe:Circuits.Behavioural.probe ~n:3 ~f_inj ()
    in
    Format.printf "  %-14s f_inj = %.8g Hz: %s@." name f_inj
      (if locked then "locked" else "unlocked")
  in
  probe "centre" (0.5 *. (lr.f_inj_low +. lr.f_inj_high));
  probe "inside low" (lr.f_inj_low +. (0.15 *. lr.delta_f_inj));
  probe "inside high" (lr.f_inj_high -. (0.15 *. lr.delta_f_inj));
  probe "outside low" (lr.f_inj_low -. (0.5 *. lr.delta_f_inj));
  probe "outside high" (lr.f_inj_high +. (0.5 *. lr.delta_f_inj))
