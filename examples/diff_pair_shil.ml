(* The paper's §IV-A flow on the cross-coupled BJT differential pair:

   1. extract i = f(v) from the device-level netlist with a DC sweep
      (Fig. 11b / 12a), through the cell's Api.Cells row,
   2. predict the natural oscillation amplitude (Fig. 12b),
   3. predict the 3rd-sub-harmonic lock range at |Vi| = 30 mV (Fig. 14),
   4. confirm a lock with one device-level transient.

   Run with:  dune exec examples/diff_pair_shil.exe *)

let () =
  let cell = Api.Cells.of_spec (Builtin "diffpair") in
  Format.printf "extracting f(v) from the diff-pair netlist (DC sweep)...@.";
  let vs, is = cell.fv () in
  let osc = cell.oscillator () in
  Format.printf "  %d points, f'(0) = %.4g S (negative resistance)@."
    (Array.length vs)
    (Shil.Nonlinearity.deriv osc.nl 0.0);
  (* quick look at the curve in the terminal *)
  let fig =
    Plotkit.Fig.add_line
      (Plotkit.Fig.create ~title:"diff-pair i = f(v)" ~xlabel:"v (V)" ())
      ~xs:vs ~ys:is
  in
  Plotkit.Ascii_render.print ~rows:16 fig;
  (* describing-function analysis *)
  let report = Shil.Analysis.run osc ~n:3 ~vi:0.03 in
  Format.printf "@.%a@.@." Shil.Analysis.pp report;
  (* device-level confirmation: transient with injection at band centre *)
  let f_inj = 0.5 *. (report.lock_range.f_inj_low +. report.lock_range.f_inj_high) in
  Format.printf "running a device-level transient at f_inj = %.6g Hz...@." f_inj;
  let circuit = cell.circuit (Some { n = 3; vi = 0.03; f_inj }) in
  let fc = Shil.Tank.f_c cell.tank in
  let opts =
    Spice.Transient.default_options
      ~dt:(1.0 /. (fc *. 180.0))
      ~t_stop:(500.0 /. fc)
  in
  let res = Spice.Transient.run circuit ~probes:[ cell.probe ] opts in
  let s =
    Waveform.Signal.make ~times:res.times
      ~values:(Spice.Transient.signal res cell.probe)
  in
  let s = Waveform.Signal.shift_values s (-.Waveform.Signal.mean s) in
  let v = Waveform.Lock.analyze s ~f_target:(f_inj /. 3.0) in
  Format.printf
    "  locked: %b; oscillator frequency %.8g Hz (= f_inj / 3 = %.8g); A = %.4g V@."
    v.locked v.freq_measured (f_inj /. 3.0) v.amplitude
