(* The point of the paper's method: it handles ANY memoryless
   nonlinearity. Here we analyse an asymmetric, piecewise device that no
   closed-form treatment covers - a soft negative resistance with a
   one-sided clipping diode - and validate against a transient of the
   behavioural netlist.

   Run with:  dune exec examples/custom_nonlinearity.exe *)

let () =
  (* a van der Pol-ish cell plus a clipping diode on positive swings *)
  let f v =
    let core = (-.2e-3 *. v) +. (0.6e-3 *. v *. v *. v) in
    let clip = if v > 0.8 then 5e-3 *. (v -. 0.8) ** 2.0 else 0.0 in
    core +. clip
  in
  let nl = Shil.Nonlinearity.make ~name:"asymmetric_custom" f in
  let tank =
    let wc = 2.0 *. Float.pi *. 2e6 in
    Shil.Tank.make ~r:1.2e3 ~l:(150.0 /. wc) ~c:(1.0 /. (150.0 *. wc))
  in
  let osc : Shil.Analysis.oscillator = { nl; tank } in
  (* terminal plot of the nonlinearity *)
  let vs, is = Shil.Nonlinearity.sample nl ~v_min:(-1.5) ~v_max:1.5 ~n:200 in
  Plotkit.Ascii_render.print ~rows:14
    (Plotkit.Fig.add_line
       (Plotkit.Fig.create ~title:"custom i = f(v) (note the asymmetric clip)"
          ~xlabel:"v (V)" ())
       ~xs:vs ~ys:is);
  (* full SHIL analysis at n = 2 (divide-by-2, the classic ILFD use) *)
  let report = Shil.Analysis.run osc ~n:2 ~vi:0.06 in
  Format.printf "@.%a@.@." Shil.Analysis.pp report;
  (* compare divide-by-2 against divide-by-3 on the same cell *)
  let report3 = Shil.Analysis.run osc ~n:3 ~vi:0.06 in
  Format.printf "n = 2 lock range: %.6g Hz@." report.lock_range.delta_f_inj;
  Format.printf "n = 3 lock range: %.6g Hz@." report3.lock_range.delta_f_inj;
  (* time-domain spot check. Caveat (an honest limit of the paper's
     filtering assumption): an ASYMMETRIC f generates its own second
     harmonic, which returns through H(j 2w) as extra self-injection and
     shifts the real n = 2 band slightly; probe inside the lower half of
     the predicted band where both effects agree. See EXPERIMENTS.md. *)
  let lr = report.lock_range in
  let f_inj = lr.f_inj_low +. (0.25 *. lr.delta_f_inj) in
  let locked =
    Circuits.Validate.locked
      ~steps_per_cycle:Circuits.Behavioural.steps_per_cycle
      ~circuit:(Circuits.Behavioural.injected ~n:2 ~vi:0.06 osc ~f_inj)
      ~probe:Circuits.Behavioural.probe ~n:2 ~f_inj ()
  in
  Format.printf "time-domain check (n = 2, 25%% into the band): %s@."
    (if locked then "locked" else "NOT locked")
