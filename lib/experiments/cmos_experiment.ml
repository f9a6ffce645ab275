let run ~validate =
  let p = Circuits.Cmos_pair.default in
  let osc = Circuits.Cmos_pair.oscillator p in
  let vi = 0.05 and n = 3 in
  let report = Shil.Analysis.run osc ~n ~vi in
  let lr = report.lock_range in
  let rows =
    [
      Output.row_f "tank f_c (Hz)" (Shil.Tank.f_c osc.tank);
      Output.row_f "tank Q" (Shil.Tank.q osc.tank);
      ( "predicted natural A (V)",
        match report.natural_amplitude with
        | Some a -> Printf.sprintf "%.6g" a
        | None -> "none" );
      Output.row_f "prediction lower lock limit (Hz)" lr.f_inj_low;
      Output.row_f "prediction upper lock limit (Hz)" lr.f_inj_high;
      Output.row_f "prediction lock range (Hz)" lr.delta_f_inj;
      Output.row_f "prediction phi_d_max (rad)" lr.phi_d_max;
    ]
  in
  let rows =
    if not validate then rows
    else begin
      let cmp =
        Circuits.Validate.natural ~cycles:300.0
          ~circuit:(Circuits.Cmos_pair.circuit p)
          ~probe:Circuits.Cmos_pair.osc_probe ~osc ()
      in
      let centre = 0.5 *. (lr.f_inj_low +. lr.f_inj_high) in
      let locked f_inj =
        Circuits.Validate.locked ~cycles:1500.0
          ~circuit:
            (Circuits.Cmos_pair.circuit
               ~injection:{ vi; n; f_inj; phase = 0.0 }
               p)
          ~probe:Circuits.Cmos_pair.osc_probe ~n ~f_inj ()
      in
      let locked_in = locked centre in
      let locked_out = locked (lr.f_inj_high +. lr.delta_f_inj) in
      rows
      @ [
          Output.row_f "simulated natural A (V)" cmp.simulated_a;
          Output.row_f "simulated natural f (Hz)" cmp.simulated_f;
          ( "lock check (band centre)",
            if locked_in then "locked, as predicted" else "NOT locked" );
          ( "lock check (outside band)",
            if locked_out then "locked (unexpected)" else "unlocked, as predicted" );
        ]
    end
  in
  Output.make ~id:"X1"
    ~title:"extension: 2.4 GHz CMOS cross-coupled VCO under 3rd-SHIL"
    ~rows ()
