let run ~simulate =
  let p = Circuits.Tanh_osc.default in
  let osc = Circuits.Tanh_osc.oscillator p in
  let vi = 0.05 and n = 3 in
  let report = Shil.Analysis.run osc ~n ~vi in
  let cell = Api.Cells.behavioural osc in
  let lr = report.lock_range in
  let rows =
    List.map
      (fun frac ->
        let f_inj = lr.f_inj_high +. (frac *. lr.delta_f_inj) in
        let pred = Shil.Pulling.beat_frequency ~lock_range:lr ~n ~f_inj in
        let line =
          if simulate then begin
            let fc = Shil.Tank.f_c cell.tank in
            let signal =
              Circuits.Validate.transient_signal
                ~circuit:(cell.circuit (Some { n; vi; f_inj }))
                ~probe:cell.probe
                ~dt:(1.0 /. (fc *. float_of_int (snd cell.lock_trial)))
                ~t_stop:(1200.0 /. fc)
            in
            let meas = Shil.Pulling.measure_beat signal ~n ~f_inj in
            Printf.sprintf "beat predicted %.5g Hz / measured %.5g Hz" pred meas
          end
          else Printf.sprintf "beat predicted %.5g Hz" pred
        in
        (Printf.sprintf "f_inj = edge + %.2g ranges" frac, line))
      [ 0.25; 0.5; 1.0; 2.0 ]
  in
  Output.make ~id:"X2"
    ~title:"extension: injection pulling (beat note) beyond the lock range"
    ~rows:
      (rows
      @ [
          ( "reading",
            "the sqrt(delta^2 - wL^2) Adler beat law, fed with the rigorous \
             lock range, tracks the simulated phase-slip rate; accuracy \
             improves away from the band edge where the sinusoidal phase \
             model is exact" );
        ])
    ()
