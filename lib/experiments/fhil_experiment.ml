let run ?(vis = [ 0.01; 0.05; 0.1; 0.2 ]) () =
  let p = Circuits.Tanh_osc.default in
  let osc = Circuits.Tanh_osc.oscillator p in
  let rows =
    List.map
      (fun vi ->
        let report = Shil.Analysis.run osc ~n:1 ~vi in
        let lr = report.lock_range in
        (* [run] raises when the cell has no natural amplitude *)
        let a_nat = Option.get report.natural_amplitude in
        let f_lo, f_hi = Shil.Fhil.adler_range ~tank:osc.tank ~a:a_nat ~vi in
        let adler = f_hi -. f_lo in
        ( Printf.sprintf "Vi = %.3g" vi,
          Printf.sprintf "rigorous %.6g Hz | Adler %.6g Hz (%+.2f%%)"
            lr.delta_f_inj adler
            (100.0 *. (adler -. lr.delta_f_inj) /. lr.delta_f_inj) ))
      vis
  in
  Output.make ~id:"A3"
    ~title:"ablation: FHIL (n = 1) rigorous vs Adler's formula"
    ~rows:
      (rows
      @ [
          ( "reading",
            "the generic SHIL machinery at n = 1 reduces to the classical \
             FHIL picture; Adler's first-order formula agrees for weak \
             injection and drifts for strong injection" );
        ])
    ()
