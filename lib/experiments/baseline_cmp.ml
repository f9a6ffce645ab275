type point = {
  vi : float;
  rigorous : float;
  ppv : float;
  simulated : float option;
}

let sweep ~simulate nl ~tank ~n =
  List.map
    (fun vi ->
      let report = Shil.Analysis.run { nl; tank } ~n ~vi in
      let rigorous = report.lock_range.delta_f_inj in
      let baseline = Ppv.Lock_baseline.predict nl ~tank ~n ~vi in
      let simulated =
        if not simulate then None
        else begin
          let lr = report.lock_range in
          let low =
            Shil.Simulate.lock_edge nl ~tank ~vi ~n
              ~f_lo:(lr.f_inj_low -. (0.5 *. lr.delta_f_inj))
              ~f_hi:(lr.f_inj_low +. (0.5 *. lr.delta_f_inj))
              ~side:`Low
          in
          let high =
            Shil.Simulate.lock_edge nl ~tank ~vi ~n
              ~f_lo:(lr.f_inj_high -. (0.5 *. lr.delta_f_inj))
              ~f_hi:(lr.f_inj_high +. (0.5 *. lr.delta_f_inj))
              ~side:`High
          in
          Some (high -. low)
        end
      in
      { vi; rigorous; ppv = baseline.delta_f_inj; simulated })
    [ 0.01; 0.02; 0.05; 0.1; 0.2 ]

let output points =
  let rows =
    List.concat_map
      (fun p ->
        let base =
          Printf.sprintf "rigorous %.6g Hz | PPV %.6g Hz (%+.2f%%)" p.rigorous
            p.ppv
            (100.0 *. (p.ppv -. p.rigorous) /. p.rigorous)
        in
        let line =
          match p.simulated with
          | Some s -> Printf.sprintf "%s | simulated %.6g Hz" base s
          | None -> base
        in
        [ (Printf.sprintf "Vi = %.3g" p.vi, line) ])
      points
  in
  Output.make ~id:"A1"
    ~title:"ablation: rigorous graphical method vs PPV baseline"
    ~rows:
      (rows
      @ [
          ( "reading",
            "PPV (first-order) matches for weak injection and drifts for \
             strong injection; the graphical method tracks simulation \
             throughout (paper SI claim)" );
        ])
    ()

let run ~simulate =
  let osc = Circuits.Tanh_osc.oscillator Circuits.Tanh_osc.default in
  output (sweep ~simulate osc.nl ~tank:osc.tank ~n:3)
