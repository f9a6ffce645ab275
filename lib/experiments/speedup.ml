type result = {
  bench_name : string;
  predict_s : float;
  simulate_s : float;
  speedup : float;
}

let time f =
  let t0 = Obs.Clock.wall_s () in
  let v = f () in
  (v, Obs.Clock.wall_s () -. t0)

let run (b : Osc_experiments.bench) =
  let r = (b.oscillator.tank : Shil.Tank.t).r in
  let a_nat =
    match Shil.Natural.predicted_amplitude b.oscillator.nl ~r with
    | Some a -> a
    | None ->
      Resilience.Oshil_error.raise_ Experiments ~phase:"speedup"
        No_oscillation "bench does not oscillate"
        ~remedy:"check the bench nonlinearity gain against 1/R"
  in
  let lr, predict_s =
    time (fun () ->
        let grid =
          Shil.Grid.sample b.oscillator.nl ~n:b.n ~r ~vi:b.vi
            ~a_range:(0.25 *. a_nat, 1.3 *. a_nat)
            ()
        in
        Shil.Lock_range.predict grid ~tank:b.oscillator.tank)
  in
  let _, simulate_s =
    time (fun () ->
        Circuits.Validate.lock_range ~cycles:b.lock_cycles
          ~make_circuit:(fun ~f_inj -> b.circuit_injected ~f_inj)
          ~probe:b.probe ~n:b.n ~predicted:lr ())
  in
  {
    bench_name = b.name;
    predict_s;
    simulate_s;
    speedup = simulate_s /. predict_s;
  }

let output r ~paper_speedup =
  Output.make ~id:"S1"
    ~title:(Printf.sprintf "prediction vs simulation runtime, %s" r.bench_name)
    ~rows:
      [
        Output.row_f "prediction (s)" r.predict_s;
        Output.row_f "simulation (s)" r.simulate_s;
        Output.row_f "speedup (x)" r.speedup;
        Output.row_f "paper speedup (x)" paper_speedup;
      ]
    ()
