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
  let cell = Api.Cells.of_spec (Builtin b.cell) in
  let osc = cell.oscillator () in
  let report, predict_s =
    time (fun () -> Shil.Analysis.run osc ~n:b.n ~vi:b.vi)
  in
  let _, simulate_s =
    time (fun () ->
        Api.Cells.validate cell ~n:b.n ~vi:b.vi ~predicted:report.lock_range)
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
