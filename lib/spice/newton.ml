module Core = Numerics.Newton

let max_iter = 250
let step_limit = 2.0
let vtol_abs = 1e-9
let vtol_rel = 1e-6
let res_tol = 1e-9

let iters_buckets = [| 1.; 2.; 5.; 10.; 25.; 50.; 100.; 250. |]
let residual_buckets = [| 1e-12; 1e-9; 1e-6; 1e-3; 1.; 1e3 |]

let () =
  Obs.Metrics.register_histogram ~name:"spice.newton.iters_per_solve"
    ~buckets:iters_buckets;
  Obs.Metrics.register_histogram ~name:"spice.newton.residual"
    ~buckets:residual_buckets

type workspace = {
  core : Core.workspace;
  clamp : Core.update;
  damped_clamp : Core.update;
  (* the run's spice.newton.* telemetry, held back until [flush] *)
  mutable solves : int;
  mutable iters : int;
  mutable diverged : int;
  iters_hist : int array;
  residual_hist : int array;
}

let workspace ~clamp_upto size =
  {
    core = Core.workspace size;
    clamp = Clamp { limit = step_limit; upto = clamp_upto };
    damped_clamp = Clamp { limit = step_limit /. 8.0; upto = clamp_upto };
    solves = 0;
    iters = 0;
    diverged = 0;
    iters_hist = Array.make (Array.length iters_buckets + 1) 0;
    residual_hist = Array.make (Array.length residual_buckets + 1) 0;
  }

let flush ws =
  if ws.solves > 0 then begin
    Obs.Metrics.incr ~by:ws.solves "spice.newton.solves";
    Obs.Metrics.incr ~by:ws.iters "spice.newton.iters";
    if ws.diverged > 0 then
      Obs.Metrics.incr ~by:ws.diverged "spice.newton.diverged";
    Obs.Metrics.observe_counts "spice.newton.iters_per_solve" ws.iters_hist;
    Obs.Metrics.observe_counts "spice.newton.residual" ws.residual_hist;
    ws.solves <- 0;
    ws.iters <- 0;
    ws.diverged <- 0;
    Array.fill ws.iters_hist 0 (Array.length ws.iters_hist) 0;
    Array.fill ws.residual_hist 0 (Array.length ws.residual_hist) 0
  end

let note_solve ws (o : Core.outcome) =
  ws.solves <- ws.solves + 1;
  ws.iters <- ws.iters + o.iters;
  if not o.converged then ws.diverged <- ws.diverged + 1;
  let k = Obs.Metrics.bucket iters_buckets (float_of_int o.iters) in
  ws.iters_hist.(k) <- ws.iters_hist.(k) + 1;
  if Float.is_finite o.residual then begin
    let k = Obs.Metrics.bucket residual_buckets o.residual in
    ws.residual_hist.(k) <- ws.residual_hist.(k) + 1
  end

let stop cap =
  Core.Small_step
    { abs = vtol_abs; rel = vtol_rel; residual = res_tol *. 10.0; cap }

let plain_stop = stop max_iter
let damped_stop = stop (max_iter * 4)

let solve ?ectx ?(damped = false) ~ws ~assemble x =
  (* fault sites count one occurrence per solve, so plans address the
     k-th Newton solve of a run deterministically *)
  let inject_singular = Resilience.Fault.fire "newton-singular" in
  let inject_nan = Resilience.Fault.fire "device-nan" in
  let eval =
    if not (inject_nan || inject_singular) then assemble
    else fun ~x ~jac ~res ->
      assemble ~x ~jac ~res;
      if inject_nan then res.(0) <- Float.nan;
      if inject_singular then
        Array.iter (fun row -> Array.fill row 0 (Array.length row) 0.0) jac
  in
  let o =
    Core.solve ?ectx ~ws:ws.core ~eval
      ~update:(if damped then ws.damped_clamp else ws.clamp)
      ~stop:(if damped then damped_stop else plain_stop)
      x
  in
  note_solve ws o;
  if o.converged then Ok () else Error o.failure
