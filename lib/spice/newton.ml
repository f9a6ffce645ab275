module Linalg = Numerics.Linalg

type options = {
  max_iter : int;
  vtol_abs : float;
  vtol_rel : float;
  res_tol : float;
  step_limit : float;
}

let defaults =
  { max_iter = 250; vtol_abs = 1e-9; vtol_rel = 1e-6; res_tol = 1e-9;
    step_limit = 2.0 }

type outcome = Converged of { iterations : int } | Diverged of string

let iters_buckets = [| 1.; 2.; 5.; 10.; 25.; 50.; 100.; 250. |]
let residual_buckets = [| 1e-12; 1e-9; 1e-6; 1e-3; 1.; 1e3 |]

let () =
  Obs.Metrics.register_histogram ~name:"spice.newton.iters_per_solve"
    ~buckets:iters_buckets;
  Obs.Metrics.register_histogram ~name:"spice.newton.residual"
    ~buckets:residual_buckets

type workspace = {
  size : int;
  jac : Linalg.mat;
  res : float array;
  dx : float array;
  perm : int array;
  (* the run's spice.newton.* telemetry, held back until [flush] *)
  mutable solves : int;
  mutable iters : int;
  mutable diverged : int;
  iters_hist : int array;
  residual_hist : int array;
}

let workspace size =
  {
    size;
    jac = Linalg.create size size;
    res = Array.make size 0.0;
    dx = Array.make size 0.0;
    perm = Array.make size 0;
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

let note_solve ws ~iters ~converged ~residual =
  ws.solves <- ws.solves + 1;
  ws.iters <- ws.iters + iters;
  if not converged then ws.diverged <- ws.diverged + 1;
  let k = Obs.Metrics.bucket iters_buckets (float_of_int iters) in
  ws.iters_hist.(k) <- ws.iters_hist.(k) + 1;
  if Float.is_finite residual then begin
    let k = Obs.Metrics.bucket residual_buckets residual in
    ws.residual_hist.(k) <- ws.residual_hist.(k) + 1
  end

let solve ?(options = defaults) ?clamp_upto ?ectx ~ws ~assemble ~x0 () =
  let size = ws.size in
  assert (Array.length x0 = size);
  let clamp_upto = match clamp_upto with Some k -> k | None -> size in
  (* solver-health events: one atomic load when the stream is off *)
  let ectx = if Obs.Event.enabled () then ectx else None in
  (* fault sites count one occurrence per solve, so plans address the
     k-th Newton solve of a run deterministically *)
  let inject_singular = Resilience.Fault.fire "newton-singular" in
  let inject_nan = Resilience.Fault.fire "device-nan" in
  let x = Array.copy x0 in
  let { jac; res; dx; perm; _ } = ws in
  let outcome = ref None in
  let iter = ref 0 in
  let last_res = ref infinity in
  while !outcome = None && !iter < options.max_iter do
    incr iter;
    assemble ~x ~jac ~res;
    if inject_nan then res.(0) <- Float.nan;
    let res_norm = Linalg.norm_inf res in
    last_res := res_norm;
    (match
       if inject_singular then raise Linalg.Singular
       else Linalg.lu_factor_in_place jac perm
     with
    | exception Linalg.Singular ->
      (match ectx with
      | Some ctx ->
        Obs.Event.emit
          (Obs.Event.Newton_iter
             { ctx; iter = !iter; residual = res_norm; step = Float.nan;
               damping = 1.0 })
      | None -> ());
      outcome := Some (Diverged "singular Jacobian")
    | () ->
      Linalg.lu_solve_into jac perm res dx;
      (* clamp the per-component update: junction exponentials explode
         without it *)
      let raw_norm =
        match ectx with Some _ -> Linalg.norm_inf dx | None -> 0.0
      in
      let clamped = ref false in
      for k = 0 to min clamp_upto size - 1 do
        let d = dx.(k) in
        if Float.abs d > options.step_limit then begin
          dx.(k) <- Float.copy_sign options.step_limit d;
          clamped := true
        end
      done;
      let dx_norm = Linalg.norm_inf dx in
      (match ectx with
      | Some ctx ->
        Obs.Event.emit
          (Obs.Event.Newton_iter
             {
               ctx;
               iter = !iter;
               residual = res_norm;
               step = dx_norm;
               damping = (if !clamped && raw_norm > 0.0 then dx_norm /. raw_norm else 1.0);
             })
      | None -> ());
      let finite = ref true in
      for k = 0 to size - 1 do
        let v = x.(k) -. dx.(k) in
        x.(k) <- v;
        if not (Float.is_finite v) then finite := false
      done;
      if not !finite then outcome := Some (Diverged "non-finite iterate")
      else begin
        let x_norm = Linalg.norm_inf x in
        if
          (not !clamped)
          && dx_norm <= options.vtol_abs +. (options.vtol_rel *. x_norm)
          && res_norm <= options.res_tol *. 10.0
          (* the residual was evaluated before the step; accept when the
             last step is negligible and the entering residual small *)
        then outcome := Some (Converged { iterations = !iter })
      end)
  done;
  let out =
    match !outcome with
    | Some o -> o
    | None -> Diverged (Printf.sprintf "no convergence in %d iterations" options.max_iter)
  in
  let converged = match out with Converged _ -> true | Diverged _ -> false in
  (match ectx with
  | Some ctx ->
    Obs.Event.emit
      (Obs.Event.Newton_done
         { ctx; iters = !iter; converged; residual = !last_res })
  | None -> ());
  note_solve ws ~iters:!iter ~converged ~residual:!last_res;
  (x, out)
