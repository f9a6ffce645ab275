module Linalg = Numerics.Linalg
module Newton = Numerics.Newton
module Fault = Resilience.Fault
module Policy = Resilience.Policy

type stats = { iters : int; residual : float; rung : string; omega : float }

(* converged scaled residuals, by decade *)
let () =
  Obs.Metrics.register_histogram ~name:"hb.residual"
    ~buckets:[| 1e-15; 1e-13; 1e-11; 1e-9; 1e-6; 1e-3; 1.0 |]

let max_iter = 60

(* row-scaled residual: each row in units of its own stamps *)
let scaled_norm ~jac ~res =
  let n = Array.length res in
  let m = ref 0.0 in
  for i = 0 to n - 1 do
    let row = jac.(i) in
    let s = ref 0.0 in
    for j = 0 to n - 1 do
      let v = Float.abs row.(j) in
      if v > !s then s := v
    done;
    let sc = if !s > 1e-12 then !s else 1.0 in
    let r = Float.abs res.(i) /. sc in
    if r > !m then m := r
  done;
  !m

let attempt ~tol ~ws ~rung ~damped ~eval ~omega ~x0 () =
  if Fault.fire "hb-newton" then Error (rung ^ ": injected fault (hb-newton)")
  else begin
    let x = Array.copy x0 in
    let stop ~iter ~residual ~stalled:_ ~x =
      if not (omega x > 0.0) then
        Newton.Failed "base frequency is not positive"
      else if Float.is_nan residual then Newton.Failed "residual is NaN"
      else if residual > 1e12 then Newton.Failed "residual diverged"
      else if residual <= tol *. Float.max 1.0 (Linalg.norm_inf x) then
        Newton.Converged
      else if iter >= max_iter then
        Newton.Failed
          (Printf.sprintf "no convergence after %d iterations (scaled residual %.3e)"
             iter residual)
      else Newton.Continue
    in
    let o =
      Newton.solve ~ectx:(Obs.Event.ctx ~rung "hb") ~ws ~eval
        ~update:(if damped then Line_search else Plain)
        ~measure:scaled_norm ~stop:(Before_step stop) x
    in
    Obs.Metrics.incr ~by:o.iters "hb.newton_iters";
    if o.converged then
      Ok (x, { iters = o.iters; residual = o.residual; rung; omega = omega x })
    else Error (rung ^ ": " ^ o.failure)
  end

let solve ?(tol = 1e-12) ?x0 ?gauge asm =
  let t = System.system asm in
  let size = System.size t in
  let omega_s = System.omega0 asm in
  let x0 = match x0 with Some x -> x | None -> Array.make size 0.0 in
  let eval, omega, start =
    match gauge with
    | None -> (System.eval asm, (fun _ -> omega_s), x0)
    | Some node ->
      (* unknown [size] is ω / omega_s; row [size] is the gauge *)
      let n = size + 1 and im1 = System.idx t node 2 in
      let column = System.omega_column t in
      let eval ~x ~jac ~res =
        let omega = omega_s *. x.(size) in
        if not (omega > 0.0) then
          (* no system to assemble: a residual the line search backs
             off from and the stop test fails on *)
          for i = 0 to n - 1 do
            Array.fill jac.(i) 0 n 0.0;
            res.(i) <- infinity
          done
        else begin
          System.eval (System.assemble t ~omega0:omega) ~x ~jac ~res;
          let col = column ~x in
          for i = 0 to size - 1 do
            jac.(i).(size) <- omega_s *. col.(i)
          done;
          Array.fill jac.(size) 0 n 0.0;
          jac.(size).(im1) <- 1.0;
          res.(size) <- x.(im1)
        end
      in
      (eval, (fun x -> omega_s *. x.(size)), Array.append x0 [| 1.0 |])
  in
  let ws = Newton.workspace (Array.length start) in
  let rung name ~damped =
    Policy.rung name
      (attempt ~tol ~ws ~rung:name ~damped ~eval ~omega ~x0:start)
  in
  match
    Policy.escalate ~subsystem:Shil ~phase:"hb"
      [ rung "newton" ~damped:false; rung "damped-newton" ~damped:true ]
  with
  | Ok (x, st) ->
    Obs.Metrics.incr "hb.solves";
    Obs.Metrics.observe "hb.residual" st.residual;
    (Array.sub x 0 size, st)
  | Error e -> raise (Resilience.Oshil_error.Error e)
