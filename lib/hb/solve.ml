module Linalg = Numerics.Linalg
module Newton = Numerics.Newton
module Fault = Resilience.Fault
module Policy = Resilience.Policy

type stats = { iters : int; residual : float; rung : string }

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

let attempt ~tol ~ws ~rung ~damped asm ~probe ~x0 () =
  if Fault.fire "hb-newton" then Error (rung ^ ": injected fault (hb-newton)")
  else begin
    let t = System.system asm in
    let base = System.size t in
    let n = base + (match probe with Some _ -> 2 | None -> 0) in
    let x = Array.make n 0.0 in
    Array.blit x0 0 x 0 (min (Array.length x0) n);
    (match probe with
    | Some (p, a) ->
      x.(System.idx t p 1) <- a /. 2.0;
      x.(System.idx t p 2) <- 0.0
    | None -> ());
    let eval ~x ~jac ~res =
      System.eval asm ~x ~jac ~res;
      match probe with
      | Some (p, a) ->
        let r1 = System.idx t p 1 and r2 = System.idx t p 2 in
        (* System.eval leaves the probe columns alone: clear what an
           in-place LU may have left there *)
        for i = 0 to base - 1 do
          jac.(i).(base) <- 0.0;
          jac.(i).(base + 1) <- 0.0
        done;
        (* the probe current flows into the node: KCL sees -Ip *)
        res.(r1) <- res.(r1) -. x.(base);
        res.(r2) <- res.(r2) -. x.(base + 1);
        jac.(r1).(base) <- -1.0;
        jac.(r2).(base + 1) <- -1.0;
        (* pin rows: Re V_1 = a/2, Im V_1 = 0 *)
        res.(base) <- x.(r1) -. (a /. 2.0);
        res.(base + 1) <- x.(r2);
        Array.fill jac.(base) 0 n 0.0;
        Array.fill jac.(base + 1) 0 n 0.0;
        jac.(base).(r1) <- 1.0;
        jac.(base + 1).(r2) <- 1.0
      | None -> ()
    in
    let stop ~iter ~residual ~x =
      if Float.is_nan residual then Newton.Failed "residual is NaN"
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
        ~update:(if damped then Line_search { reuse = true } else Plain)
        ~measure:scaled_norm ~stop:(Before_step stop) x
    in
    Obs.Metrics.incr ~by:o.iters "hb.newton_iters";
    if o.converged then Ok (x, { iters = o.iters; residual = o.residual; rung })
    else Error (rung ^ ": " ^ o.failure)
  end

let solve ?(tol = 1e-12) ?x0 asm ~probe =
  let t = System.system asm in
  let x0 =
    match x0 with Some x -> x | None -> Array.make (System.size t) 0.0
  in
  let ws =
    Newton.workspace
      (System.size t + match probe with Some _ -> 2 | None -> 0)
  in
  match
    Policy.escalate ~subsystem:Shil ~phase:"hb"
      [
        Policy.rung "newton"
          (attempt ~tol ~ws ~rung:"newton" ~damped:false asm ~probe ~x0);
        Policy.rung "damped-newton"
          (attempt ~tol ~ws ~rung:"damped-newton" ~damped:true asm ~probe ~x0);
      ]
  with
  | Ok (x, st) ->
    Obs.Metrics.incr "hb.solves";
    Obs.Metrics.observe "hb.residual" st.residual;
    (x, st)
  | Error e -> raise (Resilience.Oshil_error.Error e)
