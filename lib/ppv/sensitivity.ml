module Linalg = Numerics.Linalg
module Ode = Numerics.Ode

type t = {
  orbit : Orbit.t;
  samples : float array array;
  monodromy : Linalg.mat;
  floquet_mu : float;
}

let jacobian ~jac_eps ~f t x =
  let dim = Array.length x in
  let fx = f t x in
  Array.init dim (fun r ->
      Array.init dim (fun c ->
          let h = jac_eps *. (1.0 +. Float.abs x.(c)) in
          let x' = Array.copy x in
          x'.(c) <- x'.(c) +. h;
          ((f t x').(r) -. fx.(r)) /. h))

let compute ?(jac_eps = 1e-7) ~f orbit =
  let dim = Array.length orbit.Orbit.x0 in
  let period = orbit.Orbit.period in
  let n = Array.length orbit.Orbit.times in
  let steps = 8 * n in
  let dt = period /. float_of_int steps in
  (* monodromy: integrate the variational equation dPhi/dt = J Phi along
     the orbit (columns as separate linear ODEs, same RK4 mesh) *)
  let j_at t = jacobian ~jac_eps ~f t (Orbit.state_at orbit t) in
  let var_system t phi_col = Linalg.mat_vec (j_at t) phi_col in
  let monodromy =
    Array.init dim (fun c ->
        let col = Array.init dim (fun r -> if r = c then 1.0 else 0.0) in
        Ode.rk4_final (fun t y -> var_system t y) ~t0:0.0 ~t1:period ~dt ~y0:col)
    |> Linalg.transpose
  in
  (* 2-D: multipliers are 1 (phase) and mu = det M *)
  let floquet_mu =
    if dim = 2 then Linalg.lu_det (Linalg.lu_factor monodromy)
    else Float.nan
  in
  (* left eigenvector for multiplier 1: (M^T - I) q = 0 *)
  let mt = Linalg.transpose monodromy in
  let a = Array.mapi (fun r row -> Array.mapi (fun c v -> if r = c then v -. 1.0 else v) row) mt in
  let fail ?context kind msg =
    Resilience.Oshil_error.raise_ Ppv ~phase:"sensitivity" kind msg ?context
      ~remedy:"tighten the orbit (smaller tol / more steps) first"
  in
  let q =
    if dim <> 2 then invalid_arg "Ppv.compute: only 2-D systems supported"
    else begin
      let q1 = [| -.a.(0).(1); a.(0).(0) |] in
      let q2 = [| -.a.(1).(1); a.(1).(0) |] in
      let norm v = sqrt ((v.(0) *. v.(0)) +. (v.(1) *. v.(1))) in
      let q = if norm q1 >= norm q2 then q1 else q2 in
      if norm q < 1e-12 then
        fail Singular_system "unit Floquet multiplier not found";
      q
    end
  in
  (* residual check that q is a left eigenvector for 1 *)
  let mq = Linalg.mat_vec mt q in
  let err = Linalg.norm_inf (Linalg.vec_sub mq q) /. Linalg.norm_inf q in
  if err > 1e-3 then
    fail Solver_divergence
      "left eigenvector residual too large (orbit unstable or inaccurate)"
      ~context:[ ("residual", Printf.sprintf "%.3g" err) ];
  (* normalise: v1(0) . F(x(0)) = 1 *)
  let fx0 = f 0.0 orbit.Orbit.x0 in
  let denom = Linalg.dot q fx0 in
  if Float.abs denom < 1e-300 then
    fail Singular_system "degenerate PPV normalisation";
  let p0 = Linalg.vec_scale (1.0 /. denom) q in
  (* adjoint integration: dp/dt = -J^T p, sampled on the orbit mesh *)
  let adj t p = Linalg.vec_scale (-1.0) (Linalg.mat_vec (Linalg.transpose (j_at t)) p) in
  let samples = Array.make n p0 in
  let p = ref (Array.copy p0) in
  let t = ref 0.0 in
  for s = 0 to n - 1 do
    let target = orbit.Orbit.times.(s) in
    while !t < target -. 1e-18 do
      let h = Float.min dt (target -. !t) in
      p := Ode.rk4_step adj ~t:!t ~dt:h !p;
      t := !t +. h
    done;
    samples.(s) <- Array.copy !p
  done;
  { orbit; samples; monodromy; floquet_mu }

let at t_ppv time =
  let orbit = t_ppv.orbit in
  let n = Array.length orbit.Orbit.times in
  let tau = Float.rem time orbit.Orbit.period in
  let tau = if tau < 0.0 then tau +. orbit.Orbit.period else tau in
  let pos = tau /. orbit.Orbit.period *. float_of_int n in
  let i = int_of_float pos mod n in
  let frac = pos -. Float.of_int (int_of_float pos) in
  let j = (i + 1) mod n in
  Array.init
    (Array.length t_ppv.samples.(0))
    (fun k ->
      t_ppv.samples.(i).(k) +. (frac *. (t_ppv.samples.(j).(k) -. t_ppv.samples.(i).(k))))

let normalization_error t_ppv =
  (* v1 . dx/dt must equal 1 everywhere; estimate dx/dt by centred
     differences of the orbit samples (plenty for a sanity check) *)
  let orbit = t_ppv.orbit in
  let worst = ref 0.0 in
  let n = Array.length orbit.Orbit.times in
  let dim = Array.length orbit.Orbit.x0 in
  let dt = orbit.Orbit.period /. float_of_int n in
  for s = 0 to n - 1 do
    let sp = (s + 1) mod n and sm = (s + n - 1) mod n in
    let deriv =
      Array.init dim (fun k ->
          (orbit.Orbit.states.(sp).(k) -. orbit.Orbit.states.(sm).(k)) /. (2.0 *. dt))
    in
    let dot = Numerics.Linalg.dot t_ppv.samples.(s) deriv in
    worst := Float.max !worst (Float.abs (dot -. 1.0))
  done;
  !worst

let fourier_component t_ppv ~component ~k =
  let xs = Array.map (fun p -> p.(component)) t_ppv.samples in
  Numerics.Fourier.coeff_sampled xs ~k
