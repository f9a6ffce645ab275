(* Reduced harmonic balance of the free-running oscillator: the
   reference the MNA engine ([Hb.Driver.oscprobe]) is cross-checked
   against in test_hb.

   v(t) = sum_{k=1..K} 2 Re (V_k e^{jkwt}) with V_1 pinned real; the
   unknowns are V_1, V_2..V_K (complex) and w, and each harmonic must
   satisfy KCL through the tank, Y(jkw) V_k + I_k = 0, with I_k the
   Fourier coefficients of f(v(t)). Newton with a finite-difference
   Jacobian, warm-started from the describing-function solution. *)

module Cx = Numerics.Cx
module Linalg = Numerics.Linalg
module Tank = Shil.Tank
module Nonlinearity = Shil.Nonlinearity
module Natural = Shil.Natural

type solution = {
  omega : float;
  coeffs : Cx.t array;
  k_max : int;
  residual : float;
}

(* unknown vector layout: [ V1_re; V2_re; V2_im; ...; VK_re; VK_im; omega ] *)
let pack_size k_max = 1 + (2 * (k_max - 1)) + 1

let unpack k_max u =
  let coeffs = Array.make (k_max + 1) Cx.zero in
  coeffs.(1) <- Cx.of_float u.(0);
  for k = 2 to k_max do
    let base = 1 + (2 * (k - 2)) in
    coeffs.(k) <- Cx.make u.(base) u.(base + 1)
  done;
  (coeffs, u.(pack_size k_max - 1))

let admittance (tank : Tank.t) omega k =
  let w = float_of_int k *. omega in
  Cx.add
    (Cx.add (Cx.of_float (1.0 /. tank.r)) (Cx.make 0.0 (w *. tank.c)))
    (Cx.div (Cx.of_float 1.0) (Cx.make 0.0 (w *. tank.l)))

let residual_vec nl tank ~k_max ~samples u =
  let coeffs, omega = unpack k_max u in
  if omega <= 0.0 then Array.make (pack_size k_max) 1.0
  else begin
    (* sample v over one period and take the FFT of f(v) *)
    let i_samples =
      Array.init samples (fun s ->
          let theta = 2.0 *. Float.pi *. float_of_int s /. float_of_int samples in
          let v = ref 0.0 in
          for k = 1 to k_max do
            v :=
              !v
              +. (2.0
                 *. ((Cx.re coeffs.(k) *. cos (float_of_int k *. theta))
                    -. (Cx.im coeffs.(k) *. sin (float_of_int k *. theta))))
          done;
          Nonlinearity.eval nl !v)
    in
    let r = Array.make (pack_size k_max) 0.0 in
    (* scale the equations to volts so the Newton is well conditioned *)
    let z_scale = (tank : Tank.t).r in
    for k = 1 to k_max do
      let ik = Numerics.Fourier.coeff_sampled i_samples ~k in
      let kcl = Cx.add (Cx.mul (admittance tank omega k) coeffs.(k)) ik in
      if k = 1 then begin
        r.(0) <- z_scale *. Cx.re kcl;
        r.(pack_size k_max - 1) <- z_scale *. Cx.im kcl
      end
      else begin
        let base = 1 + (2 * (k - 2)) in
        r.(base) <- z_scale *. Cx.re kcl;
        r.(base + 1) <- z_scale *. Cx.im kcl
      end
    done;
    r
  end

let solve ?(k_max = 7) ?(samples = 256) ?(max_iter = 80) ?(tol = 1e-12) nl
    ~tank =
  if k_max < 1 then invalid_arg "Hb_reference.solve: k_max >= 1";
  let r = (tank : Tank.t).r in
  let a0 =
    match Natural.predicted_amplitude nl ~r with
    | Some a -> a
    | None ->
      Resilience.Oshil_error.raise_ Shil ~phase:"harmonic-balance"
        No_oscillation "oscillator does not start"
        ~context:[ ("r", Printf.sprintf "%.6g" r) ]
        ~remedy:"check that the small-signal loop gain exceeds 1/R"
  in
  let m = pack_size k_max in
  let u = Array.make m 0.0 in
  u.(0) <- a0 /. 2.0;
  u.(m - 1) <- Tank.omega_c tank;
  let scale c = if c = m - 1 then Tank.omega_c tank else a0 in
  let res_norm v = Array.fold_left (fun acc x -> Float.max acc (Float.abs x)) 0.0 v in
  let converged = ref false in
  let it = ref 0 in
  let last_res = ref infinity in
  while (not !converged) && !it < max_iter do
    incr it;
    let rv = residual_vec nl tank ~k_max ~samples u in
    let rn = res_norm rv in
    last_res := rn;
    if rn < tol *. a0 then converged := true
    else begin
      let jac = Array.make_matrix m m 0.0 in
      for c = 0 to m - 1 do
        let h = 1e-7 *. scale c in
        let u' = Array.copy u in
        u'.(c) <- u'.(c) +. h;
        let rv' = residual_vec nl tank ~k_max ~samples u' in
        for rr = 0 to m - 1 do
          jac.(rr).(c) <- (rv'.(rr) -. rv.(rr)) /. h
        done
      done;
      match Linalg.solve jac rv with
      | exception Linalg.Singular ->
        Resilience.Oshil_error.raise_ Shil ~phase:"harmonic-balance"
          Singular_system "singular harmonic-balance Jacobian"
          ~context:
            [
              ("iteration", string_of_int !it);
              ("residual", Printf.sprintf "%.3g" !last_res);
            ]
          ~remedy:"perturb the initial amplitude or reduce k_max"
      | du ->
        for c = 0 to m - 1 do
          (* clamp to keep the iteration inside the basin *)
          let lim = 0.3 *. scale c in
          let d = if Float.abs du.(c) > lim then Float.copy_sign lim du.(c) else du.(c) in
          u.(c) <- u.(c) -. d
        done
    end
  done;
  if not !converged then
    Resilience.Oshil_error.raise_ Shil ~phase:"harmonic-balance"
      Solver_divergence
      (Printf.sprintf "residual %.3g after %d iterations" !last_res max_iter)
      ~context:
        [
          ("iterations", string_of_int max_iter);
          ("residual", Printf.sprintf "%.3g" !last_res);
        ]
      ~remedy:"raise max_iter, loosen tol or reduce k_max";
  let coeffs, omega = unpack k_max u in
  { omega; coeffs; k_max; residual = !last_res }

let amplitude s = 2.0 *. Cx.abs s.coeffs.(1)
let frequency s = s.omega /. (2.0 *. Float.pi)
