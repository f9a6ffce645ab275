module Cx = Numerics.Cx
module Kernel = Numerics.Kernel
module Trig = Numerics.Trig_tables

let default_points = 1024

(* [`Exact] reproduces the historical per-sample quadrature bit for bit
   (same synthesis expressions, same summation order, bit-identical
   batch nonlinearity evaluation). [`Symmetry] exploits the odd-f
   half-period identity and evaluates the injection tone from trig
   tables, trading the last ulps for throughput — so it lives behind its
   own cache-key version. *)
type reduction = [ `Exact | `Symmetry ]

(* Half-period identity (paper footnote 3 generalized): for odd f and
   odd sub-harmonic order n, v(θ+π) = −v(θ), hence i(θ+π) = −i(θ), and
   for odd harmonic k the projected integrand i(θ)·e^{−jkθ} is
   π-periodic: the second half of the quadrature sum repeats the first.
   Summing half the points and doubling halves the nonlinearity work. *)
let can_halve nl ~n ~k ~points =
  Nonlinearity.odd nl && n land 1 = 1 && k land 1 = 1 && points land 1 = 0

(* The projection of [cur]'s first [m] samples on harmonic [k] of a
   [points]-point period, divided by [m]: the batch twin of
   [Fourier.coeff] over the same θ samples. *)
let project ~points ~k ~m cur =
  let cos_t, sin_t = Trig.get ~points ~k in
  let re, im = Kernel.dot2 ~n:m cur ~cos_t ~sin_t in
  Cx.make (re /. float_of_int m) (im /. float_of_int m)

(* Fills [wave] with the two-tone input and [cur] with f over it, and
   returns how many samples to project. [`Exact] recomputes the
   injection-tone cosine per sample (one libm cos), because cos(nθ+φ)
   must round exactly as the historical [two_tone_input] closure did;
   [`Symmetry] synthesizes both tones from trig tables, evaluates the
   tolerance-grade batch and takes the half-period cut when the
   symmetry licenses it for harmonic [k]. *)
let two_tone_samples ~reduction ~points ~k nl ~n ~a ~vi ~phi ~wave ~cur =
  let cos_1, _ = Trig.get ~points ~k:1 in
  match reduction with
  | `Exact ->
    Kernel.synth_two_tone_direct ~a ~w:(2.0 *. vi) ~tone:n ~phi ~cos_t:cos_1
      ~points ~dst:wave ~n:points;
    Nonlinearity.eval_batch nl ~src:wave ~dst:cur;
    points
  | `Symmetry ->
    let m = if can_halve nl ~n ~k ~points then points / 2 else points in
    let cos_n, sin_n = Trig.get ~points ~k:n in
    let w = 2.0 *. vi in
    let cp = w *. cos phi and sp = w *. sin phi in
    for s = 0 to m - 1 do
      wave.(s) <- (a *. cos_1.(s)) +. (cp *. cos_n.(s)) -. (sp *. sin_n.(s))
    done;
    Nonlinearity.eval_batch_fast ~n:m nl ~src:wave ~dst:cur;
    m

let two_tone_coeff ?(reduction = `Exact) ~points ~k nl ~n ~a ~vi ~phi =
  Kernel.with_bufs ~len:points 2 @@ fun bufs ->
  let wave = bufs.(0) and cur = bufs.(1) in
  project ~points ~k cur
    ~m:(two_tone_samples ~reduction ~points ~k nl ~n ~a ~vi ~phi ~wave ~cur)

let single_tone_coeff ?(reduction = `Exact) ~points ~k nl ~a =
  match reduction with
  | `Exact ->
    (* bit-identical to the historical closure path: the (points, 1)
       table entry is the same double as cos θ_s computed inline *)
    Kernel.with_bufs ~len:points 2 @@ fun bufs ->
    let wave = bufs.(0) and cur = bufs.(1) in
    let cos_1, _ = Trig.get ~points ~k:1 in
    Kernel.synth_tone ~a ~cos_t:cos_1 ~dst:wave ~n:points;
    Nonlinearity.eval_batch nl ~src:wave ~dst:cur;
    project ~points ~k ~m:points cur
  | `Symmetry ->
    two_tone_coeff ~reduction ~points ~k nl ~n:1 ~a ~vi:0.0 ~phi:0.0

let i1 ?(points = default_points) ?reduction nl ~a =
  Cx.re (single_tone_coeff ?reduction ~points ~k:1 nl ~a)

let two_tone_input nl ~n ~a ~vi ~phi theta =
  Nonlinearity.eval nl
    ((a *. cos theta) +. (2.0 *. vi *. cos ((float_of_int n *. theta) +. phi)))

let i1_two_tone ?(points = default_points) ?reduction nl ~n ~a ~vi ~phi =
  if n < 1 then invalid_arg "Describing_function: n must be >= 1";
  Obs.Metrics.incr "shil.df.i1_evals";
  two_tone_coeff ?reduction ~points ~k:1 nl ~n ~a ~vi ~phi

type jacobian = { i1 : Cx.t; d_a : Cx.t; d_phi : Cx.t }

(* I1 and its derivatives from the same samples: the derivatives are
   the projections of f'(v) ∂v/∂A = f'(v) cos θ and of
   f'(v) ∂v/∂φ = −2 V_i f'(v) sin(nθ + φ). For odd f and odd n both
   are π-periodic like f(v) e^{−jθ}, so the half-period cut holds for
   them too. *)
let i1_jacobian ?(points = default_points) ?(reduction = `Exact) nl ~n ~a ~vi
    ~phi =
  if n < 1 then invalid_arg "Describing_function: n must be >= 1";
  Obs.Metrics.incr "shil.df.jac_evals";
  Kernel.with_bufs ~len:points 3 @@ fun bufs ->
  let wave = bufs.(0) and cur = bufs.(1) and slope = bufs.(2) in
  let m = two_tone_samples ~reduction ~points ~k:1 nl ~n ~a ~vi ~phi ~wave ~cur in
  let cos_1, _ = Trig.get ~points ~k:1 in
  let cos_n, sin_n = Trig.get ~points ~k:n in
  let w = 2.0 *. vi in
  let cp = w *. cos phi and sp = w *. sin phi in
  (* [wave] takes f' ∂v/∂A, [slope] f' ∂v/∂φ *)
  for s = 0 to m - 1 do
    let g = Nonlinearity.deriv nl wave.(s) in
    wave.(s) <- g *. cos_1.(s);
    slope.(s) <- -.g *. ((sp *. cos_n.(s)) +. (cp *. sin_n.(s)))
  done;
  let p = project ~points ~k:1 ~m in
  { i1 = p cur; d_a = p wave; d_phi = p slope }

let ik_two_tone ?(points = default_points) ?reduction nl ~n ~a ~vi ~phi ~k =
  if n < 1 then invalid_arg "Describing_function: n must be >= 1";
  Obs.Metrics.incr "shil.df.ik_evals";
  two_tone_coeff ?reduction ~points ~k nl ~n ~a ~vi ~phi

let t_f_free ?points ?reduction nl ~r ~a =
  if a <= 0.0 then invalid_arg "Describing_function.t_f_free: a must be > 0";
  -.r *. i1 ?points ?reduction nl ~a /. (a /. 2.0)

let t_f ?points ?reduction nl ~n ~r ~a ~vi ~phi =
  if a <= 0.0 then invalid_arg "Describing_function.t_f: a must be > 0";
  let i1c = i1_two_tone ?points ?reduction nl ~n ~a ~vi ~phi in
  -.r *. Cx.re i1c /. (a /. 2.0)

(* The two-tone torus. g(θ, ψ) = f(A cos θ + 2 V_i cos ψ) is even in θ
   and in ψ, so its 2-D Fourier coefficients G_{p,q} are real and the
   half-range samples s = 0 .. N_θ/2, t = 0 .. N_ψ/2 determine them. On
   the line ψ = nθ + φ the fundamental collects the terms p + nq = 1:
     I1(φ) = Σ_q G_{1−nq,q} e^{iqφ},
   so one table per amplitude serves every φ. With G taken from the
   N_θ-point θ sum this is exactly the direct N_θ-point quadrature of
   the trigonometric interpolant of g in ψ (Nyquist term halved): the
   only difference from the direct grid is that interpolation error.
   [re]/[im] hold the q >= 0 terms folded with their q < 0 mirrors:
     I1(φ) = Σ_q re.(q) cos qφ + i Σ_q im.(q) sin qφ. *)
type torus = { re : float array; im : float array }

let torus_evals ~n_theta ~n_psi = ((n_theta / 2) + 1) * ((n_psi / 2) + 1)

let torus ?(reduction = `Exact) ~n_theta ~n_psi nl ~n ~a ~vi =
  if n < 1 then invalid_arg "Describing_function: n must be >= 1";
  if n_theta < 2 || n_theta land 1 = 1 || n_psi < 2 || n_psi land 1 = 1 then
    invalid_arg "Describing_function.torus: counts must be even and >= 2";
  let hs = n_theta / 2 and ht = n_psi / 2 in
  let cos_s, _ = Trig.get ~points:n_theta ~k:1 in
  let cos_t, _ = Trig.get ~points:n_psi ~k:1 in
  let eval =
    match reduction with
    | `Exact -> Nonlinearity.eval_batch
    | `Symmetry -> Nonlinearity.eval_batch_fast
  in
  (* G_{1−nq,q} and G_{1+nq,q}, accumulated one θ sample at a time so
     the scratch is one ψ column, not the whole table: per column, the
     ψ transform at every q, then one term of the θ transform at the two
     p each q needs. The cosine-table indices step by p (or q) modulo
     the table length instead of dividing per term; p beyond N_θ/2
     aliases exactly as the direct quadrature does. *)
  let ga = Array.make (ht + 1) 0.0 and gb = Array.make (ht + 1) 0.0 in
  let step_a = Array.init (ht + 1) (fun q -> abs (1 - (n * q)) mod n_theta)
  and step_b = Array.init (ht + 1) (fun q -> (1 + (n * q)) mod n_theta) in
  let idx_a = Array.make (ht + 1) 0 and idx_b = Array.make (ht + 1) 0 in
  let advance idx step =
    for q = 0 to ht do
      let i = idx.(q) + step.(q) in
      idx.(q) <- (if i >= n_theta then i - n_theta else i)
    done
  in
  Kernel.with_bufs ~len:(ht + 1) 1 (fun bufs ->
      let col = bufs.(0) in
      for s = 0 to hs do
        let x = a *. cos_s.(s) in
        for t = 0 to ht do
          col.(t) <- x +. (2.0 *. vi *. cos_t.(t))
        done;
        eval ~n:(ht + 1) nl ~src:col ~dst:col;
        (* a half-range end sample stands for one point of the full
           period, every other sample for two *)
        let ws = if s = 0 || s = hs then 1.0 else 2.0 in
        for q = 0 to ht do
          let acc = ref (col.(0) +. (col.(ht) *. cos_t.(q * ht mod n_psi))) in
          let idx = ref q in
          for t = 1 to ht - 1 do
            acc := !acc +. (2.0 *. col.(t) *. cos_t.(!idx));
            idx := !idx + q;
            if !idx >= n_psi then idx := !idx - n_psi
          done;
          let h = ws *. !acc in
          ga.(q) <- ga.(q) +. (h *. cos_s.(idx_a.(q)));
          gb.(q) <- gb.(q) +. (h *. cos_s.(idx_b.(q)))
        done;
        advance idx_a step_a;
        advance idx_b step_b
      done);
  let norm = float_of_int (n_theta * n_psi) in
  let re = Array.make (ht + 1) 0.0 and im = Array.make (ht + 1) 0.0 in
  re.(0) <- ga.(0) /. norm;
  for q = 1 to ht do
    (* the Nyquist term stands for q = ±N_ψ/2 together: half each *)
    let c = if q = ht then 0.5 /. norm else 1.0 /. norm in
    re.(q) <- c *. (ga.(q) +. gb.(q));
    im.(q) <- c *. (ga.(q) -. gb.(q))
  done;
  { re; im }

let torus_phases ~n_psi phis =
  let table trig =
    Array.map
      (fun phi ->
        Array.init ((n_psi / 2) + 1) (fun q -> trig (float_of_int q *. phi)))
      phis
  in
  (table cos, table sin)

let torus_i1 t ~cos_q ~sin_q =
  let re = ref 0.0 and im = ref 0.0 in
  for q = 0 to Array.length t.re - 1 do
    re := !re +. (t.re.(q) *. cos_q.(q));
    im := !im +. (t.im.(q) *. sin_q.(q))
  done;
  Cx.make !re !im

(* Quadrature by stated error. An N-point periodic sum of a smooth
   integrand converges geometrically, so the change from N/2 to N points
   bounds the error left at N. A pilot evaluates the coefficients on a
   fixed set of points and N doubles until that change is below [tol]
   relative everywhere; a non-smooth f (a PCHIP table) converges
   algebraically and runs into the [default_points] cap. *)
type points_choice = {
  points : int;
  estimate : float;
  psi : int option;
  psi_estimate : float;
}

let () =
  Obs.Metrics.register_histogram ~name:"shil.quad.points"
    ~buckets:[| 64.0; 128.0; 256.0; 512.0; 1024.0; 2048.0; 4096.0 |];
  Obs.Metrics.register_histogram ~name:"shil.quad.psi"
    ~buckets:[| 8.0; 16.0; 32.0; 64.0 |]

(* largest relative difference of [z] from [reference]; an exact zero
   difference is converged even where the reference vanishes, and a NaN
   never is *)
let rel_diff ~reference z =
  let worst = ref 0.0 in
  Array.iteri
    (fun i r ->
      let d = Cx.abs (Cx.sub z.(i) r) in
      if d <> 0.0 then worst := Float.max !worst (d /. Cx.abs r))
    reference;
  !worst

let double_until ~tol pilot =
  let rec double points coarse =
    let fine = pilot points in
    let e = rel_diff ~reference:fine coarse in
    if e <= tol || 2 * points > default_points then (points, e, fine)
    else double (2 * points) fine
  in
  double 128 (pilot 64)

let stated_points ~tol pilot =
  let points, estimate, _ = double_until ~tol pilot in
  (points, estimate)

let pilot_phis = [| 0.0; 0.5 *. Float.pi; Float.pi; 1.5 *. Float.pi |]
let psi_start = 8
let psi_cap = 64

(* A doubling of N_ψ that cuts the torus pilot's error by less than
   this factor has stalled: the torus error of an analytic f falls
   geometrically in N_ψ, that of a C¹ PCHIP table does not, and an
   estimate that stops falling is no longer a bound. *)
let psi_stall = 10.0

let choose_points ?reduction ~grid_cap ~tol nl ~n ~vi ~a_range:(a_lo, a_hi) =
  if n < 1 then invalid_arg "Describing_function: n must be >= 1";
  let amps = [| a_lo; 0.5 *. (a_lo +. a_hi); a_hi |] in
  let n_phi = Array.length pilot_phis in
  let at f =
    Array.init (Array.length amps * n_phi) (fun i -> f (i / n_phi) (i mod n_phi))
  in
  let points, estimate, direct =
    double_until ~tol (fun points ->
        at (fun ia ip ->
            i1_two_tone ~points ?reduction nl ~n ~a:amps.(ia) ~vi
              ~phi:pilot_phis.(ip)))
  in
  Obs.Metrics.observe "shil.quad.points" (float_of_int points);
  (* the torus grid's stated error: its I1 at the same pilot points
     against the direct N-point pilot, N_ψ doubling to the cap while
     each doubling cuts it [psi_stall]-fold *)
  let n_theta = min points grid_cap in
  let rec grow n_psi prev =
    let tori =
      Array.map (fun a -> torus ?reduction ~n_theta ~n_psi nl ~n ~a ~vi) amps
    in
    let cos_q, sin_q = torus_phases ~n_psi pilot_phis in
    let e =
      rel_diff ~reference:direct
        (at (fun ia ip ->
             torus_i1 tori.(ia) ~cos_q:cos_q.(ip) ~sin_q:sin_q.(ip)))
    in
    if e <= tol then (Some n_psi, e)
    else if 2 * n_psi > psi_cap || e > prev /. psi_stall then (None, e)
    else grow (2 * n_psi) e
  in
  let psi, psi_estimate = grow psi_start Float.infinity in
  Option.iter
    (fun p -> Obs.Metrics.observe "shil.quad.psi" (float_of_int p))
    psi;
  { points; estimate; psi; psi_estimate }
