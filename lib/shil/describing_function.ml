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

(* Exact quadrature of f applied to a synthesized waveform: the batch
   twin of [Fourier.coeff ~f] over the same θ samples. [synth] fills the
   waveform buffer; [eval] maps the nonlinearity over it. *)
let quad ~points ~k ~eval ~synth nl =
  let cos_t, sin_t = Trig.get ~points ~k in
  Kernel.with_bufs ~len:points 2 @@ fun bufs ->
  let wave = bufs.(0) and cur = bufs.(1) in
  synth ~dst:wave;
  eval nl ~src:wave ~dst:cur;
  let re, im = Kernel.dot2 ~n:points cur ~cos_t ~sin_t in
  Cx.make (re /. float_of_int points) (im /. float_of_int points)

(* Symmetry-reduced quadrature: table-driven synthesis of both tones,
   tolerance-grade nonlinearity evaluation, and the half-period cut when
   the symmetry licenses it. *)
let quad_sym ~points ~k ~n ~a ~vi ~phi nl =
  let m = if can_halve nl ~n ~k ~points then points / 2 else points in
  let cos_t, sin_t = Trig.get ~points ~k in
  let cos_1, _ = Trig.get ~points ~k:1 in
  let cos_n, sin_n = Trig.get ~points ~k:n in
  let w = 2.0 *. vi in
  let cp = w *. cos phi and sp = w *. sin phi in
  Kernel.with_bufs ~len:points 2 @@ fun bufs ->
  let wave = bufs.(0) and cur = bufs.(1) in
  for s = 0 to m - 1 do
    wave.(s) <- (a *. cos_1.(s)) +. (cp *. cos_n.(s)) -. (sp *. sin_n.(s))
  done;
  Nonlinearity.eval_batch_fast ~n:m nl ~src:wave ~dst:cur;
  let re, im = Kernel.dot2 ~n:m cur ~cos_t ~sin_t in
  let norm = float_of_int m in
  Cx.make (re /. norm) (im /. norm)

let single_tone_coeff ?(reduction = `Exact) ~points ~k nl ~a =
  match reduction with
  | `Exact ->
    (* bit-identical to the historical closure path: the (points, 1)
       table entry is the same double as cos θ_s computed inline *)
    quad ~points ~k nl
      ~eval:(fun nl ~src ~dst -> Nonlinearity.eval_batch nl ~src ~dst)
      ~synth:(fun ~dst ->
        let cos_1, _ = Trig.get ~points ~k:1 in
        Kernel.synth_tone ~a ~cos_t:cos_1 ~dst ~n:points)
  | `Symmetry -> quad_sym ~points ~k ~n:1 ~a ~vi:0.0 ~phi:0.0 nl

let i1 ?(points = default_points) ?reduction nl ~a =
  Cx.re (single_tone_coeff ?reduction ~points ~k:1 nl ~a)

let ik ?(points = default_points) ?reduction nl ~a ~k =
  single_tone_coeff ?reduction ~points ~k nl ~a

let two_tone_input nl ~n ~a ~vi ~phi theta =
  Nonlinearity.eval nl
    ((a *. cos theta) +. (2.0 *. vi *. cos ((float_of_int n *. theta) +. phi)))

let two_tone_coeff ?(reduction = `Exact) ~points ~k nl ~n ~a ~vi ~phi =
  match reduction with
  | `Exact ->
    (* exact synthesis recomputes the injection-tone cosine per sample —
       one libm cos — because cos(nθ+φ) must round exactly as the
       historical [two_tone_input] closure did *)
    quad ~points ~k nl
      ~eval:(fun nl ~src ~dst -> Nonlinearity.eval_batch nl ~src ~dst)
      ~synth:(fun ~dst ->
        let cos_1, _ = Trig.get ~points ~k:1 in
        Kernel.synth_two_tone_direct ~a ~w:(2.0 *. vi) ~tone:n ~phi
          ~cos_t:cos_1 ~points ~dst ~n:points)
  | `Symmetry -> quad_sym ~points ~k ~n ~a ~vi ~phi nl

let i1_two_tone ?(points = default_points) ?reduction nl ~n ~a ~vi ~phi =
  if n < 1 then invalid_arg "Describing_function: n must be >= 1";
  Obs.Metrics.incr "shil.df.i1_evals";
  two_tone_coeff ?reduction ~points ~k:1 nl ~n ~a ~vi ~phi

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

let t_cap_f ?points ?reduction nl ~n ~r ~a ~vi ~phi ~phi_d =
  if a <= 0.0 then invalid_arg "Describing_function.t_cap_f: a must be > 0";
  let i1c = i1_two_tone ?points ?reduction nl ~n ~a ~vi ~phi in
  Float.abs (r *. Cx.abs i1c *. cos phi_d /. (a /. 2.0))

let arg_minus_i1 ?points ?reduction nl ~n ~a ~vi ~phi =
  Cx.arg (Cx.neg (i1_two_tone ?points ?reduction nl ~n ~a ~vi ~phi))

(* Quadrature by stated error. An N-point periodic sum of a smooth
   integrand converges geometrically, so the change from N/2 to N points
   bounds the error left at N. The pilot evaluates I1 on a fixed set of
   (A, phi) points spread over the analysis box and doubles N until that
   change is below [tol] relative everywhere; a non-smooth f (a PCHIP
   table) converges algebraically and runs into the [default_points]
   cap. *)
type points_choice = { points : int; estimate : float }

let () =
  Obs.Metrics.register_histogram ~name:"shil.quad.points"
    ~buckets:[| 64.0; 128.0; 256.0; 512.0; 1024.0; 2048.0; 4096.0 |]

let pilot_phis = [| 0.0; 0.5 *. Float.pi; Float.pi; 1.5 *. Float.pi |]

let choose_points ?reduction ~tol nl ~n ~vi ~a_range:(a_lo, a_hi) =
  if n < 1 then invalid_arg "Describing_function: n must be >= 1";
  let amps = [| a_lo; 0.5 *. (a_lo +. a_hi); a_hi |] in
  let n_phi = Array.length pilot_phis in
  let pilot points =
    Array.init (Array.length amps * n_phi) (fun i ->
        i1_two_tone ~points ?reduction nl ~n ~a:amps.(i / n_phi) ~vi
          ~phi:pilot_phis.(i mod n_phi))
  in
  (* largest relative change over the pilot; an exact zero change is
     converged even where I1 itself vanishes, and a NaN never is *)
  let estimate coarse fine =
    let worst = ref 0.0 in
    Array.iteri
      (fun i z ->
        let d = Cx.abs (Cx.sub z coarse.(i)) in
        if d <> 0.0 then worst := Float.max !worst (d /. Cx.abs z))
      fine;
    !worst
  in
  let rec double points coarse =
    let fine = pilot points in
    let e = estimate coarse fine in
    if e <= tol || 2 * points > default_points then { points; estimate = e }
    else double (2 * points) fine
  in
  let choice = double 128 (pilot 64) in
  Obs.Metrics.observe "shil.quad.points" (float_of_int choice.points);
  choice
