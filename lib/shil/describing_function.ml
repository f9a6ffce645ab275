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
