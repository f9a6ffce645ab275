let two_pi = 2.0 *. Float.pi

(* The quadratures below project onto the cached cos/sin tables of
   Trig_tables instead of calling cos/sin per sample: the trig work per
   (points, harmonic) pair is paid once per process, and the inner loops
   reduce to the nonlinearity/signal evaluation plus fused multiply-adds. *)

let project_sampled x ~cos_t ~sin_t =
  let n = Array.length x in
  let re, im = Kernel.dot2 ~n x ~cos_t ~sin_t in
  Cx.make (re /. float_of_int n) (im /. float_of_int n)

let coeff ?(n = 1024) ~f ~k () =
  assert (n >= 1);
  let cos_t, sin_t = Trig_tables.get ~points:n ~k in
  let re = ref 0.0 and im = ref 0.0 in
  for s = 0 to n - 1 do
    let v = f (two_pi *. float_of_int s /. float_of_int n) in
    re := !re +. (v *. cos_t.(s));
    im := !im -. (v *. sin_t.(s))
  done;
  Cx.make (!re /. float_of_int n) (!im /. float_of_int n)

let coeff_sampled x ~k =
  let n = Array.length x in
  assert (n >= 1);
  let cos_t, sin_t = Trig_tables.get ~points:n ~k in
  project_sampled x ~cos_t ~sin_t

let of_time_series ~t ~x ~freq ~k =
  let n = Array.length t in
  assert (n = Array.length x && n >= 2);
  let w = two_pi *. freq *. float_of_int k in
  (* trapezoids of the phasor x_i e^{-j w t_i}: each sample's phasor is
     evaluated once and carried to the next trapezoid *)
  let theta = w *. t.(0) in
  let g_re = ref (x.(0) *. cos (-.theta)) and g_im = ref (x.(0) *. sin (-.theta)) in
  let re = ref 0.0 and im = ref 0.0 in
  for i = 0 to n - 2 do
    let theta = w *. t.(i + 1) in
    let h_re = x.(i + 1) *. cos (-.theta) and h_im = x.(i + 1) *. sin (-.theta) in
    let half_dt = 0.5 *. (t.(i + 1) -. t.(i)) in
    re := !re +. (half_dt *. (!g_re +. h_re));
    im := !im +. (half_dt *. (!g_im +. h_im));
    g_re := h_re;
    g_im := h_im
  done;
  let span = t.(n - 1) -. t.(0) in
  Cx.scale (1.0 /. span) (Cx.make !re !im)

let reconstruct cs ~theta =
  let n = Array.length cs in
  if n = 0 then 0.0
  else begin
    let s = ref (Cx.re cs.(0)) in
    for k = 1 to n - 1 do
      s := !s +. (2.0 *. Cx.re (Cx.mul cs.(k) (Cx.exp_j (float_of_int k *. theta))))
    done;
    !s
  end
