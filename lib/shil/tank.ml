module Cx = Numerics.Cx

type t = { r : float; l : float; c : float }

let make ~r ~l ~c =
  if r <= 0.0 || l <= 0.0 || c <= 0.0 then
    invalid_arg "Tank.make: r, l, c must be positive";
  { r; l; c }

let omega_c t = 1.0 /. sqrt (t.l *. t.c)
let f_c t = omega_c t /. (2.0 *. Float.pi)
let q t = t.r *. sqrt (t.c /. t.l)

let beta t omega =
  let wc = omega_c t in
  q t *. ((omega /. wc) -. (wc /. omega))

let h t ~omega =
  let b = beta t omega in
  Cx.div (Cx.of_float t.r) (Cx.make 1.0 b)

let mag t ~omega = Cx.abs (h t ~omega)
let phase t ~omega = -.atan (beta t omega)

let omega_of_phase t ~phi_d =
  if Float.abs phi_d >= Float.pi /. 2.0 then
    invalid_arg "Tank.omega_of_phase: |phi_d| must be < pi/2";
  (* solve Q (w/wc - wc/w) = -tan phi_d for w > 0 *)
  let b = -.tan phi_d /. q t in
  let x = (b +. sqrt ((b *. b) +. 4.0)) /. 2.0 in
  x *. omega_c t

let pp ppf t =
  Format.fprintf ppf "RLC(R=%g, L=%g, C=%g; fc=%g Hz, Q=%.3g)" t.r t.l t.c
    (f_c t) (q t)
