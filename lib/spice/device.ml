type diode_params = { is : float; n : float; vt : float }

let default_diode = { is = 1e-14; n = 1.0; vt = 0.025 }

type bjt_params = { is : float; beta_f : float; beta_r : float; vt : float }

let default_npn = { is = 1e-12; beta_f = 100.0; beta_r = 1.0; vt = 0.025 }

type tunnel_params = {
  is : float;
  eta : float;
  vth : float;
  r0 : float;
  v0 : float;
  m : float;
}

let paper_tunnel =
  { is = 1e-12; eta = 1.0; vth = 0.025; r0 = 1000.0; v0 = 0.2; m = 2.0 }

type mos_params = { kp : float; vth : float; lambda : float }

let default_nmos = { kp = 200e-6; vth = 0.5; lambda = 0.02 }

type t =
  | Resistor of { name : string; n1 : string; n2 : string; r : float }
  | Capacitor of { name : string; n1 : string; n2 : string; c : float; ic : float option }
  | Inductor of { name : string; n1 : string; n2 : string; l : float; ic : float option }
  | Vsource of { name : string; np : string; nn : string; wave : Wave.t }
  | Isource of { name : string; np : string; nn : string; wave : Wave.t }
  | Diode of { name : string; np : string; nn : string; p : diode_params }
  | Bjt of { name : string; nc : string; nb : string; ne : string; p : bjt_params }
  | Tunnel_diode of { name : string; np : string; nn : string; p : tunnel_params }
  | Mosfet of { name : string; nd : string; ng : string; ns : string; p : mos_params }
  | Nonlinear_cs of {
      name : string;
      np : string;
      nn : string;
      f : float -> float;
      df : (float -> float) option;
    }

let name = function
  | Resistor { name; _ }
  | Capacitor { name; _ }
  | Inductor { name; _ }
  | Vsource { name; _ }
  | Isource { name; _ }
  | Diode { name; _ }
  | Bjt { name; _ }
  | Tunnel_diode { name; _ }
  | Mosfet { name; _ }
  | Nonlinear_cs { name; _ } -> name

let nodes = function
  | Resistor { n1; n2; _ } | Capacitor { n1; n2; _ } | Inductor { n1; n2; _ } ->
    [ n1; n2 ]
  | Vsource { np; nn; _ }
  | Isource { np; nn; _ }
  | Diode { np; nn; _ }
  | Tunnel_diode { np; nn; _ }
  | Nonlinear_cs { np; nn; _ } -> [ np; nn ]
  | Bjt { nc; nb; ne; _ } -> [ nc; nb; ne ]
  | Mosfet { nd; ng; ns; _ } -> [ nd; ng; ns ]

(* Overflow-safe exponential: linear continuation above [exp_cap] keeps
   the Newton iteration finite for wild intermediate voltages. A
   junction takes [e = capped_exp x] once and derives both its current
   term [continued_exp x e] and its slope term [e] from it. *)
let exp_cap = 40.0

let[@inline] capped_exp x = exp (if x > exp_cap then exp_cap else x)

let[@inline] continued_exp x e =
  if x > exp_cap then e *. (1.0 +. (x -. exp_cap)) else e

let diode_iv { is; n; vt } v =
  let nvt = n *. vt in
  let x = v /. nvt in
  let e = capped_exp x in
  let i = is *. (continued_exp x e -. 1.0) in
  let g = is *. e /. nvt in
  (i, g)

let tunnel_iv { is; eta; vth; r0; v0; m } v =
  (* i_tunnel = (v/R0) exp(-(v/V0)^m); define |v/V0|^m with sign care so the
     curve stays odd-symmetric-ish below zero (paper uses v >= 0 region) *)
  let ratio = v /. v0 in
  let powm = Float.pow (Float.abs ratio) m in
  let e = exp (-.powm) in
  let i_tun = v /. r0 *. e in
  (* d/dv [v e^{-(v/V0)^m}] / R0 = e^{-p} (1 - m p) / R0 with p = (|v|/V0)^m *)
  let g_tun = e /. r0 *. (1.0 -. (m *. powm)) in
  let i_d, g_d = diode_iv { is; n = eta; vt = vth } v in
  (i_tun +. i_d, g_tun +. g_d)

(* Ebers-Moll currents from the continued junction exponentials *)
let[@inline] em_currents { is; beta_f; beta_r; _ } ef er =
  let icc = is *. (ef -. er) in
  let ibe = is /. beta_f *. (ef -. 1.0) in
  let ibc = is /. beta_r *. (er -. 1.0) in
  (icc -. ibc, ibe +. ibc)

let bjt_currents p ~vbe ~vbc =
  let xf = vbe /. p.vt and xr = vbc /. p.vt in
  em_currents p (continued_exp xf (capped_exp xf)) (continued_exp xr (capped_exp xr))

type mos_linearization = { id : float; gm : float; gds : float }

(* level-1 square law with drain/source symmetry for vds < 0 *)
let mos_iv_forward { kp; vth; lambda } ~vgs ~vds =
  let vov = vgs -. vth in
  if vov <= 0.0 then { id = 0.0; gm = 0.0; gds = 0.0 }
  else if vds < vov then begin
    (* triode *)
    let clm = 1.0 +. (lambda *. vds) in
    let core = (vov *. vds) -. (0.5 *. vds *. vds) in
    {
      id = kp *. core *. clm;
      gm = kp *. vds *. clm;
      gds = (kp *. (vov -. vds) *. clm) +. (kp *. core *. lambda);
    }
  end
  else begin
    (* saturation *)
    let clm = 1.0 +. (lambda *. vds) in
    let core = 0.5 *. vov *. vov in
    {
      id = kp *. core *. clm;
      gm = kp *. vov *. clm;
      gds = kp *. core *. lambda;
    }
  end

let mos_iv p ~vgs ~vds =
  if vds >= 0.0 then mos_iv_forward p ~vgs ~vds
  else begin
    (* swap drain and source: vgs' = vgd = vgs - vds, vds' = -vds *)
    let lin = mos_iv_forward p ~vgs:(vgs -. vds) ~vds:(-.vds) in
    (* id' flows source->drain; chain rule for the swapped variables *)
    { id = -.lin.id; gm = -.lin.gm; gds = lin.gds +. lin.gm }
  end

type bjt_linearization = {
  ic : float;
  ib : float;
  dic_dvbe : float;
  dic_dvbc : float;
  dib_dvbe : float;
  dib_dvbc : float;
}

let bjt_iv ({ is; beta_f; beta_r; vt } as p) ~vbe ~vbc =
  let xf = vbe /. vt and xr = vbc /. vt in
  let eff = capped_exp xf and err = capped_exp xr in
  let ic, ib = em_currents p (continued_exp xf eff) (continued_exp xr err) in
  let def = eff /. vt in
  let der = err /. vt in
  {
    ic;
    ib;
    dic_dvbe = is *. def;
    dic_dvbc = (-.is *. der) -. (is /. beta_r *. der);
    dib_dvbe = is /. beta_f *. def;
    dib_dvbc = is /. beta_r *. der;
  }
