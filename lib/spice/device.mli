(** Circuit devices and their model equations.

    Nodes are referred to by string names at this level; the engine maps
    them to indices. Node ["0"] (alias ["gnd"]) is ground. *)

type diode_params = {
  is : float;  (** saturation current, A *)
  n : float;  (** ideality factor *)
  vt : float;  (** thermal voltage, V *)
}

val default_diode : diode_params
(** [Is = 1e-14 A, n = 1, Vt = 0.025 V]. *)

type bjt_params = {
  is : float;  (** transport saturation current, A *)
  beta_f : float;  (** forward beta *)
  beta_r : float;  (** reverse beta *)
  vt : float;  (** thermal voltage, V *)
}

val default_npn : bjt_params
(** The NGSPICE default NPN used by the paper: [Is = 1e-12 A] (paper's
    value), [beta_f = 100], [beta_r = 1], [Vt = 0.025 V]. *)

type tunnel_params = {
  is : float;  (** p-n saturation current, A *)
  eta : float;  (** diode ideality *)
  vth : float;  (** thermal voltage, V *)
  r0 : float;  (** ohmic-region resistance, Ohm *)
  v0 : float;  (** tunnel voltage scale, V *)
  m : float;  (** tunnel exponent *)
}

val paper_tunnel : tunnel_params
(** The appendix §VI-C model: [Is = 1e-12, eta = 1, Vth = 0.025,
    R0 = 1000, V0 = 0.2, m = 2]. *)

type mos_params = {
  kp : float;  (** transconductance parameter [kp * W/L], A/V^2 *)
  vth : float;  (** threshold voltage, V (positive for NMOS) *)
  lambda : float;  (** channel-length modulation, 1/V *)
}

val default_nmos : mos_params
(** [kp = 200 uA/V^2 (W/L folded in), vth = 0.5 V, lambda = 0.02]. *)

type t =
  | Resistor of { name : string; n1 : string; n2 : string; r : float }
  | Capacitor of { name : string; n1 : string; n2 : string; c : float; ic : float option }
      (** [ic] is the initial voltage [v(n1) - v(n2)] for transient. *)
  | Inductor of { name : string; n1 : string; n2 : string; l : float; ic : float option }
      (** [ic] is the initial current flowing [n1 -> n2]. *)
  | Vsource of { name : string; np : string; nn : string; wave : Wave.t }
  | Isource of { name : string; np : string; nn : string; wave : Wave.t }
      (** Current flows [np -> nn] through the source (out of [nn]'s node
          into [np]'s node externally — SPICE convention: positive current
          is pulled out of [np] and pushed into [nn]). *)
  | Diode of { name : string; np : string; nn : string; p : diode_params }
  | Bjt of { name : string; nc : string; nb : string; ne : string; p : bjt_params }
      (** NPN Ebers–Moll transistor (collector, base, emitter). *)
  | Tunnel_diode of { name : string; np : string; nn : string; p : tunnel_params }
  | Mosfet of { name : string; nd : string; ng : string; ns : string; p : mos_params }
      (** Level-1 NMOS (drain, gate, source; bulk tied to source). For a
          PMOS, swap polarities externally (negate [kp] is NOT supported;
          build the complementary circuit instead). *)
  | Nonlinear_cs of {
      name : string;
      np : string;
      nn : string;
      f : float -> float;
      df : (float -> float) option;
    }
      (** Behavioural current source: [i(np -> nn) = f (v np - v nn)];
          the derivative is computed by central differences when [df] is
          not supplied. *)

val name : t -> string
val nodes : t -> string list

val diode_iv : diode_params -> float -> float * float
(** [(i, di/dv)] with overflow-safe exponential (linear continuation above
    [40 n Vt]). *)

val tunnel_iv : tunnel_params -> float -> float * float
(** Tunnel-diode current and slope, eqs. (11)–(13) of the paper. *)

(* dsa: allow unused-export — test reference implementation: the Ebers-Moll currents bjt_iv is checked against *)
val bjt_currents : bjt_params -> vbe:float -> vbc:float -> float * float
(** [(ic, ib)] of the Ebers–Moll model (ie = -(ic+ib)). *)

type bjt_linearization = {
  ic : float;
  ib : float;
  dic_dvbe : float;
  dic_dvbc : float;
  dib_dvbe : float;
  dib_dvbc : float;
}

val bjt_iv : bjt_params -> vbe:float -> vbc:float -> bjt_linearization
(** Currents and the four junction-voltage partials, for MNA stamping. *)

type mos_linearization = {
  id : float;  (** drain current (into the drain), A *)
  gm : float;  (** d id / d vgs *)
  gds : float;  (** d id / d vds *)
}

val mos_iv : mos_params -> vgs:float -> vds:float -> mos_linearization
(** Square-law level-1 model: cutoff / triode / saturation, with
    drain-source symmetry for [vds < 0] (the device conducts both
    ways). C1-continuous across the region boundaries. *)
