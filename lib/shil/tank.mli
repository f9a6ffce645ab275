(** Parallel RLC tank: the linear filter of the oscillator loop.

    Transfer impedance (current in, voltage out):
    [H(jw) = R / (1 + j Q (w/wc - wc/w))] with [wc = 1/sqrt(LC)] and
    [Q = R sqrt(C/L)]. Phase [phi_d(w) = -atan (Q (w/wc - wc/w))] is
    positive below resonance, zero at [wc], negative above — Fig. 6. *)

type t = private { r : float; l : float; c : float }

val make : r:float -> l:float -> c:float -> t
(** All values must be positive; raises [Invalid_argument] otherwise. *)

val omega_c : t -> float
val f_c : t -> float
val q : t -> float

(* dsa: allow unused-export — test hook: the tests check the transfer function against the RLC admittance *)
val h : t -> omega:float -> Numerics.Cx.t
val mag : t -> omega:float -> float
val phase : t -> omega:float -> float
(** [phi_d] in radians, in (-pi/2, pi/2). *)

val omega_of_phase : t -> phi_d:float -> float
(** Inverse of {!phase}: the unique positive frequency at which the tank
    contributes [phi_d]. Requires [|phi_d| < pi/2] (raises
    [Invalid_argument]). *)

val pp : Format.formatter -> t -> unit
