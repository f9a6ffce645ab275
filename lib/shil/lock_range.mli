(** Lock-range prediction (§III-C, Fig. 10): the largest tank phase
    [|phi_d|] at which a stable lock survives, mapped to frequency through
    the tank and multiplied by [n] to give the injection-referred range. *)

type t = {
  phi_d_max : float;  (** boundary tank phase, rad (> 0) *)
  f_osc_low : float;  (** oscillator-referred lower lock edge, Hz *)
  f_osc_high : float;
  f_inj_low : float;  (** injection-referred edges ([n] x oscillator), Hz *)
  f_inj_high : float;
  delta_f_inj : float;  (** injection-referred lock range, Hz *)
  at_center : Solutions.point list;  (** lock points at [phi_d = 0] *)
  failures : Resilience.Summary.t;
      (** typed holes: failed stability probes (counted as unstable, so
          the range only shrinks) merged with the grid's failed rows *)
}

val phi_d_boundary :
  ?points:int -> ?phi_d_cap:float -> ?tol:float -> Grid.t -> float
(** Bisection on [phi_d in [0, phi_d_cap]] (default cap 1.4 rad, tol 1e-5)
    for the largest phase with a stable lock, reusing one
    describing-function grid for the whole sweep (the [C_{T_f,1}]
    invariance trick). Returns 0. when even [phi_d = 0] has no stable
    lock. By §VI-B3 the boundary is symmetric in [+-phi_d]. *)

val cache_key :
  Grid.t -> nl_key:string -> tank:Tank.t -> points:int -> phi_d_cap:float ->
  tol:float -> Cache.Key.t
(** The content address of one {!predict} (exposed for tests and
    tooling): kind [shil.lockrange], every {!Grid.key_fields} field plus
    the tank's [r]/[l]/[c], the refinement [points], [phi_d_cap] and
    [tol]; versioned like {!Grid.cache_key} ([`Exact] v1, [`Symmetry]
    v2 with [red=sym]). *)

val predict :
  ?points:int -> ?phi_d_cap:float -> ?tol:float -> Grid.t -> tank:Tank.t -> t
(** Full prediction. The grid's [r] must equal [tank.r] (raises
    [Invalid_argument] otherwise). The oscillator
    locks on [f_c / p .. f_c * p] style band: edges are
    [omega_of_phase (+-phi_d_max)] (positive [phi_d] = below resonance).

    A stability probe that raises becomes a typed hole in [failures]
    (counter [resilience.lockrange.holes]) and is treated as unstable
    instead of aborting, unless {!Resilience.Policy.set_fail_fast} is
    on. Fault site [lock-probe] injects probe failures for testing.

    The lock points at [phi_d = 0] are found once: the first boundary
    probe and [at_center] share them.

    With [Cache.Store] on, a clean grid and a nonlinearity with a
    canonical identity, the prediction is cached under {!cache_key}. A
    prediction with holes is never stored, a holed grid never looks one
    up, and an armed {!Resilience.Fault} plan bypasses the entry both
    ways (a faulted refine can drop a lock point without a hole), so a
    hit is bit-identical to a cold clean run. *)

val pp : Format.formatter -> t -> unit
