(** Tunnel-diode LC oscillator (paper §IV-B, Fig. 16a).

    The diode is biased at 0.25 V — the middle of its negative-resistance
    region — through the tank inductor; the tank ([R], [L], [C] from node
    ["t"] to ground) resonates near 0.5033 GHz. Injection is a series
    voltage source between the tank node and the diode. The oscillation
    is [v("t") - 0.25]. *)

type params = {
  vbias : float;
  tunnel : Spice.Device.tunnel_params;
  r : float;
  l : float;
  c : float;
  kick : float;
}

val default : params
(** Calibrated like {!Diff_pair.default}: natural amplitude 0.199 V,
    centre 0.5033 GHz, and the paper's 3rd-SHIL lock range
    [~5.109 MHz] at [|V_i| = 0.03 V]. *)

(* dsa: allow unused-export — test hook: the bit-identity test maps non-paper device parameters *)
val model : Spice.Device.tunnel_params -> Shil.Nonlinearity.tunnel_model
(** The device parameters as {!Shil.Nonlinearity}'s tunnel model. *)

val nonlinearity : params -> Shil.Nonlinearity.t
(** The bias-shifted analytic model of the appendix, [p.tunnel]
    converted with {!model}: fused batch loop and a cache key. *)

val nonlinearity_of_fv : params -> float array * float array -> Shil.Nonlinearity.t
(** Same curve but obtained from an {!extraction_fv} DC sweep on the MNA
    simulator (the paper's Fig. 16b route) — tabulated + PCHIP, shifted
    to the bias point [p.vbias]. *)

val extraction_fv : ?v_span:float -> ?steps:int -> params -> float array * float array
(** Raw unshifted [i = f(v)] table of the diode (Fig. 16b). *)

val tank : params -> Shil.Tank.t
val oscillator : params -> Shil.Analysis.oscillator

val circuit :
  ?injection:Shil.Simulate.injection -> ?extra:Spice.Device.t list -> params ->
  Spice.Circuit.t
(** Probe the oscillation on node ["t"] (DC offset [vbias]). *)

val osc_probe : Spice.Transient.probe
