(** Cross-coupled NMOS LC oscillator — the modern RFIC VCO cell the
    paper's introduction motivates (§I: "virtually all such applications
    use LC oscillator topologies"). Beyond the paper's two examples; same
    analysis flow: DC-sweep extraction of the one-port [i = f(v)], then
    the graphical SHIL machinery.

    Topology mirrors {!Diff_pair} with MOSFETs: gates cross-coupled to
    the opposite drains, sources to a tail current sink, tank across the
    drains as two [L/2] halves centre-tapped at VDD. *)

type params = {
  vdd : float;
  itail : float;
  mos : Spice.Device.mos_params;
  r : float;
  l : float;
  c : float;
  kick : float;
}

val default : params
(** 2.4 GHz tank (a Bluetooth/WiFi-band VCO), [Z0 = 50 Ohm], [Q = 30],
    2 mA tail, [kp = 2 mA/V^2], [vth = 0.5 V]: small-signal loop gain
    1.5. *)

(* dsa: allow unused-export — test hook: the tests check the extracted device curve *)
val extraction_fv : ?v_span:float -> ?steps:int -> params -> float array * float array
(** Differential one-port current across the drain pair (same convention
    as {!Diff_pair.extraction_fv}). *)

(* dsa: allow unused-export — test hook: the tests pair the tank with a table nonlinearity *)
val tank : params -> Shil.Tank.t
val oscillator : params -> Shil.Analysis.oscillator

val circuit :
  ?injection:Shil.Simulate.injection -> ?extra:Spice.Device.t list -> params ->
  Spice.Circuit.t

val osc_probe : Spice.Transient.probe
