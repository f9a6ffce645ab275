type params = {
  vbias : float;
  tunnel : Spice.Device.tunnel_params;
  r : float;
  l : float;
  c : float;
  kick : float;
}

let fc_paper = 1.0 /. (2.0 *. Float.pi *. sqrt (100e-9 *. 1e-12)) (* 503.292 MHz *)

(* Calibrated via Calibrate.fit_tank (see DESIGN.md §3): R gives the
   paper's natural amplitude 0.199 V; Q gives the paper's 3rd-SHIL lock
   range 5.109 MHz at |Vi| = 0.03 V (phi_d_max = 0.81967). *)
let default =
  let r = 10011.218 in
  let q = 316.51701 in
  let z0 = r /. q in
  let wc = 2.0 *. Float.pi *. fc_paper in
  {
    vbias = 0.25;
    tunnel = Spice.Device.paper_tunnel;
    r;
    l = z0 /. wc;
    c = 1.0 /. (z0 *. wc);
    kick = 20e-6;
  }

(* the simulator's device record, field for field, as the theory
   library's model: Shil does not depend on Spice *)
let model ({ is; eta; vth; r0; v0; m } : Spice.Device.tunnel_params) :
    Shil.Nonlinearity.tunnel_model =
  { is; eta; vth; r0; v0; m }

let nonlinearity p =
  Shil.Nonlinearity.tunnel_diode ~model:(model p.tunnel) ~bias:p.vbias ()

let extraction_fv ?(v_span = 0.6) ?(steps = 240) p =
  let circuit v =
    Spice.Circuit.of_devices
      [
        Spice.Device.Vsource { name = "VX"; np = "a"; nn = "0"; wave = Spice.Wave.Dc v };
        Spice.Device.Tunnel_diode { name = "TD"; np = "a"; nn = "0"; p = p.tunnel };
      ]
  in
  let vs = Numerics.Kernel.linspace (-0.1) v_span (steps + 1) in
  let is =
    Array.map
      (fun v ->
        let op = Spice.Op.run (circuit v) in
        -.Spice.Op.current op "VX")
      vs
  in
  (vs, is)

let nonlinearity_of_fv p (vs, is) =
  let table = Shil.Nonlinearity.of_table ~name:"tunnel_table" ~vs ~is () in
  Shil.Nonlinearity.shift_bias table p.vbias

let tank p = Shil.Tank.make ~r:p.r ~l:p.l ~c:p.c

let oscillator p : Shil.Analysis.oscillator =
  { nl = nonlinearity p; tank = tank p }

type injection = { vi : float; n : int; f_inj : float; phase : float }

let circuit ?injection ?(extra = []) p =
  let inj_wave =
    match injection with
    | None -> Spice.Wave.Dc 0.0
    | Some inj ->
      Spice.Wave.Sine
        {
          offset = 0.0;
          ampl = 2.0 *. inj.vi;
          freq = inj.f_inj;
          phase = inj.phase +. (Float.pi /. 2.0);
          delay = 0.0;
        }
  in
  let fc = Shil.Tank.f_c (tank p) in
  Spice.Circuit.of_devices
    ([
       Spice.Device.Vsource
         { name = "VB"; np = "b"; nn = "0"; wave = Spice.Wave.Dc p.vbias };
       Spice.Device.Inductor { name = "LT"; n1 = "b"; n2 = "t"; l = p.l; ic = None };
       Spice.Device.Capacitor { name = "CT"; n1 = "t"; n2 = "0"; c = p.c; ic = None };
       Spice.Device.Resistor { name = "RT"; n1 = "t"; n2 = "0"; r = p.r };
       (* series injection between tank node and diode anode *)
       Spice.Device.Vsource { name = "VINJ"; np = "d"; nn = "t"; wave = inj_wave };
       Spice.Device.Tunnel_diode { name = "TD"; np = "d"; nn = "0"; p = p.tunnel };
       Spice.Device.Isource
         {
           name = "IKICK";
           np = "0";
           nn = "t";
           wave =
             Spice.Wave.Pulse
               {
                 v1 = 0.0;
                 v2 = p.kick;
                 delay = 0.0;
                 rise = 0.05 /. fc;
                 fall = 0.05 /. fc;
                 width = 0.25 /. fc;
                 period = 0.0;
               };
         };
     ]
    @ extra)

let osc_probe = Spice.Transient.Node "t"
