type params = {
  vcc : float;
  iee : float;
  bjt : Spice.Device.bjt_params;
  r : float;
  l : float;
  c : float;
  kick : float;
}

(* Calibration (see Calibrate and DESIGN.md §3): with IEE = 1 mA and the
   default NPN, R below makes the predicted natural amplitude the paper's
   0.505 V; Q is then chosen so the predicted 3rd-SHIL lock range at
   |Vi| = 0.03 V is the paper's 0.01767 MHz around the paper's 0.5033 MHz
   centre (phi_d_max = 0.30593 — compare the paper's Fig. 10 boundary of
   0.295). Re-derive with Calibrate.fit_tank. *)
let fc_paper = 1.0 /. (2.0 *. Float.pi *. sqrt (100e-6 *. 1e-9)) (* 503.292 kHz *)

let default =
  let r = 1222.7472 in
  let q = 26.988525 in
  let z0 = r /. q in
  let wc = 2.0 *. Float.pi *. fc_paper in
  {
    vcc = 5.0;
    iee = 1e-3;
    bjt = Spice.Device.default_npn;
    r;
    l = z0 /. wc;
    c = 1.0 /. (z0 *. wc);
    kick = 5e-5;
  }

let pair_devices p =
  [
    Spice.Device.Bjt { name = "QL"; nc = "ncl"; nb = "ncr"; ne = "e"; p = p.bjt };
    Spice.Device.Bjt { name = "QR"; nc = "ncr"; nb = "ncl"; ne = "e"; p = p.bjt };
    Spice.Device.Isource { name = "IEE"; np = "e"; nn = "0"; wave = Spice.Wave.Dc p.iee };
  ]

let core_devices p =
  Spice.Device.Vsource
    { name = "VCC"; np = "vcc"; nn = "0"; wave = Spice.Wave.Dc p.vcc }
  :: pair_devices p

let extraction_fv ?(v_span = 0.85) ?(steps = 240) p =
  Parts.differential_fv ~pair:(pair_devices p) ~supply:p.vcc ~left:"ncl"
    ~right:"ncr" ~v_span ~steps

let nonlinearity_of_fv (vs, is) =
  Shil.Nonlinearity.of_table ~name:"diff_pair" ~vs ~is ()

let nonlinearity p = nonlinearity_of_fv (extraction_fv p)

let tank p = Shil.Tank.make ~r:p.r ~l:p.l ~c:p.c

let oscillator p : Shil.Analysis.oscillator =
  { nl = nonlinearity p; tank = tank p }

let circuit ?injection ?(extra = []) p =
  let fc = Shil.Tank.f_c (tank p) in
  let devices =
    core_devices p
    @ [
        (* tank: two L/2 halves centre-tapped at VCC; R and C across *)
        Spice.Device.Inductor
          { name = "LL"; n1 = "vcc"; n2 = "tl"; l = p.l /. 2.0; ic = None };
        Spice.Device.Inductor
          { name = "LR"; n1 = "vcc"; n2 = "ncr"; l = p.l /. 2.0; ic = None };
        Spice.Device.Capacitor
          { name = "CT"; n1 = "tl"; n2 = "ncr"; c = p.c; ic = None };
        Spice.Device.Resistor { name = "RT"; n1 = "tl"; n2 = "ncr"; r = p.r };
        (* series injection: v(ncl) = v(tl) + v_inj -- Fig. 8a *)
        Spice.Device.Vsource
          { name = "VINJ"; np = "ncl"; nn = "tl"; wave = Parts.series_injection injection };
        (* start-up kick *)
        Spice.Device.Isource
          { name = "IKICK"; np = "ncr"; nn = "tl"; wave = Parts.kick ~fc p.kick };
      ]
    @ extra
  in
  Spice.Circuit.of_devices devices

let osc_probe = Spice.Transient.Diff ("ncl", "ncr")
