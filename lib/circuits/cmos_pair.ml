type params = {
  vdd : float;
  itail : float;
  mos : Spice.Device.mos_params;
  r : float;
  l : float;
  c : float;
  kick : float;
}

let default =
  let fc = 2.4e9 in
  let wc = 2.0 *. Float.pi *. fc in
  let r = 1500.0 in
  let q = 30.0 in
  let z0 = r /. q in
  {
    vdd = 1.2;
    itail = 2e-3;
    mos = { Spice.Device.kp = 2e-3; vth = 0.5; lambda = 0.02 };
    r;
    l = z0 /. wc;
    c = 1.0 /. (z0 *. wc);
    kick = 1e-4;
  }

let pair_devices p =
  [
    Spice.Device.Mosfet { name = "ML"; nd = "ndl"; ng = "ndr"; ns = "s"; p = p.mos };
    Spice.Device.Mosfet { name = "MR"; nd = "ndr"; ng = "ndl"; ns = "s"; p = p.mos };
    Spice.Device.Isource { name = "ITAIL"; np = "s"; nn = "0"; wave = Spice.Wave.Dc p.itail };
  ]

let core_devices p =
  Spice.Device.Vsource
    { name = "VDD"; np = "vdd"; nn = "0"; wave = Spice.Wave.Dc p.vdd }
  :: pair_devices p

let extraction_fv ?(v_span = 2.6) ?(steps = 240) p =
  Parts.differential_fv ~pair:(pair_devices p) ~supply:p.vdd ~left:"ndl"
    ~right:"ndr" ~v_span ~steps

let nonlinearity p =
  let vs, is = extraction_fv p in
  Shil.Nonlinearity.of_table ~name:"cmos_pair" ~vs ~is ()

let tank p = Shil.Tank.make ~r:p.r ~l:p.l ~c:p.c

let oscillator p : Shil.Analysis.oscillator =
  { nl = nonlinearity p; tank = tank p }

let circuit ?injection ?(extra = []) p =
  let fc = Shil.Tank.f_c (tank p) in
  Spice.Circuit.of_devices
    (core_devices p
    @ [
        Spice.Device.Inductor
          { name = "LL"; n1 = "vdd"; n2 = "tl"; l = p.l /. 2.0; ic = None };
        Spice.Device.Inductor
          { name = "LR"; n1 = "vdd"; n2 = "ndr"; l = p.l /. 2.0; ic = None };
        Spice.Device.Capacitor
          { name = "CT"; n1 = "tl"; n2 = "ndr"; c = p.c; ic = None };
        Spice.Device.Resistor { name = "RT"; n1 = "tl"; n2 = "ndr"; r = p.r };
        Spice.Device.Vsource { name = "VINJ"; np = "ndl"; nn = "tl"; wave = Parts.series_injection injection };
        Spice.Device.Isource
          { name = "IKICK"; np = "ndr"; nn = "tl"; wave = Parts.kick ~fc p.kick };
      ]
    @ extra)

let osc_probe = Spice.Transient.Diff ("ndl", "ndr")
