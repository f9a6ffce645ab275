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
  (* the extraction rig pins both drains, so the supply rail would
     dangle: build from the bare pair, without VDD *)
  let build v =
    Spice.Circuit.of_devices
      (pair_devices p
      @ [
          Spice.Device.Vsource
            { name = "VP"; np = "ndl"; nn = "0"; wave = Spice.Wave.Dc (p.vdd +. (v /. 2.0)) };
          Spice.Device.Vsource
            { name = "VM"; np = "ndr"; nn = "0"; wave = Spice.Wave.Dc (p.vdd -. (v /. 2.0)) };
        ])
  in
  let vs = Numerics.Kernel.linspace (-.v_span) v_span (steps + 1) in
  let is = Array.make (steps + 1) 0.0 in
  (* every bias point solves the same topology: pre-flight it once *)
  Spice.Preflight.gate (build 0.0);
  let measure ~x0 v =
    let op = Spice.Op.run ~check:`Off ?x0 (build v) in
    let i_l = -.Spice.Op.current op "VP" in
    let i_r = -.Spice.Op.current op "VM" in
    (0.5 *. (i_l -. i_r), op.Spice.Op.x)
  in
  let mid = steps / 2 in
  let i0, x_mid = measure ~x0:None vs.(mid) in
  is.(mid) <- i0;
  let prev = ref (Some x_mid) in
  for k = mid + 1 to steps do
    let i, x = measure ~x0:!prev vs.(k) in
    is.(k) <- i;
    prev := Some x
  done;
  prev := Some x_mid;
  for k = mid - 1 downto 0 do
    let i, x = measure ~x0:!prev vs.(k) in
    is.(k) <- i;
    prev := Some x
  done;
  (vs, is)

let nonlinearity p =
  let vs, is = extraction_fv p in
  Shil.Nonlinearity.of_table ~name:"cmos_pair" ~vs ~is ()

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
    (core_devices p
    @ [
        Spice.Device.Inductor
          { name = "LL"; n1 = "vdd"; n2 = "tl"; l = p.l /. 2.0; ic = None };
        Spice.Device.Inductor
          { name = "LR"; n1 = "vdd"; n2 = "ndr"; l = p.l /. 2.0; ic = None };
        Spice.Device.Capacitor
          { name = "CT"; n1 = "tl"; n2 = "ndr"; c = p.c; ic = None };
        Spice.Device.Resistor { name = "RT"; n1 = "tl"; n2 = "ndr"; r = p.r };
        Spice.Device.Vsource { name = "VINJ"; np = "ndl"; nn = "tl"; wave = inj_wave };
        Spice.Device.Isource
          {
            name = "IKICK";
            np = "ndr";
            nn = "tl";
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

let osc_probe = Spice.Transient.Diff ("ndl", "ndr")
