let steps_per_cycle = 600
let kick = 1e-5
let probe = Spice.Transient.Node "t"

(* i_inj(t) = Im cos(2 pi f_inj t): a sine with a +pi/2 phase *)
let injection_wave ~tank ~n ~vi ~f_inj =
  let im =
    Shil.Simulate.injection_current ~tank
      { Shil.Simulate.vi; n; f_inj; phase = 0.0 }
  in
  Spice.Wave.Sine
    {
      offset = 0.0;
      ampl = im;
      freq = f_inj;
      phase = Float.pi /. 2.0;
      delay = 0.0;
    }

let circuit ?injection ?kick (osc : Shil.Analysis.oscillator) =
  let t = (osc.tank : Shil.Tank.t) in
  let fc = Shil.Tank.f_c t in
  let base =
    [
      Spice.Device.Resistor { name = "Rtank"; n1 = "t"; n2 = "0"; r = t.r };
      Spice.Device.Inductor
        { name = "Ltank"; n1 = "t"; n2 = "0"; l = t.l; ic = None };
      Spice.Device.Capacitor
        { name = "Ctank"; n1 = "t"; n2 = "0"; c = t.c; ic = None };
      Spice.Device.Nonlinear_cs
        {
          name = "Gosc";
          np = "t";
          nn = "0";
          f = Shil.Nonlinearity.eval osc.nl;
          df = Some (Shil.Nonlinearity.deriv osc.nl);
        };
    ]
  in
  let kick =
    match kick with
    | None -> []
    | Some v2 ->
      [ Spice.Device.Isource { name = "Ikick"; np = "0"; nn = "t"; wave = Parts.kick ~fc v2 } ]
  in
  let inj =
    match injection with
    | None -> []
    | Some wave ->
      [ Spice.Device.Isource { name = "Iinj"; np = "0"; nn = "t"; wave } ]
  in
  Spice.Circuit.of_devices (base @ kick @ inj)

let injected ~n ~vi (osc : Shil.Analysis.oscillator) ~f_inj =
  circuit ~injection:(injection_wave ~tank:osc.tank ~n ~vi ~f_inj) ~kick osc
