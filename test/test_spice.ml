(* Unit, integration and property tests for the MNA circuit simulator. *)

open Spice

let check_float ?(eps = 1e-9) msg expected got =
  Alcotest.(check (float eps)) msg expected got

let qtest ?(count = 200) name gen prop = Qseed.qtest ~count name gen prop

(* ------------------------------------------------------------------ *)
(* Wave *)

let test_wave_dc () =
  check_float "dc" 3.0 (Wave.value (Wave.Dc 3.0) 12.0);
  check_float "dc_value" 3.0 (Wave.dc_value (Wave.Dc 3.0))

let test_wave_sine () =
  let w = Wave.Sine { offset = 1.0; ampl = 2.0; freq = 10.0; phase = 0.0; delay = 0.0 } in
  check_float "sine t=0" 1.0 (Wave.value w 0.0);
  check_float ~eps:1e-9 "sine quarter" 3.0 (Wave.value w 0.025);
  check_float "sine dc" 1.0 (Wave.dc_value w)

let test_wave_sine_delay () =
  let w = Wave.Sine { offset = 0.0; ampl = 1.0; freq = 1.0; phase = 0.0; delay = 2.0 } in
  check_float "before delay" 0.0 (Wave.value w 1.0);
  check_float ~eps:1e-9 "after delay" (sin (2.0 *. Float.pi *. 0.25)) (Wave.value w 2.25)

let test_wave_pulse () =
  let w =
    Wave.Pulse
      { v1 = 0.0; v2 = 5.0; delay = 1.0; rise = 1.0; fall = 1.0; width = 2.0; period = 0.0 }
  in
  check_float "before" 0.0 (Wave.value w 0.5);
  check_float "mid rise" 2.5 (Wave.value w 1.5);
  check_float "top" 5.0 (Wave.value w 3.0);
  check_float "mid fall" 2.5 (Wave.value w 4.5);
  check_float "after" 0.0 (Wave.value w 6.0)

let test_wave_pulse_periodic () =
  let w =
    Wave.Pulse
      { v1 = 0.0; v2 = 1.0; delay = 0.0; rise = 0.0; fall = 0.0; width = 1.0; period = 2.0 }
  in
  check_float "first high" 1.0 (Wave.value w 0.5);
  check_float "first low" 0.0 (Wave.value w 1.5);
  check_float "second high" 1.0 (Wave.value w 2.5)

let test_wave_pwl () =
  let w = Wave.Pwl [ (0.0, 0.0); (1.0, 2.0); (3.0, 2.0); (4.0, 0.0) ] in
  check_float "pwl interp" 1.0 (Wave.value w 0.5);
  check_float "pwl plateau" 2.0 (Wave.value w 2.0);
  check_float "pwl end" 0.0 (Wave.value w 10.0);
  check_float "pwl before" 0.0 (Wave.value w (-1.0))

(* ------------------------------------------------------------------ *)
(* Device models *)

let test_diode_iv () =
  let p = Device.default_diode in
  let i0, g0 = Device.diode_iv p 0.0 in
  check_float "diode i(0)" 0.0 i0;
  check_float ~eps:1e-16 "diode g(0)" (p.is /. (p.n *. p.vt)) g0;
  let i, _ = Device.diode_iv p 0.6 in
  check_float ~eps:1e-10 "diode i(0.6)" (p.is *. (exp (0.6 /. 0.025) -. 1.0)) i

let prop_diode_g_is_derivative =
  qtest ~count:100 "diode: g = di/dv"
    QCheck.(float_range (-0.5) 0.8)
    (fun v ->
      let p = Device.default_diode in
      let _, g = Device.diode_iv p v in
      let h = 1e-7 in
      let ip, _ = Device.diode_iv p (v +. h) in
      let im, _ = Device.diode_iv p (v -. h) in
      let fd = (ip -. im) /. (2.0 *. h) in
      Float.abs (g -. fd) <= 1e-4 *. (Float.abs fd +. 1e-12))

let test_tunnel_iv_peak () =
  let p = Device.paper_tunnel in
  let v_peak = p.v0 /. sqrt 2.0 in
  let _, g = Device.tunnel_iv p v_peak in
  Alcotest.(check bool) "slope tiny at peak" true (Float.abs g < 1e-4);
  let _, g_neg = Device.tunnel_iv p 0.25 in
  Alcotest.(check bool) "negative resistance at 0.25" true (g_neg < 0.0)

let test_tunnel_matches_paper_formula () =
  let p = Device.paper_tunnel in
  let v = 0.31 in
  let i, _ = Device.tunnel_iv p v in
  let i_tunnel = v /. p.r0 *. exp (-.((v /. p.v0) ** p.m)) in
  let i_diode = p.is *. (exp (v /. (p.eta *. p.vth)) -. 1.0) in
  check_float ~eps:1e-12 "paper eq 11-13" (i_tunnel +. i_diode) i

let prop_bjt_iv_consistent =
  qtest ~count:200 "bjt: bjt_iv agrees with bjt_currents"
    QCheck.(pair (float_range (-0.8) 0.8) (float_range (-0.8) 0.8))
    (fun (vbe, vbc) ->
      let ic, ib = Device.bjt_currents Device.default_npn ~vbe ~vbc in
      let lin = Device.bjt_iv Device.default_npn ~vbe ~vbc in
      Float.abs (lin.ic -. ic) < 1e-15 +. (1e-12 *. Float.abs ic)
      && Float.abs (lin.ib -. ib) < 1e-15 +. (1e-12 *. Float.abs ib))

let prop_bjt_partials =
  qtest ~count:100 "bjt: analytic partials match finite differences"
    QCheck.(pair (float_range (-0.5) 0.7) (float_range (-0.5) 0.7))
    (fun (vbe, vbc) ->
      let p = Device.default_npn in
      let lin = Device.bjt_iv p ~vbe ~vbc in
      let ic0, _ = Device.bjt_currents p ~vbe ~vbc in
      let h = 1e-6 in
      let icp, _ = Device.bjt_currents p ~vbe:(vbe +. h) ~vbc in
      let icm, _ = Device.bjt_currents p ~vbe:(vbe -. h) ~vbc in
      let fd = (icp -. icm) /. (2.0 *. h) in
      (* the FD uncertainty is ~ eps |ic| / h: account for cancellation *)
      let tol = (1e-3 *. Float.abs fd) +. (1e-8 *. Float.abs ic0 /. h) +. 1e-15 in
      Float.abs (lin.dic_dvbe -. fd) <= tol)

let test_bjt_active_region () =
  let p = Device.default_npn in
  let ic, ib = Device.bjt_currents p ~vbe:0.65 ~vbc:(-2.0) in
  check_float ~eps:0.01 "beta" p.beta_f (ic /. ib)

(* The junction formulas as they were written before each exponential
   was evaluated once: [safe_exp] and [safe_exp_deriv] each called
   [exp] on the same argument. The models must reproduce them bit for
   bit, below and above the 40 Vt continuation cap. *)
module Two_exp = struct
  let safe_exp x =
    let cap = 40.0 in
    if x > cap then exp cap *. (1.0 +. (x -. cap)) else exp x

  let safe_exp_deriv x =
    let cap = 40.0 in
    if x > cap then exp cap else exp x

  let diode_iv ({ is; n; vt } : Device.diode_params) v =
    let nvt = n *. vt in
    let x = v /. nvt in
    (is *. (safe_exp x -. 1.0), is *. safe_exp_deriv x /. nvt)

  let tunnel_iv ({ is; eta; vth; r0; v0; m } : Device.tunnel_params) v =
    let powm = Float.pow (Float.abs (v /. v0)) m in
    let e = exp (-.powm) in
    let i_d, g_d = diode_iv { is; n = eta; vt = vth } v in
    ((v /. r0 *. e) +. i_d, (e /. r0 *. (1.0 -. (m *. powm))) +. g_d)

  let bjt_iv ({ is; beta_f; beta_r; vt } : Device.bjt_params) ~vbe ~vbc =
    let ef = safe_exp (vbe /. vt) and er = safe_exp (vbc /. vt) in
    let ibc = is /. beta_r *. (er -. 1.0) in
    let def = safe_exp_deriv (vbe /. vt) /. vt in
    let der = safe_exp_deriv (vbc /. vt) /. vt in
    [|
      (is *. (ef -. er)) -. ibc;
      (is /. beta_f *. (ef -. 1.0)) +. ibc;
      is *. def;
      (-.is *. der) -. (is /. beta_r *. der);
      is /. beta_f *. def;
      is /. beta_r *. der;
    |]
end

let test_junction_exp_bits () =
  let same what at a b =
    if Int64.bits_of_float a <> Int64.bits_of_float b then
      Alcotest.failf "%s at %s: %h <> %h" what at a b
  in
  (* 1 mV steps over -1..3 V: the cap sits at 1 V (n Vt = 25 mV) and
     2 V (n = 2) *)
  let volts = Array.init 4001 (fun k -> -1.0 +. (1e-3 *. float_of_int k)) in
  let diodes = [ Device.default_diode; { Device.default_diode with n = 2.0 } ] in
  Array.iter
    (fun v ->
      let v_at = Printf.sprintf "v = %.17g" v in
      List.iter
        (fun p ->
          let i, g = Device.diode_iv p v and i', g' = Two_exp.diode_iv p v in
          same "diode i" v_at i' i;
          same "diode g" v_at g' g)
        diodes;
      let p = Device.paper_tunnel in
      let i, g = Device.tunnel_iv p v and i', g' = Two_exp.tunnel_iv p v in
      same "tunnel i" v_at i' i;
      same "tunnel g" v_at g' g)
    volts;
  let grid = Array.init 71 (fun k -> -1.0 +. (0.05 *. float_of_int k)) in
  let p = Device.default_npn in
  Array.iter
    (fun vbe ->
      Array.iter
        (fun vbc ->
          let lin = Device.bjt_iv p ~vbe ~vbc in
          let ic, ib = Device.bjt_currents p ~vbe ~vbc in
          let r = Two_exp.bjt_iv p ~vbe ~vbc in
          let at = Printf.sprintf "vbe = %.17g, vbc = %.17g" vbe vbc in
          List.iteri
            (fun k (what, got) -> same what at r.(k) got)
            [
              ("ic", lin.ic); ("ib", lin.ib); ("dic_dvbe", lin.dic_dvbe);
              ("dic_dvbc", lin.dic_dvbc); ("dib_dvbe", lin.dib_dvbe);
              ("dib_dvbc", lin.dib_dvbc);
            ];
          same "bjt_currents ic" at r.(0) ic;
          same "bjt_currents ib" at r.(1) ib)
        grid)
    grid

(* ------------------------------------------------------------------ *)
(* Circuit *)

let r name n1 n2 rv = Device.Resistor { name; n1; n2; r = rv }

let find_device c name =
  List.find_opt (fun d -> Device.name d = name) (Circuit.devices c)

let test_circuit_duplicate () =
  Alcotest.check_raises "duplicate name"
    (Invalid_argument "Circuit.add: duplicate device \"R1\"") (fun () ->
      ignore (Circuit.of_devices [ r "R1" "a" "0" 1.0; r "R1" "b" "0" 2.0 ]))

let test_circuit_nodes () =
  let c = Circuit.of_devices [ r "R1" "a" "gnd" 1.0; r "R2" "b" "0" 1.0; r "R3" "a" "b" 1.0 ] in
  Alcotest.(check (list string)) "nodes" [ "a"; "b" ] (Circuit.node_names c)

let test_circuit_ground_aliases () =
  Alcotest.(check bool) "0" true (Circuit.is_ground "0");
  Alcotest.(check bool) "gnd" true (Circuit.is_ground "GND");
  Alcotest.(check bool) "other" false (Circuit.is_ground "out")

(* ------------------------------------------------------------------ *)
(* Operating point *)

let test_op_divider () =
  let c =
    Circuit.of_devices
      [
        Device.Vsource { name = "V1"; np = "in"; nn = "0"; wave = Wave.Dc 10.0 };
        r "R1" "in" "mid" 1e3;
        r "R2" "mid" "0" 3e3;
      ]
  in
  let op = Op.run c in
  check_float ~eps:1e-7 "divider" 7.5 (Op.voltage op "mid");
  check_float ~eps:1e-10 "source current" (-2.5e-3) (Op.current op "V1")

let test_op_current_source () =
  let c =
    Circuit.of_devices
      [
        Device.Isource { name = "I1"; np = "0"; nn = "out"; wave = Wave.Dc 1e-3 };
        r "R1" "out" "0" 2e3;
      ]
  in
  let op = Op.run c in
  check_float ~eps:1e-7 "I into R" 2.0 (Op.voltage op "out")

let test_op_diode_analytic () =
  let p = Device.default_diode in
  let c =
    Circuit.of_devices
      [
        Device.Vsource { name = "V1"; np = "in"; nn = "0"; wave = Wave.Dc 5.0 };
        r "R1" "in" "d" 1e3;
        Device.Diode { name = "D1"; np = "d"; nn = "0"; p };
      ]
  in
  let op = Op.run c in
  let vd = Op.voltage op "d" in
  let i_r = (5.0 -. vd) /. 1e3 in
  let i_d, _ = Device.diode_iv p vd in
  check_float ~eps:1e-9 "KCL at diode node" i_r i_d

let test_op_wheatstone () =
  let c =
    Circuit.of_devices
      [
        Device.Vsource { name = "V1"; np = "top"; nn = "0"; wave = Wave.Dc 10.0 };
        r "Ra" "top" "l" 1e3;
        r "Rb" "top" "rn" 2e3;
        r "Rc" "l" "0" 2e3;
        r "Rd" "rn" "0" 4e3;
        r "Rdet" "l" "rn" 5e2;
      ]
  in
  let op = Op.run c in
  check_float ~eps:1e-7 "balanced bridge" 0.0 (Op.voltage op "l" -. Op.voltage op "rn")

let test_op_bjt_inverter () =
  let c =
    Circuit.of_devices
      [
        Device.Vsource { name = "VCC"; np = "vcc"; nn = "0"; wave = Wave.Dc 5.0 };
        Device.Vsource { name = "VB"; np = "b"; nn = "0"; wave = Wave.Dc 2.0 };
        r "RB" "b" "base" 1e4;
        r "RC" "vcc" "c" 1e3;
        Device.Bjt { name = "Q1"; nc = "c"; nb = "base"; ne = "0"; p = Device.default_npn };
      ]
  in
  let op = Op.run c in
  Alcotest.(check bool) "collector pulled low" true (Op.voltage op "c" < 1.0);
  Alcotest.(check bool) "base-emitter in diode range" true
    (Op.voltage op "base" > 0.5 && Op.voltage op "base" < 0.9)

let test_op_gmin_floating () =
  let c =
    Circuit.of_devices
      [
        Device.Vsource { name = "V1"; np = "in"; nn = "0"; wave = Wave.Dc 1.0 };
        Device.Capacitor { name = "C1"; n1 = "in"; n2 = "fl"; c = 1e-9; ic = None };
        r "R1" "fl" "0" 1e30;
      ]
  in
  let op = Op.run c in
  Alcotest.(check bool) "floating node finite" true (Float.is_finite (Op.voltage op "fl"))

let prop_op_divider_ratio =
  qtest ~count:100 "op: divider ratio for random resistors"
    QCheck.(pair (float_range 10.0 1e6) (float_range 10.0 1e6))
    (fun (r1, r2) ->
      let c =
        Circuit.of_devices
          [
            Device.Vsource { name = "V1"; np = "in"; nn = "0"; wave = Wave.Dc 1.0 };
            r "R1" "in" "mid" r1;
            r "R2" "mid" "0" r2;
          ]
      in
      let op = Op.run c in
      Float.abs (Op.voltage op "mid" -. (r2 /. (r1 +. r2))) < 1e-6)

(* ------------------------------------------------------------------ *)
(* Transient *)

let transient_signal circuit probe opts =
  let res = Transient.run circuit ~probes:[ probe ] opts in
  Waveform.Signal.make ~times:res.Transient.times
    ~values:(Transient.signal res probe)

let test_tran_rc_charge () =
  let tau = 1e-3 in
  let c =
    Circuit.of_devices
      [
        Device.Vsource { name = "V1"; np = "in"; nn = "0"; wave = Wave.Dc 1.0 };
        r "R1" "in" "out" 1e3;
        Device.Capacitor { name = "C1"; n1 = "out"; n2 = "0"; c = 1e-6; ic = Some 0.0 };
      ]
  in
  let opts =
    { (Transient.default_options ~dt:(tau /. 500.0) ~t_stop:(3.0 *. tau)) with use_ic = true }
  in
  let s = transient_signal c (Transient.Node "out") opts in
  List.iter
    (fun t ->
      let expected = 1.0 -. exp (-.t /. tau) in
      check_float ~eps:1e-4 "rc charge" expected (Waveform.Signal.value_at s t))
    [ 0.5 *. tau; tau; 2.0 *. tau ]

let test_tran_rl_decay () =
  let l = 1e-3 and rv = 10.0 and i0 = 1e-2 in
  let tau = l /. rv in
  let c =
    Circuit.of_devices
      [
        Device.Inductor { name = "L1"; n1 = "a"; n2 = "0"; l; ic = Some i0 };
        r "R1" "a" "0" rv;
      ]
  in
  let opts =
    { (Transient.default_options ~dt:(tau /. 500.0) ~t_stop:(3.0 *. tau)) with use_ic = true }
  in
  let s = transient_signal c (Transient.Branch "L1") opts in
  List.iter
    (fun t ->
      check_float ~eps:(i0 *. 1e-3) "rl decay" (i0 *. exp (-.t /. tau))
        (Waveform.Signal.value_at s t))
    [ 0.5 *. tau; tau; 2.0 *. tau ]

let test_tran_lc_energy () =
  let c =
    Circuit.of_devices
      [
        Device.Capacitor { name = "C1"; n1 = "t"; n2 = "0"; c = 1e-9; ic = Some 1.0 };
        Device.Inductor { name = "L1"; n1 = "t"; n2 = "0"; l = 1e-3; ic = None };
      ]
  in
  let f0 = 1.0 /. (2.0 *. Float.pi *. sqrt (1e-3 *. 1e-9)) in
  let opts =
    {
      (Transient.default_options ~dt:(1.0 /. (f0 *. 200.0)) ~t_stop:(50.0 /. f0)) with
      use_ic = true;
      gmin = 0.0;
    }
  in
  let s = transient_signal c (Transient.Node "t") opts in
  let tail = Waveform.Signal.tail_fraction s 0.1 in
  check_float ~eps:1e-3 "LC amplitude conserved" 1.0 (Waveform.Measure.amplitude tail);
  check_float ~eps:(f0 *. 1e-3) "LC frequency" f0 (Waveform.Measure.frequency s)

let test_tran_rlc_decay_rate () =
  let l = 1e-3 and cap = 1e-9 in
  let w0 = 1.0 /. sqrt (l *. cap) in
  let q = 50.0 in
  let rv = q *. sqrt (l /. cap) in
  let c =
    Circuit.of_devices
      [
        Device.Capacitor { name = "C1"; n1 = "t"; n2 = "0"; c = cap; ic = Some 1.0 };
        Device.Inductor { name = "L1"; n1 = "t"; n2 = "0"; l; ic = None };
        r "R1" "t" "0" rv;
      ]
  in
  let f0 = w0 /. (2.0 *. Float.pi) in
  let t_stop = 30.0 /. f0 in
  let opts =
    { (Transient.default_options ~dt:(1.0 /. (f0 *. 400.0)) ~t_stop) with use_ic = true }
  in
  let s = transient_signal c (Transient.Node "t") opts in
  let tail = Waveform.Signal.tail_fraction s 0.05 in
  (* the max excursion of the tail window tracks the envelope near the
     window start *)
  let expected = exp (-.w0 *. (0.95 *. t_stop) /. (2.0 *. q)) in
  check_float ~eps:(expected *. 0.03) "ringdown envelope" expected
    (Waveform.Measure.amplitude tail)

let test_tran_sine_through_rc () =
  let rv = 1e3 and cap = 1e-9 in
  let fc = 1.0 /. (2.0 *. Float.pi *. rv *. cap) in
  let c =
    Circuit.of_devices
      [
        Device.Vsource
          {
            name = "V1";
            np = "in";
            nn = "0";
            wave = Wave.Sine { offset = 0.0; ampl = 1.0; freq = fc; phase = 0.0; delay = 0.0 };
          };
        r "R1" "in" "out" rv;
        Device.Capacitor { name = "C1"; n1 = "out"; n2 = "0"; c = cap; ic = None };
      ]
  in
  let opts = Transient.default_options ~dt:(1.0 /. (fc *. 500.0)) ~t_stop:(20.0 /. fc) in
  let s = transient_signal c (Transient.Node "out") opts in
  let tail = Waveform.Signal.tail_fraction s 0.3 in
  check_float ~eps:2e-3 "corner gain" (1.0 /. sqrt 2.0) (Waveform.Measure.amplitude tail)

let test_tran_be_damps_lc () =
  let c =
    Circuit.of_devices
      [
        Device.Capacitor { name = "C1"; n1 = "t"; n2 = "0"; c = 1e-9; ic = Some 1.0 };
        Device.Inductor { name = "L1"; n1 = "t"; n2 = "0"; l = 1e-3; ic = None };
      ]
  in
  let f0 = 1.0 /. (2.0 *. Float.pi *. sqrt (1e-3 *. 1e-9)) in
  let opts =
    {
      (Transient.default_options ~dt:(1.0 /. (f0 *. 100.0)) ~t_stop:(50.0 /. f0)) with
      use_ic = true;
      integ = Mna.Backward_euler;
    }
  in
  let s = transient_signal c (Transient.Node "t") opts in
  let tail = Waveform.Signal.tail_fraction s 0.1 in
  Alcotest.(check bool) "BE decays" true (Waveform.Measure.amplitude tail < 0.6)

let test_tran_record_window () =
  let c =
    Circuit.of_devices
      [
        Device.Vsource { name = "V1"; np = "a"; nn = "0"; wave = Wave.Dc 1.0 };
        r "R1" "a" "0" 1.0;
      ]
  in
  let opts = { (Transient.default_options ~dt:1e-3 ~t_stop:1.0) with t_start = 0.5 } in
  let res = Transient.run c ~probes:[ Transient.Node "a" ] opts in
  Alcotest.(check bool) "starts at t_start" true (res.Transient.times.(0) >= 0.5)

let test_tran_stride () =
  let c =
    Circuit.of_devices
      [
        Device.Vsource { name = "V1"; np = "a"; nn = "0"; wave = Wave.Dc 1.0 };
        r "R1" "a" "0" 1.0;
      ]
  in
  let opts = { (Transient.default_options ~dt:1e-3 ~t_stop:0.1) with record_stride = 10 } in
  let res = Transient.run c ~probes:[ Transient.Node "a" ] opts in
  Alcotest.(check bool) "stride decimates" true (Array.length res.Transient.times <= 12)

let divider_sine =
  Circuit.of_devices
    [
      Device.Vsource
        {
          name = "V1"; np = "a"; nn = "0";
          wave = Sine { offset = 0.0; ampl = 1.0; freq = 1e3; phase = 0.0; delay = 0.0 };
        };
      r "R1" "a" "0" 1.0;
    ]

(* The recorded samples must be exactly the step ends a longhand loop
   keeps (step k ends at (k + 1) dt, the last one at t_stop; t = 0
   first when t_start <= 0). *)
let test_tran_record_counts () =
  let bits a = Array.map Int64.bits_of_float a in
  List.iter
    (fun (t_stop, t_start, stride) ->
      let dt = 1e-3 in
      let opts =
        { (Transient.default_options ~dt ~t_stop) with t_start; record_stride = stride }
      in
      let res = Transient.run divider_sine ~probes:[ Transient.Node "a" ] opts in
      let n = int_of_float (Float.ceil ((t_stop /. dt) -. 1e-9)) in
      let kept = ref (if t_start <= 0.0 then [ 0.0 ] else []) in
      for k = 0 to n - 1 do
        let t = float_of_int k *. dt in
        let t' = t +. Float.min dt (t_stop -. t) in
        if t' >= t_start -. 1e-15 && (k + 1) mod stride = 0 then kept := t' :: !kept
      done;
      let name = Printf.sprintf "t_stop %g, t_start %g, stride %d" t_stop t_start stride in
      Alcotest.(check (array int64)) name (bits (Array.of_list (List.rev !kept)))
        (bits res.times);
      Alcotest.(check int) (name ^ ": values") (Array.length res.times)
        (Array.length (Transient.signal res (Transient.Node "a"))))
    [
      (0.1, 0.0, 1); (0.1, 0.0, 10); (0.1005, 0.05, 3); (0.0995, 0.0312, 7);
      (0.1, 0.1, 1); (0.1, 0.2, 1); (0.0004, 0.0, 2); (1.1, 0.0, 1);
    ]

(* The recorder's columns start at 64 samples and double when full:
   across four doublings of an 1100-step run (the times are checked in
   [test_tran_record_counts]), every 3rd value must be the stride-3
   run's value, bit for bit. *)
let test_tran_record_growth () =
  let probe = Transient.Node "a" in
  let opts = Transient.default_options ~dt:1e-6 ~t_stop:1.1e-3 in
  let full = Transient.run divider_sine ~probes:[ probe ] opts in
  let third =
    Transient.run divider_sine ~probes:[ probe ] { opts with record_stride = 3 }
  in
  let bits a = Array.map Int64.bits_of_float a in
  let values = Transient.signal full probe in
  Alcotest.(check int) "samples" 1101 (Array.length values);
  Alcotest.(check (array int64)) "every 3rd value"
    (bits (Transient.signal third probe))
    (bits (Array.init (Array.length third.times) (fun i -> values.(3 * i))))

(* A 10 M-step run that a deadline stops early allocates for the steps
   it ran, not for its whole length. Its sample columns (times and one
   probe) with every copy made as they grew come to at most 6 words per
   column and sample kept; columns sized for the whole run would take
   20 M words of the major heap. *)
let test_tran_record_deadline () =
  Cache.Store.set_enabled false;
  let opts = Transient.default_options ~dt:1e-6 ~t_stop:10.0 in
  let major () = (Gc.quick_stat ()).major_words in
  let before = major () in
  let r =
    Resilience.Deadline.with_deadline ~seconds:0.01 (fun () ->
        Transient.run divider_sine ~probes:[ Transient.Node "a" ] opts)
  in
  let words = major () -. before in
  (match r.failure with
  | Some e ->
    Alcotest.(check string) "stopped by the deadline" "budget-exhausted"
      (Resilience.Oshil_error.code e)
  | None -> Alcotest.fail "a 10 M-step run finished within 10 ms");
  let n = Array.length r.times in
  (* the columns, and 50 000 words for the rest of the run *)
  let bound = (2.0 *. 6.0 *. float_of_int (n + 64)) +. 50_000.0 in
  if not (words <= bound) then
    Alcotest.failf "%.0f major-heap words allocated for %d samples (bound %.0f)"
      words n bound

(* ------------------------------------------------------------------ *)
(* Netlist parser *)

let test_parse_value () =
  let ok v s =
    match Netlist.parse_value s with
    | Ok x -> check_float ~eps:(1e-12 *. Float.abs v) s v x
    | Error e -> Alcotest.failf "%s: %s" s e
  in
  ok 1e3 "1k";
  ok 1e-4 "100u";
  ok 2e6 "2meg";
  ok 1.5e-9 "1.5n";
  ok (-3e-12) "-3p";
  ok 42.0 "42";
  ok 1e9 "1g";
  Alcotest.(check bool) "garbage rejected" true
    (Result.is_error (Netlist.parse_value "abc"))

let test_parse_simple_netlist () =
  let src = {|
* a voltage divider
V1 in 0 DC 10
R1 in mid 1k
R2 mid 0 3k
.end
|} in
  match Netlist.parse_string src with
  | Error e -> Alcotest.failf "line %d: %s" e.line e.message
  | Ok c ->
    let op = Op.run c in
    check_float ~eps:1e-7 "parsed divider" 7.5 (Op.voltage op "mid")

let test_parse_sources () =
  let src = {|
V1 a 0 SIN(0 2 1meg)
V2 b 0 PULSE(0 5 1u 1n 1n 2u)
V3 c 0 PWL(0 0 1m 1 2m 0)
I1 0 d 1m
R1 a 0 1k
R2 b 0 1k
R3 c 0 1k
R4 d 0 1k
|} in
  match Netlist.parse_string src with
  | Error e -> Alcotest.failf "line %d: %s" e.line e.message
  | Ok c -> begin
    (match find_device c "V1" with
    | Some (Device.Vsource { wave = Wave.Sine s; _ }) ->
      check_float "sin ampl" 2.0 s.ampl;
      check_float "sin freq" 1e6 s.freq
    | _ -> Alcotest.fail "V1 not SIN");
    (match find_device c "V2" with
    | Some (Device.Vsource { wave = Wave.Pulse p; _ }) ->
      check_float "pulse v2" 5.0 p.v2;
      check_float "pulse width" 2e-6 p.width
    | _ -> Alcotest.fail "V2 not PULSE");
    match find_device c "V3" with
    | Some (Device.Vsource { wave = Wave.Pwl [ _; (t, v); _ ]; _ }) ->
      check_float "pwl t" 1e-3 t;
      check_float "pwl v" 1.0 v
    | _ -> Alcotest.fail "V3 not PWL"
  end

let test_parse_devices_with_params () =
  let src = {|
Q1 c b e IS=2e-12 BF=50
D1 a 0 IS=1e-15 N=1.5
TD1 t 0 R0=500 V0=0.3
C1 a 0 1n IC=0.7
L1 b 0 10u IC=1m
R1 a b 1 ; keep nodes connected
R2 c 0 1
R3 e 0 1
R4 t 0 1
|} in
  match Netlist.parse_string src with
  | Error e -> Alcotest.failf "line %d: %s" e.line e.message
  | Ok c -> begin
    (match find_device c "Q1" with
    | Some (Device.Bjt { p; _ }) ->
      check_float "bjt is" 2e-12 p.is;
      check_float "bjt bf" 50.0 p.beta_f
    | _ -> Alcotest.fail "Q1 missing");
    (match find_device c "TD1" with
    | Some (Device.Tunnel_diode { p; _ }) ->
      check_float "td r0" 500.0 p.r0;
      check_float "td v0" 0.3 p.v0
    | _ -> Alcotest.fail "TD1 missing");
    match find_device c "C1" with
    | Some (Device.Capacitor { ic = Some v; _ }) -> check_float "cap ic" 0.7 v
    | _ -> Alcotest.fail "C1 ic missing"
  end

let test_parse_errors_carry_line () =
  let src = "R1 a 0 1k\nR2 a\n" in
  match Netlist.parse_string src with
  | Error e -> Alcotest.(check int) "error line" 2 e.line
  | Ok _ -> Alcotest.fail "expected parse error"

let test_netlist_roundtrip () =
  let src = {|
V1 in 0 DC 10
R1 in mid 1k
C1 mid 0 1n IC=0.5
L1 mid 0 1m
D1 mid 0
|} in
  match Netlist.parse_string src with
  | Error e -> Alcotest.failf "line %d: %s" e.line e.message
  | Ok c -> begin
    let text = Netlist.to_string c in
    match Netlist.parse_string text with
    | Error e -> Alcotest.failf "roundtrip line %d: %s" e.line e.message
    | Ok c2 ->
      Alcotest.(check int) "same device count"
        (List.length (Circuit.devices c))
        (List.length (Circuit.devices c2))
  end


(* ------------------------------------------------------------------ *)
(* MOSFET model *)

let test_mos_regions () =
  let p = Device.default_nmos in
  (* cutoff *)
  let lin = Device.mos_iv p ~vgs:0.3 ~vds:1.0 in
  check_float "cutoff id" 0.0 lin.id;
  (* saturation: id = kp/2 vov^2 (1 + lambda vds) *)
  let lin = Device.mos_iv p ~vgs:1.0 ~vds:2.0 in
  let expected = 0.5 *. p.kp *. 0.25 *. (1.0 +. (p.lambda *. 2.0)) in
  check_float ~eps:1e-12 "sat id" expected lin.id;
  (* triode *)
  let lin = Device.mos_iv p ~vgs:1.5 ~vds:0.2 in
  let vov = 1.0 in
  let expected =
    p.kp *. ((vov *. 0.2) -. (0.5 *. 0.2 *. 0.2)) *. (1.0 +. (p.lambda *. 0.2))
  in
  check_float ~eps:1e-12 "triode id" expected lin.id

let test_mos_continuity_at_pinchoff () =
  let p = Device.default_nmos in
  let vgs = 1.2 in
  let vov = vgs -. p.vth in
  let below = Device.mos_iv p ~vgs ~vds:(vov -. 1e-9) in
  let above = Device.mos_iv p ~vgs ~vds:(vov +. 1e-9) in
  check_float ~eps:1e-9 "id continuous" below.id above.id;
  check_float ~eps:1e-4 "gm continuous" below.gm above.gm

let prop_mos_partials =
  qtest ~count:200 "mos: gm/gds match finite differences"
    QCheck.(pair (float_range 0.0 2.0) (float_range (-1.5) 2.0))
    (fun (vgs, vds) ->
      let p = Device.default_nmos in
      let lin = Device.mos_iv p ~vgs ~vds in
      let h = 1e-6 in
      let fd_gm =
        ((Device.mos_iv p ~vgs:(vgs +. h) ~vds).id
        -. (Device.mos_iv p ~vgs:(vgs -. h) ~vds).id)
        /. (2.0 *. h)
      in
      let fd_gds =
        ((Device.mos_iv p ~vgs ~vds:(vds +. h)).id
        -. (Device.mos_iv p ~vgs ~vds:(vds -. h)).id)
        /. (2.0 *. h)
      in
      Float.abs (lin.gm -. fd_gm) <= 1e-4 *. (Float.abs fd_gm +. 1e-6)
      && Float.abs (lin.gds -. fd_gds) <= 1e-4 *. (Float.abs fd_gds +. 1e-6))

let prop_mos_antisymmetry =
  (* drain/source swap: id(vgs, -vds) of the swapped device *)
  qtest ~count:100 "mos: vds < 0 is the mirrored device"
    QCheck.(pair (float_range 0.0 2.0) (float_range 0.0 2.0))
    (fun (vgs, vds) ->
      let p = Device.default_nmos in
      let fwd = Device.mos_iv p ~vgs ~vds in
      let rev = Device.mos_iv p ~vgs:(vgs -. vds) ~vds:(-.vds) in
      Float.abs (fwd.id +. rev.id) < 1e-12)

let test_mos_common_source_op () =
  (* common-source stage in saturation *)
  let c =
    Circuit.of_devices
      [
        Device.Vsource { name = "VDD"; np = "vdd"; nn = "0"; wave = Wave.Dc 3.0 };
        Device.Vsource { name = "VG"; np = "g"; nn = "0"; wave = Wave.Dc 1.0 };
        r "RD" "vdd" "d" 5e3;
        Device.Mosfet { name = "M1"; nd = "d"; ng = "g"; ns = "0"; p = Device.default_nmos };
      ]
  in
  let op = Op.run c in
  (* id = kp/2 (0.5)^2 (1 + lambda vd): solve consistently *)
  let vd = Op.voltage op "d" in
  let id = (3.0 -. vd) /. 5e3 in
  let lin = Device.mos_iv Device.default_nmos ~vgs:1.0 ~vds:vd in
  check_float ~eps:1e-9 "KCL at drain" id lin.id;
  Alcotest.(check bool) "in saturation" true (vd > 0.5)

(* ------------------------------------------------------------------ *)
(* Transient bit pins *)

(* MD5 of the IEEE-754 bits of [times] and of every recorded signal, in
   probe order: any change in the arithmetic of the trapezoidal step,
   the Newton iteration or its start, the MNA stamps or the device
   models moves it. The digests were re-recorded when each step's
   Newton start became an extrapolation of the step history (the
   tolerance pins below bound how far that moved the waveforms); a
   speed change that leaves the arithmetic alone must keep them. *)
let waveform_md5 (r : Transient.result) =
  let b = Buffer.create 4096 in
  let add a = Array.iter (fun v -> Buffer.add_int64_le b (Int64.bits_of_float v)) a in
  add r.times;
  List.iter (fun (_, s) -> add s) r.signals;
  Digest.to_hex (Digest.string (Buffer.contents b))

let check_pin name expected ~steps (r : Transient.result) =
  Alcotest.(check bool) (name ^ ": complete") true (Option.is_none r.failure);
  Alcotest.(check int) (name ^ ": samples") (steps + 1) (Array.length r.times);
  Alcotest.(check string) (name ^ ": md5") expected (waveform_md5 r)

(* The engine-verify probe shapes (DESIGN.md, perfbench): an injected
   oscillator, default transient options at a fixed number of steps per
   oscillator period, a 3rd-harmonic tone near the band centre — only
   far fewer cycles. *)
let tanh_probe ?(vi = 0.03) ~cycles ~spc () =
  let p = Circuits.Tanh_osc.default in
  let n = 3 and f_osc = 1.0e6 in
  let f_inj = float_of_int n *. f_osc in
  let im =
    Shil.Simulate.injection_current ~tank:(Circuits.Tanh_osc.tank p)
      { vi; n; f_inj; phase = 0.0 }
  in
  let circuit =
    Circuits.Tanh_osc.circuit
      ~injection:(Sine { offset = 0.0; ampl = im; freq = f_inj; phase = 0.0; delay = 0.0 })
      p
  in
  let dt = 1.0 /. (float_of_int spc *. f_osc) in
  (circuit, Transient.default_options ~dt ~t_stop:(cycles /. f_osc))

(* [f ()] with telemetry on, and what [read] finds in the counters
   when it returns *)
let counting read f =
  Obs.reset ();
  Obs.set_enabled true;
  let r = Fun.protect ~finally:(fun () -> Obs.set_enabled false) f in
  let n = read () in
  Obs.reset ();
  (r, n)

(* tanh: behavioural Nonlinear_cs, 2 unknowns *)
let tanh_pin_run () =
  let circuit, opts = tanh_probe ~cycles:40.0 ~spc:160 () in
  Transient.run circuit ~probes:[ Node "t"; Branch "Ltank" ] opts

(* diff-pair: Ebers-Moll BJT stamps, 9 unknowns; 120 steps per period *)
let diffpair_probe ~cycles =
  let f_osc = Circuits.Diff_pair.fc_paper in
  let circuit =
    Circuits.Diff_pair.circuit
      ~injection:{ vi = 0.03; n = 3; f_inj = 3.0 *. f_osc; phase = 0.0 }
      Circuits.Diff_pair.default
  in
  (circuit, Transient.default_options ~dt:(1.0 /. (120.0 *. f_osc)) ~t_stop:(cycles /. f_osc))

let diffpair_pin_run () =
  let circuit, opts = diffpair_probe ~cycles:30.0 in
  Transient.run circuit ~probes:[ Circuits.Diff_pair.osc_probe; Node "tl" ] opts

let test_tran_pins () =
  Cache.Store.set_enabled false;
  check_pin "tanh" "4e62c002af600918c25d8f8cc3147146" ~steps:6400 (tanh_pin_run ());
  check_pin "diffpair" "cad3979c7ff239e6f967044c38f2cfd8" ~steps:3600
    (diffpair_pin_run ());
  (* the shipped example: tunnel-diode (and its diode) stamps, a pulse
     source and a DC supply *)
  let circuit =
    match
      Netlist.parse_string
        (In_channel.with_open_bin "../examples/netlists/colpitts_like.cir"
           In_channel.input_all)
    with
    | Ok c -> c
    | Error e -> Alcotest.failf "colpitts_like.cir: %s" e.Netlist.message
  in
  check_pin "colpitts_like" "17b1b04015b069c7bf60d26c6f053128" ~steps:2500
    (Transient.run circuit ~probes:[ Node "t"; Branch "LT" ]
       (Transient.default_options ~dt:20e-12 ~t_stop:50e-9));
  (* an injected singular Jacobian on a step forces step halving *)
  let circuit, opts = tanh_probe ~cycles:4.0 ~spc:160 () in
  (match Resilience.Fault.configure "newton-singular@40x3" with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "fault plan: %s" msg);
  let r, halvings =
    Fun.protect ~finally:Resilience.Fault.clear (fun () ->
        counting
          (fun () -> Obs.Metrics.counter_value "spice.transient.step_subdivisions")
          (fun () -> Transient.run circuit ~probes:[ Node "t" ] opts))
  in
  Alcotest.(check int) "newton-singular: halvings" 3 halvings;
  check_pin "newton-singular" "1872ef80cfaa92d268248301efa90205" ~steps:640 r

(* The tanh and diff-pair pin waveforms above at 33 evenly spaced
   samples, as IEEE-754 hex literals recorded before the Newton start
   was extrapolated from the step history. A change of Newton start
   moves the MD5 pins, since each step's solution is only determined
   to within the stop test, but must keep every sample within 1e-12 of
   the signal's peak |v| of these. *)
let tanh_t_samples =
  [| (0, 0x0p+0); (200, 0x1.58f7afd75866p-7);
    (400, -0x1.23db0cc7abc6dp-4); (600, -0x1.786123f82983fp-6);
    (800, 0x1.b30bd8f530ee6p-3); (1000, 0x1.79c2d453c1cfdp-5);
    (1200, -0x1.c1db9806d451bp-2); (1400, -0x1.2ace8c32bea1ap-4);
    (1600, 0x1.5cdff1f97718fp-1); (1800, 0x1.7910dd8e1e0f9p-4);
    (2000, -0x1.b8e55295e5745p-1); (2200, -0x1.a4308f3ecbc8p-4);
    (2400, 0x1.f1868fb662943p-1); (2600, 0x1.b97e584498efdp-4);
    (2800, -0x1.08d916119645ap+0); (3000, -0x1.c3037ec99f019p-4);
    (3200, 0x1.11abf3cb21fabp+0); (3400, 0x1.c66aee4c6177fp-4);
    (3600, -0x1.166f65162c03bp+0); (3800, -0x1.c6b7203e9af7ap-4);
    (4000, 0x1.18fd0f54609a8p+0); (4200, 0x1.c57addad9f907p-4);
    (4400, -0x1.1a5ab3a911c5ep+0); (4600, -0x1.c38778bffb97bp-4);
    (4800, 0x1.1b15ff559bda8p+0); (5000, 0x1.c149191832c0bp-4);
    (5200, -0x1.1b7ad91958efp+0); (5400, -0x1.bef712bf7e36dp-4);
    (5600, 0x1.1bb1b4e989297p+0); (5800, 0x1.bcad29910520fp-4);
    (6000, -0x1.1bd013e297b75p+0); (6200, -0x1.ba78c5a2a0d85p-4);
    (6400, 0x1.1be16106cd632p+0);
  |]

let tanh_ltank_samples =
  [| (0, 0x0p+0); (200, 0x1.1fab6b73d2ef2p-10);
    (400, 0x1.08a5d4c3527f5p-14); (600, -0x1.14cf25e73a575p-9);
    (800, -0x1.82aab5119fd3bp-13); (1000, 0x1.0500b5fa835e2p-8);
    (1200, 0x1.a3dbec6838a4ep-12); (1400, -0x1.a6d416be6075fp-8);
    (1600, -0x1.4df31b02f1653p-11); (1800, 0x1.19be6736dcc0dp-7);
    (2000, 0x1.a79a23d0dcecfp-11); (2200, -0x1.485c1cc45902cp-7);
    (2400, -0x1.dbb309390e749p-11); (2600, 0x1.63b295eacb25ap-7);
    (2800, 0x1.f6b019ec86d88p-11); (3000, -0x1.72e98efa3d8afp-7);
    (3200, -0x1.019f27807f19bp-10); (3400, 0x1.7b2f11dc473d8p-7);
    (3600, 0x1.03ff7798eb905p-10); (3800, -0x1.7fa23b1075d43p-7);
    (4000, -0x1.0456ebbacd608p-10); (4200, 0x1.8204c35853505p-7);
    (4400, 0x1.03a84588f7673p-10); (4600, -0x1.834c35c0857f1p-7);
    (4800, -0x1.027ce29b46d18p-10); (5000, 0x1.83fcb229c2035p-7);
    (5200, 0x1.011cba9b68fd2p-10); (5400, -0x1.845cccb14a5b4p-7);
    (5600, -0x1.ff5a00ef34136p-11); (5800, 0x1.849215b59d204p-7);
    (6000, 0x1.fc811a91540d1p-11); (6200, -0x1.84b0826d7348ap-7);
    (6400, -0x1.f9c12e4ce589p-11);
  |]

let diffpair_osc_samples =
  [| (0, 0x0p+0); (112, 0x1.ce9462d797ap-7);
    (225, -0x1.66b21cfe78fp-5); (337, -0x1.9dc9f9a0f7d8p-5);
    (450, -0x1.ac9b16be2e8p-8); (562, 0x1.75217e315eep-7);
    (675, -0x1.f1f956e2ad5p-5); (787, -0x1.62d1fa36f09p-3);
    (900, -0x1.9b1456fedf54p-3); (1012, -0x1.418ebd93b124p-4);
    (1125, 0x1.84fd253db2ccp-4); (1237, 0x1.06154864ae8cp-2);
    (1350, 0x1.5639b89951a1p-2); (1462, 0x1.8718b28047d5p-2);
    (1575, 0x1.b83688f56f95p-2); (1687, 0x1.c6feeae4c10cp-2);
    (1800, 0x1.685d6a56ec2p-2); (1912, 0x1.95a8829504b8p-4);
    (2025, -0x1.49f39ad802dep-3); (2137, -0x1.81188551fc4bp-2);
    (2250, -0x1.d4b928fdc005p-2); (2362, -0x1.ebae184a15bap-2);
    (2475, -0x1.f302e3a22769p-2); (2587, -0x1.d514e21490cep-2);
    (2700, -0x1.570309fd366p-2); (2812, -0x1.17352016a914p-4);
    (2925, 0x1.848cc50799fep-3); (3037, 0x1.9710252a2f52p-2);
    (3150, 0x1.e1f99084c185p-2); (3262, 0x1.efd8b5d924eap-2);
    (3375, 0x1.ef55536a93e4p-2); (3487, 0x1.ca12b0360bb1p-2);
    (3600, 0x1.494ec5bd4cbfp-2);
  |]

let diffpair_tl_samples =
  [| (0, 0x1.4p+2); (112, 0x1.3fdbc1c2989b6p+2);
    (225, 0x1.3ff4dc82bab61p+2); (337, 0x1.401828977644ap+2);
    (450, 0x1.3fca6c9d2f527p+2); (562, 0x1.3e89d1c4d153dp+2);
    (675, 0x1.3cb27809569e7p+2); (787, 0x1.3b53dd50bba53p+2);
    (900, 0x1.3b7f33c2c327p+2); (1012, 0x1.3e14c5db023e3p+2);
    (1125, 0x1.41ae6baab6d85p+2); (1237, 0x1.467ab7b2024c6p+2);
    (1350, 0x1.4ab1cdc4d073fp+2); (1462, 0x1.4e0c3c2ec9fa4p+2);
    (1575, 0x1.4f1d42e765b85p+2); (1687, 0x1.4d58d21d81b65p+2);
    (1800, 0x1.4957663403da1p+2); (1912, 0x1.42936daf0ac09p+2);
    (2025, 0x1.3c33c03459566p+2); (2137, 0x1.35ad2e6687701p+2);
    (2250, 0x1.315a36b818cap+2); (2362, 0x1.2ecf18a2f4445p+2);
    (2475, 0x1.2f0c5a432802dp+2); (2587, 0x1.32367e28f2c67p+2);
    (2700, 0x1.37336cced527ep+2); (2812, 0x1.3e697915fca22p+2);
    (2925, 0x1.44b6a4745a383p+2); (3037, 0x1.4b028e982e543p+2);
    (3150, 0x1.4f0fcc842c606p+2); (3262, 0x1.51523c499130ep+2);
    (3375, 0x1.50d6393b0e475p+2); (3487, 0x1.4d7170480b69cp+2);
    (3600, 0x1.485ef10f372dap+2);
  |]

let check_near name samples (s : float array) =
  let peak = Array.fold_left (fun a v -> Float.max a (Float.abs v)) 0.0 s in
  Array.iter
    (fun (i, v) ->
      let err = Float.abs (s.(i) -. v) in
      if not (err <= 1e-12 *. peak) then
        Alcotest.failf "%s[%d] = %h, recorded %h: |diff| %.3g > 1e-12 x %.3g"
          name i s.(i) v err peak)
    samples

let test_tran_tolerance_pins () =
  Cache.Store.set_enabled false;
  let check name run signals =
    let r = run () in
    Alcotest.(check bool) (name ^ ": complete") true (Option.is_none r.Transient.failure);
    List.iter2
      (fun (label, samples) (_, s) -> check_near (name ^ " " ^ label) samples s)
      signals r.signals
  in
  check "tanh" tanh_pin_run
    [ ("v(t)", tanh_t_samples); ("i(Ltank)", tanh_ltank_samples) ];
  check "diffpair" diffpair_pin_run
    [ ("osc", diffpair_osc_samples); ("v(tl)", diffpair_tl_samples) ]

(* Newton iterations per step of the engine-verify probe shapes (tanh
   at 160 and the diff-pair at 120 steps per period, a 3rd-harmonic
   tone near the band centre), over fewer cycles. Each step starts from
   the extrapolation of the last three solutions. Started from the last
   solution alone, the engine-verify lengths (600 and 300 periods) took
   2.83 and 3.22 iterations per solve; extrapolated, 2.00 and 2.30. *)
let test_tran_newton_start () =
  Cache.Store.set_enabled false;
  let check name ~bound circuit ~probe opts =
    let r, (iters, solves, subdivisions) =
      counting
        (fun () ->
          let c = Obs.Metrics.counter_value in
          ( c "spice.newton.iters",
            c "spice.newton.solves",
            c "spice.transient.step_subdivisions" ))
        (fun () -> Transient.run circuit ~probes:[ probe ] opts)
    in
    Alcotest.(check bool) (name ^ ": complete") true (Option.is_none r.failure);
    Alcotest.(check int) (name ^ ": step subdivisions") 0 subdivisions;
    let per_solve = float_of_int iters /. float_of_int solves in
    if not (per_solve <= bound) then
      Alcotest.failf "%s: %.3f Newton iterations per solve (bound %.2f)" name
        per_solve bound
  in
  let circuit, opts = tanh_probe ~cycles:100.0 ~spc:160 () in
  check "tanh" ~bound:2.05 circuit ~probe:(Node "t") opts;
  let circuit, opts = diffpair_probe ~cycles:60.0 in
  check "diffpair" ~bound:2.4 circuit ~probe:Circuits.Diff_pair.osc_probe opts

(* Minor-heap words per accepted step of the engine-verify tanh probe
   (fixed step, 2 unknowns, 2 Newton iterations per step), measured
   over 20 000 steps so the operating point and the result arrays
   amortise away. With a fresh Jacobian, an LU copy and stamping
   closures per Newton iteration this run allocated 592-626 words per
   step; the per-run Newton workspace and the closure-free assembler
   brought it to 153-156, and the in-place stepping state and Newton
   iterate, the float sample columns and the extrapolated
   Newton start to 77. The bound keeps those costs from coming back.
   Coverage instrumentation (bisect_ppx) only bumps counters in a
   preallocated array, so the bound should hold there too. *)
let test_tran_alloc () =
  let circuit, opts = tanh_probe ~cycles:125.0 ~spc:160 () in
  let before = Gc.minor_words () in
  let r = Transient.run circuit ~probes:[ Node "t" ] opts in
  let per_step = (Gc.minor_words () -. before) /. 20000.0 in
  Alcotest.(check int) "steps" 20001 (Array.length r.times);
  if per_step > 85.0 then
    Alcotest.failf "%.1f minor words per accepted step (bound 85)" per_step

let () =
  Alcotest.run "spice"
    [
      ( "wave",
        [
          Alcotest.test_case "dc" `Quick test_wave_dc;
          Alcotest.test_case "sine" `Quick test_wave_sine;
          Alcotest.test_case "sine delay" `Quick test_wave_sine_delay;
          Alcotest.test_case "pulse" `Quick test_wave_pulse;
          Alcotest.test_case "pulse periodic" `Quick test_wave_pulse_periodic;
          Alcotest.test_case "pwl" `Quick test_wave_pwl;
        ] );
      ( "device",
        [
          Alcotest.test_case "diode iv" `Quick test_diode_iv;
          prop_diode_g_is_derivative;
          Alcotest.test_case "tunnel peak" `Quick test_tunnel_iv_peak;
          Alcotest.test_case "tunnel paper formula" `Quick test_tunnel_matches_paper_formula;
          prop_bjt_iv_consistent;
          prop_bjt_partials;
          Alcotest.test_case "bjt active" `Quick test_bjt_active_region;
          Alcotest.test_case "one exp per junction, same bits" `Quick test_junction_exp_bits;
        ] );
      ( "circuit",
        [
          Alcotest.test_case "duplicate" `Quick test_circuit_duplicate;
          Alcotest.test_case "nodes" `Quick test_circuit_nodes;
          Alcotest.test_case "ground aliases" `Quick test_circuit_ground_aliases;
        ] );
      ( "op",
        [
          Alcotest.test_case "divider" `Quick test_op_divider;
          Alcotest.test_case "current source" `Quick test_op_current_source;
          Alcotest.test_case "diode KCL" `Quick test_op_diode_analytic;
          Alcotest.test_case "wheatstone" `Quick test_op_wheatstone;
          Alcotest.test_case "bjt inverter" `Quick test_op_bjt_inverter;
          Alcotest.test_case "gmin floating node" `Quick test_op_gmin_floating;
          prop_op_divider_ratio;
        ] );
      ( "transient",
        [
          Alcotest.test_case "rc charge" `Quick test_tran_rc_charge;
          Alcotest.test_case "rl decay" `Quick test_tran_rl_decay;
          Alcotest.test_case "lc energy" `Quick test_tran_lc_energy;
          Alcotest.test_case "rlc decay rate" `Quick test_tran_rlc_decay_rate;
          Alcotest.test_case "sine through rc" `Quick test_tran_sine_through_rc;
          Alcotest.test_case "be damps lc" `Quick test_tran_be_damps_lc;
          Alcotest.test_case "record window" `Quick test_tran_record_window;
          Alcotest.test_case "stride" `Quick test_tran_stride;
          Alcotest.test_case "record counts" `Quick test_tran_record_counts;
          Alcotest.test_case "record growth" `Quick test_tran_record_growth;
          Alcotest.test_case "record stops with the deadline" `Quick
            test_tran_record_deadline;
          Alcotest.test_case "waveform bit pins" `Quick test_tran_pins;
          Alcotest.test_case "waveform tolerance pins" `Quick
            test_tran_tolerance_pins;
          Alcotest.test_case "newton start" `Quick test_tran_newton_start;
          Alcotest.test_case "allocation per step" `Quick test_tran_alloc;
        ] );
      ( "mosfet",
        [
          Alcotest.test_case "regions" `Quick test_mos_regions;
          Alcotest.test_case "pinchoff continuity" `Quick test_mos_continuity_at_pinchoff;
          prop_mos_partials;
          prop_mos_antisymmetry;
          Alcotest.test_case "common source op" `Quick test_mos_common_source_op;
        ] );
      ( "netlist",
        [
          Alcotest.test_case "values" `Quick test_parse_value;
          Alcotest.test_case "divider" `Quick test_parse_simple_netlist;
          Alcotest.test_case "sources" `Quick test_parse_sources;
          Alcotest.test_case "device params" `Quick test_parse_devices_with_params;
          Alcotest.test_case "error lines" `Quick test_parse_errors_carry_line;
          Alcotest.test_case "roundtrip" `Quick test_netlist_roundtrip;
        ] );
    ]
