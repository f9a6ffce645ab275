module Fig = Plotkit.Fig
module Df = Shil.Describing_function

type bench = {
  name : string;
  fc : float;
  natural_target : float;
  oscillator : Shil.Analysis.oscillator;
  fv_table : float array * float array;
  circuit : unit -> Spice.Circuit.t;
  circuit_injected : f_inj:float -> Spice.Circuit.t;
  circuit_with_extra : extra:Spice.Device.t list -> Spice.Circuit.t;
  state_pulse : at:float -> Spice.Device.t;
  state_pulse_offsets : float * float;  (* oscillation-cycle offsets of the two kicks *)
  probe : Spice.Transient.probe;
  vi : float;
  n : int;
  lock_cycles : float;  (* settle length per lock trial (tank-Q dependent) *)
  paper_table : (string * float) list;
}

let pulse_device ~name ~np ~nn ~at ~width ~amplitude =
  Spice.Device.Isource
    {
      name;
      np;
      nn;
      wave =
        Spice.Wave.Pulse
          {
            v1 = 0.0;
            v2 = amplitude;
            delay = at;
            rise = width /. 10.0;
            fall = width /. 10.0;
            width;
            period = 0.0;
          };
    }

let diff_pair () =
  let params = Circuits.Diff_pair.default in
  let vi = 0.03 and n = 3 in
  let fv_table = Circuits.Diff_pair.extraction_fv params in
  let nl = Circuits.Diff_pair.nonlinearity_of_fv fv_table in
  let tank = Circuits.Diff_pair.tank params in
  let fc = Shil.Tank.f_c tank in
  (* state-flip pulse: a strong sub-cycle kick (~10 tank charges in 0.3
     cycles) reliably throws the oscillator into a different basin *)
  let width = 0.3 /. fc in
  let amplitude = 10.0 *. params.c *. 0.505 /. width in
  {
    name = "diff-pair";
    fc;
    natural_target = 0.505;
    oscillator = { nl; tank };
    fv_table;
    circuit = (fun () -> Circuits.Diff_pair.circuit params);
    circuit_injected =
      (fun ~f_inj ->
        Circuits.Diff_pair.circuit ~injection:{ vi; n; f_inj; phase = 0.0 } params);
    circuit_with_extra =
      (fun ~extra ->
        Circuits.Diff_pair.circuit
          ~injection:{ vi; n; f_inj = 3.0 *. fc; phase = 0.0 }
          ~extra params);
    state_pulse =
      (fun ~at ->
        pulse_device
          ~name:(Printf.sprintf "IPULSE_%.0fus" (at *. 1e6))
          ~np:"ncr" ~nn:"tl" ~at ~width ~amplitude);
    state_pulse_offsets = (0.41, 0.94);
    probe = Circuits.Diff_pair.osc_probe;
    vi;
    n;
    lock_cycles = 600.0;
    paper_table =
      [
        ("simulation lower lock limit (Hz)", 1.4998e6);
        ("simulation upper lock limit (Hz)", 1.5174e6);
        ("simulation lock range (Hz)", 0.0176e6);
        ("prediction lower lock limit (Hz)", 1.501065e6);
        ("prediction upper lock limit (Hz)", 1.518735e6);
        ("prediction lock range (Hz)", 0.01767e6);
      ];
  }

let tunnel () =
  let params = Circuits.Tunnel_osc.default in
  let vi = 0.03 and n = 3 in
  let fv_table = Circuits.Tunnel_osc.extraction_fv params in
  let nl = Circuits.Tunnel_osc.nonlinearity_of_fv params fv_table in
  let tank = Circuits.Tunnel_osc.tank params in
  let fc = Shil.Tank.f_c tank in
  let width = 0.3 /. fc in
  let amplitude = 10.0 *. params.c *. 0.199 /. width in
  {
    name = "tunnel-diode";
    fc;
    natural_target = 0.199;
    oscillator = { nl; tank };
    fv_table;
    circuit = (fun () -> Circuits.Tunnel_osc.circuit params);
    circuit_injected =
      (fun ~f_inj ->
        Circuits.Tunnel_osc.circuit ~injection:{ vi; n; f_inj; phase = 0.0 } params);
    circuit_with_extra =
      (fun ~extra ->
        Circuits.Tunnel_osc.circuit
          ~injection:{ vi; n; f_inj = 3.0 *. fc; phase = 0.0 }
          ~extra params);
    state_pulse =
      (fun ~at ->
        pulse_device
          ~name:(Printf.sprintf "IPULSE_%.0fns" (at *. 1e9))
          ~np:"0" ~nn:"t" ~at ~width ~amplitude);
    state_pulse_offsets = (0.41, 0.20);
    probe = Circuits.Tunnel_osc.osc_probe;
    vi;
    n;
    (* Q = 316: near-edge beats are slow, so lock decisions need a long
       settle or the apparent band comes out wide *)
    lock_cycles = 1500.0;
    paper_table =
      [
        ("simulation lower lock limit (Hz)", 1.507185e9);
        ("simulation upper lock limit (Hz)", 1.512293e9);
        ("simulation lock range (Hz)", 0.005108e9);
        ("prediction lower lock limit (Hz)", 1.50732e9);
        ("prediction upper lock limit (Hz)", 1.512429e9);
        ("prediction lock range (Hz)", 0.005109e9);
      ];
  }

let id_prefix b = if b.name = "diff-pair" then "dp" else "td"

let fig_fv b =
  let vs, is = b.fv_table in
  let fig =
    Fig.add_line ~label:"i = f(v)"
      (Fig.create
         ~title:(Printf.sprintf "extracted i = f(v), %s" b.name)
         ~xlabel:"v (V)" ~ylabel:"i (A)" ())
      ~xs:vs ~ys:is
  in
  let nl = b.oscillator.nl in
  let id = if b.name = "diff-pair" then "F12a" else "F16b" in
  Output.make ~id
    ~title:(Printf.sprintf "DC-sweep extraction of f(v) for the %s" b.name)
    ~rows:
      [
        Output.row_f "f'(0) (S)" (Shil.Nonlinearity.deriv nl 0.0);
        Output.row_f "f(0) (A)" (Shil.Nonlinearity.eval nl 0.0);
        ("table points", string_of_int (Array.length vs));
      ]
    ~figures:[ (Printf.sprintf "fv_%s" (id_prefix b), fig) ]
    ()

let fig_natural_prediction b =
  let r = (b.oscillator.tank : Shil.Tank.t).r in
  let nl = b.oscillator.nl in
  let a_pred =
    match Shil.Natural.predicted_amplitude nl ~r with
    | Some a -> a
    | None -> Float.nan
  in
  let fig =
    Fig.create
      ~title:(Printf.sprintf "natural amplitude prediction, %s" b.name)
      ~xlabel:"A (V)" ~ylabel:"T_f(A)" ()
  in
  let fig =
    Fig.add_fun ~label:"T_f(A)" fig
      ~f:(fun a -> Df.t_f_free nl ~r ~a)
      ~a:(1e-3 *. a_pred) ~b:(1.4 *. a_pred)
  in
  let fig = Fig.add_hline ~style:(Fig.dashed Fig.black) fig ~y:1.0 in
  let fig = Fig.add_scatter fig ~xs:[| a_pred |] ~ys:[| 1.0 |] in
  let id = if b.name = "diff-pair" then "F12b" else "F16c" in
  Output.make ~id
    ~title:(Printf.sprintf "natural oscillation prediction for the %s" b.name)
    ~rows:
      [
        Output.row_f "predicted A (V)" a_pred;
        Output.row_f "paper's value (V)" b.natural_target;
      ]
    ~figures:[ (Printf.sprintf "natural_%s" (id_prefix b), fig) ]
    ()

let fig_transient b =
  let cmp =
    Circuits.Validate.natural ~cycles:400.0 ~circuit:(b.circuit ()) ~probe:b.probe
      ~osc:b.oscillator ()
  in
  (* also record the waveform for the figure: a short startup window *)
  let dt = 1.0 /. (b.fc *. 120.0) in
  let opts = Spice.Transient.default_options ~dt ~t_stop:(60.0 /. b.fc) in
  let res = Spice.Transient.run (b.circuit ()) ~probes:[ b.probe ] opts in
  let values = Spice.Transient.signal res b.probe in
  let mean = Array.fold_left ( +. ) 0.0 values /. float_of_int (Array.length values) in
  let fig =
    Fig.add_line ~label:"v_out"
      (Fig.create
         ~title:(Printf.sprintf "start-up transient, %s" b.name)
         ~xlabel:"t (s)" ~ylabel:"v_out (V)" ())
      ~xs:res.times
      ~ys:(Array.map (fun v -> v -. mean) values)
  in
  let id = if b.name = "diff-pair" then "F13" else "F17" in
  Output.make ~id
    ~title:(Printf.sprintf "transient validation of natural oscillation, %s" b.name)
    ~rows:
      [
        Output.row_f "predicted A (V)" cmp.predicted_a;
        Output.row_f "simulated A (V)" cmp.simulated_a;
        Output.row_f "predicted f (Hz)" cmp.predicted_f;
        Output.row_f "simulated f (Hz)" cmp.simulated_f;
        ( "amplitude error",
          Printf.sprintf "%.3f %%"
            (100.0 *. Float.abs (cmp.simulated_a -. cmp.predicted_a) /. cmp.predicted_a) );
      ]
    ~figures:[ (Printf.sprintf "transient_%s" (id_prefix b), fig) ]
    ()

let predicted_lock_range b =
  let r = (b.oscillator.tank : Shil.Tank.t).r in
  let a_nat =
    match Shil.Natural.predicted_amplitude b.oscillator.nl ~r with
    | Some a -> a
    | None ->
      Resilience.Oshil_error.raise_ Experiments ~phase:"osc-bench"
        No_oscillation "bench oscillator does not oscillate"
        ~remedy:"check the bench nonlinearity gain against 1/R"
  in
  let grid =
    Shil.Grid.sample b.oscillator.nl ~n:b.n ~r ~vi:b.vi
      ~a_range:(0.25 *. a_nat, 1.3 *. a_nat)
      ()
  in
  (grid, Shil.Lock_range.predict grid ~tank:b.oscillator.tank)

let table_lock_range ?(predict_only = false) b =
  let _grid, lr = predicted_lock_range b in
  let rows =
    [
      Output.row_f "prediction lower lock limit (Hz)" lr.f_inj_low;
      Output.row_f "prediction upper lock limit (Hz)" lr.f_inj_high;
      Output.row_f "prediction lock range (Hz)" lr.delta_f_inj;
      Output.row_f "prediction phi_d_max (rad)" lr.phi_d_max;
    ]
  in
  let rows =
    if predict_only then rows
    else begin
      let cmp =
        Circuits.Validate.lock_range ~cycles:b.lock_cycles
          ~make_circuit:(fun ~f_inj -> b.circuit_injected ~f_inj)
          ~probe:b.probe ~n:b.n ~predicted:lr ()
      in
      rows
      @ [
          Output.row_f "simulation lower lock limit (Hz)" cmp.sim_f_low;
          Output.row_f "simulation upper lock limit (Hz)" cmp.sim_f_high;
          Output.row_f "simulation lock range (Hz)" cmp.sim_delta;
        ]
    end
  in
  let paper_rows =
    List.map (fun (k, v) -> ("paper " ^ k, Printf.sprintf "%.8g" v)) b.paper_table
  in
  let id = if b.name = "diff-pair" then "T1" else "T2" in
  ( Output.make ~id
      ~title:
        (Printf.sprintf "SHIL lock-range table, %s (|Vi| = %g, n = %d)" b.name
           b.vi b.n)
      ~rows:(rows @ paper_rows) (),
    lr )

let fig_lock_range_curves b =
  let grid, lr = predicted_lock_range b in
  let phi_ds =
    [
      (0.0, Fig.solid Fig.green);
      (0.5 *. lr.phi_d_max, Fig.solid Fig.orange);
      (0.98 *. lr.phi_d_max, Fig.solid Fig.red);
    ]
  in
  let fig =
    Fig.create
      ~title:(Printf.sprintf "SHIL lock range prediction, %s" b.name)
      ~xlabel:"phi (rad)" ~ylabel:"A (V)" ()
  in
  let fig =
    Fig.add_polylines ~label:"C_{T_f,1}" ~style:(Fig.solid Fig.blue) fig
      ~curves:(Shil.Grid.t_f_curve grid)
  in
  let fig =
    List.fold_left
      (fun fig (phi_d, style) ->
        Fig.add_polylines
          ~label:(Printf.sprintf "angle(-I1) = %.3g" (-.phi_d))
          ~style fig
          ~curves:(Shil.Grid.phase_curve grid ~phi_d))
      fig phi_ds
  in
  let id = if b.name = "diff-pair" then "F14" else "F18" in
  Output.make ~id
    ~title:(Printf.sprintf "lock-range isoline picture, %s" b.name)
    ~rows:[ Output.row_f "phi_d_max (rad)" lr.phi_d_max ]
    ~figures:[ (Printf.sprintf "lockrange_%s" (id_prefix b), fig) ]
    ()

let fig_states b =
  let window_cycles = 800.0 in
  let f_osc = b.fc in
  let window = window_cycles /. f_osc in
  (* stagger the pulse instants off the lock period so the two kicks hit
     at different oscillation phases (a deterministic simulator otherwise
     reproduces the same state every time) *)
  let off1, off2 = b.state_pulse_offsets in
  let pulse_times =
    [ window +. (off1 /. f_osc); (2.0 *. window) +. (off2 /. f_osc) ]
  in
  let phases =
    Circuits.Validate.lock_states
      ~cycles:(3.0 *. window_cycles)
      ~make_circuit:(fun ~extra -> b.circuit_with_extra ~extra)
      ~probe:b.probe ~n:b.n
      ~f_inj:(3.0 *. b.fc)
      ~pulse:(fun ~at -> b.state_pulse ~at)
      ~pulse_times ()
  in
  let spacing = 2.0 *. Float.pi /. float_of_int b.n in
  let rows =
    List.mapi
      (fun k psi ->
        ( Printf.sprintf "window %d phase (rad)" k,
          Printf.sprintf "%.5f (state %.2f)" psi
            (Numerics.Angle.wrap_two_pi psi /. spacing) ))
      phases
  in
  let distinct =
    List.sort_uniq Int.compare
      (List.map
         (fun psi ->
           int_of_float
             (Float.round (Numerics.Angle.wrap_two_pi psi /. spacing))
           mod b.n)
         phases)
  in
  let id = if b.name = "diff-pair" then "F15" else "F19" in
  Output.make ~id
    ~title:(Printf.sprintf "SHIL states under phase-flip pulses, %s" b.name)
    ~rows:
      (rows
      @ [
          ("distinct states observed", string_of_int (List.length distinct));
          Output.row_f "expected spacing (rad)" spacing;
        ])
    ()
