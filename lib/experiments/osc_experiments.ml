module Fig = Plotkit.Fig
module Df = Shil.Describing_function

type ids = {
  fv : string;
  natural : string;
  transient : string;
  table : string;
  curves : string;
  states : string;
}

type bench = {
  cell : string;
  name : string;
  stem : string;
  ids : ids;
  of_table : float array * float array -> Shil.Nonlinearity.t;
  natural_target : float;
  n : int;
  vi : float;
  paper_table : (string * float) list;
}

let diff_pair =
  {
    cell = "diffpair";
    name = "diff-pair";
    stem = "dp";
    ids =
      { fv = "F12a"; natural = "F12b"; transient = "F13"; table = "T1";
        curves = "F14"; states = "F15" };
    of_table = Circuits.Diff_pair.nonlinearity_of_fv;
    natural_target = 0.505;
    n = 3;
    vi = 0.03;
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

let tunnel =
  {
    cell = "tunnel";
    name = "tunnel-diode";
    stem = "td";
    ids =
      { fv = "F16b"; natural = "F16c"; transient = "F17"; table = "T2";
        curves = "F18"; states = "F19" };
    of_table = Circuits.Tunnel_osc.(nonlinearity_of_fv default);
    natural_target = 0.199;
    n = 3;
    vi = 0.03;
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

let cell b = Api.Cells.of_spec (Builtin b.cell)
let report b = Shil.Analysis.run ((cell b).oscillator ()) ~n:b.n ~vi:b.vi

let fig_fv b =
  let vs, is = (cell b).fv () in
  let fig =
    Fig.add_line ~label:"i = f(v)"
      (Fig.create
         ~title:(Printf.sprintf "extracted i = f(v), %s" b.name)
         ~xlabel:"v (V)" ~ylabel:"i (A)" ())
      ~xs:vs ~ys:is
  in
  let nl = b.of_table (vs, is) in
  Output.make ~id:b.ids.fv
    ~title:(Printf.sprintf "DC-sweep extraction of f(v) for the %s" b.name)
    ~rows:
      [
        Output.row_f "f'(0) (S)" (Shil.Nonlinearity.deriv nl 0.0);
        Output.row_f "f(0) (A)" (Shil.Nonlinearity.eval nl 0.0);
        ("table points", string_of_int (Array.length vs));
      ]
    ~figures:[ ("fv_" ^ b.stem, fig) ]
    ()

let fig_natural_prediction b =
  let osc = (cell b).oscillator () in
  let r = osc.tank.r in
  let a_pred =
    match Shil.Natural.predicted_amplitude osc.nl ~r with
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
      ~f:(fun a -> Df.t_f_free osc.nl ~r ~a)
      ~a:(1e-3 *. a_pred) ~b:(1.4 *. a_pred)
  in
  let fig = Fig.add_hline ~style:(Fig.dashed Fig.black) fig ~y:1.0 in
  let fig = Fig.add_scatter fig ~xs:[| a_pred |] ~ys:[| 1.0 |] in
  Output.make ~id:b.ids.natural
    ~title:(Printf.sprintf "natural oscillation prediction for the %s" b.name)
    ~rows:
      [
        Output.row_f "predicted A (V)" a_pred;
        Output.row_f "paper's value (V)" b.natural_target;
      ]
    ~figures:[ ("natural_" ^ b.stem, fig) ]
    ()

let fig_transient b =
  let cell = cell b in
  let fc = Shil.Tank.f_c cell.tank in
  let cmp =
    Circuits.Validate.natural ~cycles:400.0 ~circuit:(cell.circuit None)
      ~probe:cell.probe ~osc:(cell.oscillator ()) ()
  in
  (* also record the waveform for the figure: a short startup window *)
  let dt = 1.0 /. (fc *. 120.0) in
  let opts = Spice.Transient.default_options ~dt ~t_stop:(60.0 /. fc) in
  let res = Spice.Transient.run (cell.circuit None) ~probes:[ cell.probe ] opts in
  let values = Spice.Transient.signal res cell.probe in
  let mean = Array.fold_left ( +. ) 0.0 values /. float_of_int (Array.length values) in
  let fig =
    Fig.add_line ~label:"v_out"
      (Fig.create
         ~title:(Printf.sprintf "start-up transient, %s" b.name)
         ~xlabel:"t (s)" ~ylabel:"v_out (V)" ())
      ~xs:res.times
      ~ys:(Array.map (fun v -> v -. mean) values)
  in
  Output.make ~id:b.ids.transient
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
    ~figures:[ ("transient_" ^ b.stem, fig) ]
    ()

let table_lock_range ?(predict_only = false) b =
  let lr = (report b).lock_range in
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
      let cmp = Api.Cells.validate (cell b) ~n:b.n ~vi:b.vi ~predicted:lr in
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
  Output.make ~id:b.ids.table
    ~title:
      (Printf.sprintf "SHIL lock-range table, %s (|Vi| = %g, n = %d)" b.name
         b.vi b.n)
    ~rows:(rows @ paper_rows) ()

let fig_lock_range_curves b =
  let report = report b in
  let lr = report.lock_range in
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
      ~curves:(Shil.Grid.t_f_curve report.grid)
  in
  let fig =
    List.fold_left
      (fun fig (phi_d, style) ->
        Fig.add_polylines
          ~label:(Printf.sprintf "angle(-I1) = %.3g" (-.phi_d))
          ~style fig
          ~curves:(Shil.Grid.phase_curve report.grid ~phi_d))
      fig phi_ds
  in
  Output.make ~id:b.ids.curves
    ~title:(Printf.sprintf "lock-range isoline picture, %s" b.name)
    ~rows:[ Output.row_f "phi_d_max (rad)" lr.phi_d_max ]
    ~figures:[ ("lockrange_" ^ b.stem, fig) ]
    ()

let fig_states b =
  let cell = cell b in
  let flip = Option.get cell.flip (* every device row has one *) in
  let window_cycles = 800.0 in
  let f_osc = Shil.Tank.f_c cell.tank in
  let f_inj = float_of_int b.n *. f_osc in
  let window = window_cycles /. f_osc in
  (* stagger the pulse instants off the lock period so the two kicks hit
     at different oscillation phases (a deterministic simulator otherwise
     reproduces the same state every time) *)
  let off1, off2 = flip.offsets in
  let pulse_times =
    [ window +. (off1 /. f_osc); (2.0 *. window) +. (off2 /. f_osc) ]
  in
  let phases =
    Circuits.Validate.lock_states
      ~cycles:(3.0 *. window_cycles)
      ~make_circuit:(fun ~extra ->
        cell.circuit ~extra (Some { n = b.n; vi = b.vi; f_inj }))
      ~probe:cell.probe ~n:b.n ~f_inj ~pulse:flip.pulse ~pulse_times ()
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
  Output.make ~id:b.ids.states
    ~title:(Printf.sprintf "SHIL states under phase-flip pulses, %s" b.name)
    ~rows:
      (rows
      @ [
          ("distinct states observed", string_of_int (List.length distinct));
          Output.row_f "expected spacing (rad)" spacing;
        ])
    ()
