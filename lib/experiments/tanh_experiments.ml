module Fig = Plotkit.Fig
module Df = Shil.Describing_function

type setup = { params : Circuits.Tanh_osc.params; vi : float; n : int }

let default_setup = { params = Circuits.Tanh_osc.default; vi = 0.2; n = 3 }

let oscillator s = Circuits.Tanh_osc.oscillator s.params

let report s = Shil.Analysis.run (oscillator s) ~n:s.n ~vi:s.vi

let fig3_natural ?(validate = true) s =
  let osc = oscillator s in
  let r = s.params.r in
  let a_pred =
    match Shil.Natural.predicted_amplitude osc.nl ~r with
    | Some a -> a
    | None -> Float.nan
  in
  let fig =
    Fig.create ~title:"Fig. 3: natural oscillation amplitude (neg-tanh)"
      ~xlabel:"A (V)" ~ylabel:"T_f(A)" ()
  in
  let fig =
    Fig.add_fun ~label:"T_f(A)" fig
      ~f:(fun a -> Df.t_f_free osc.nl ~r ~a)
      ~a:1e-3 ~b:(2.2 *. a_pred)
  in
  let fig = Fig.add_hline ~style:(Fig.dashed Fig.black) fig ~y:1.0 in
  let fig = Fig.add_scatter fig ~xs:[| a_pred |] ~ys:[| 1.0 |] in
  let rows = [ Output.row_f "predicted A (V)" a_pred ] in
  let rows =
    if validate then begin
      let cell = Api.Cells.behavioural osc in
      let cmp =
        Circuits.Validate.natural ~cycles:300.0
          ~steps_per_cycle:(snd cell.lock_trial) ~circuit:(cell.circuit None)
          ~probe:cell.probe ~osc ()
      in
      rows
      @ [
          Output.row_f "simulated A (V)" cmp.simulated_a;
          Output.row_f "simulated f (Hz)" cmp.simulated_f;
          Output.row_f "tank f_c (Hz)" (Shil.Tank.f_c osc.tank);
        ]
    end
    else rows
  in
  Output.make ~id:"F3" ~title:"natural oscillation of the tanh oscillator"
    ~rows ~figures:[ ("tf_vs_a", fig) ] ()

let fig6_tank s =
  let tank = Circuits.Tanh_osc.tank s.params in
  let fc = Shil.Tank.f_c tank in
  let mag_fig =
    Fig.add_fun ~label:"|H(j2\xcf\x80f)|"
      (Fig.create ~title:"Fig. 6: RLC tank transfer function (magnitude)"
         ~xlabel:"f (Hz)" ~ylabel:"|H| (Ohm)" ())
      ~f:(fun f -> Shil.Tank.mag tank ~omega:(2.0 *. Float.pi *. f))
      ~a:(0.5 *. fc) ~b:(1.5 *. fc) ~n:512
  in
  let phase_fig =
    Fig.add_fun ~label:"arg H"
      (Fig.create ~title:"Fig. 6: RLC tank transfer function (phase)"
         ~xlabel:"f (Hz)" ~ylabel:"phi_d (rad)" ())
      ~f:(fun f -> Shil.Tank.phase tank ~omega:(2.0 *. Float.pi *. f))
      ~a:(0.5 *. fc) ~b:(1.5 *. fc) ~n:512
  in
  let f45 = Shil.Tank.omega_of_phase tank ~phi_d:(-.Float.pi /. 4.0) /. (2.0 *. Float.pi) in
  Output.make ~id:"F6" ~title:"RLC tank transfer function"
    ~rows:
      [
        Output.row_f "f_c (Hz)" fc;
        Output.row_f "Q" (Shil.Tank.q tank);
        Output.row_f "peak |H| (Ohm)" (Shil.Tank.mag tank ~omega:(Shil.Tank.omega_c tank));
        Output.row_f "-45 deg frequency (Hz)" f45;
      ]
    ~figures:[ ("magnitude", mag_fig); ("phase", phase_fig) ]
    ()

let solution_rows sols =
  List.concat_map
    (fun (p : Shil.Solutions.point) ->
      let tag = Printf.sprintf "lock at phi=%.4f" p.phi in
      [
        (tag, Printf.sprintf "A=%.6g V, %s (tr=%.3g, det=%.3g)" p.a
           (if p.stable then "stable" else "unstable") p.trace p.det);
      ])
    sols

let curves_figure ~title g ~phi_ds =
  let fig =
    Fig.create ~title ~xlabel:"phi (rad)" ~ylabel:"A (V)" ()
  in
  let fig =
    Fig.add_polylines ~label:"C_{T_f,1}" ~style:(Fig.solid Fig.blue) fig
      ~curves:(Shil.Grid.t_f_curve g)
  in
  List.fold_left
    (fun fig (phi_d, style) ->
      Fig.add_polylines
        ~label:(Printf.sprintf "angle(-I1) = %.3g" (-.phi_d))
        ~style fig
        ~curves:(Shil.Grid.phase_curve g ~phi_d))
    fig phi_ds

let fig7_solutions s =
  let phi_d = 0.1 in
  let g = (report s).grid in
  let sols = Shil.Solutions.find g ~phi_d in
  let fig =
    curves_figure
      ~title:
        (Printf.sprintf "Fig. 7: SHIL lock solutions at phi_d = %.3g" phi_d)
      g
      ~phi_ds:[ (phi_d, Fig.solid Fig.green) ]
  in
  let stable = List.filter (fun (p : Shil.Solutions.point) -> p.stable) sols in
  let unstable = List.filter (fun (p : Shil.Solutions.point) -> not p.stable) sols in
  let scatter pts color fig =
    Fig.add_scatter ~color fig
      ~xs:(Array.of_list (List.map (fun (p : Shil.Solutions.point) -> p.phi) pts))
      ~ys:(Array.of_list (List.map (fun (p : Shil.Solutions.point) -> p.a) pts))
  in
  let fig = scatter stable Fig.green fig in
  let fig = scatter unstable Fig.red fig in
  Output.make ~id:"F7" ~title:"SHIL solutions in the (phi, A) plane"
    ~rows:
      ((("number of locks", string_of_int (List.length sols)) :: solution_rows sols))
    ~figures:[ ("curves", fig) ]
    ()

let fig9_states s =
  let sols = (report s).locks_at_center in
  match List.find_opt (fun (p : Shil.Solutions.point) -> p.stable) sols with
  | None ->
    Output.make ~id:"F9" ~title:"n states of SHIL"
      ~rows:[ ("error", "no stable lock at centre frequency") ]
      ()
  | Some p ->
    let states = Shil.Solutions.n_states p ~n:s.n in
    let fig =
      Fig.create ~title:"Fig. 9: the n oscillator states (n = 3)"
        ~xlabel:"Re" ~ylabel:"Im" ()
    in
    (* unit circle guide *)
    let t = Array.init 128 (fun k -> 2.0 *. Float.pi *. float_of_int k /. 127.0) in
    let fig =
      Fig.add_line ~style:(Fig.dashed Fig.gray) fig
        ~xs:(Array.map (fun a -> p.a *. cos a) t)
        ~ys:(Array.map (fun a -> p.a *. sin a) t)
    in
    let fig =
      List.fold_left
        (fun fig (psi, a) ->
          Fig.add_line ~style:(Fig.solid Fig.blue) fig
            ~xs:[| 0.0; a *. cos psi |]
            ~ys:[| 0.0; a *. sin psi |])
        fig states
    in
    let rows =
      List.mapi
        (fun k (psi, a) ->
          ( Printf.sprintf "state %d" k,
            Printf.sprintf "psi = %.6g rad, A = %.6g V" psi a ))
        states
    in
    let spacing =
      match states with
      | (psi0, _) :: (psi1, _) :: _ -> Numerics.Angle.dist psi1 psi0
      | _ -> Float.nan
    in
    Output.make ~id:"F9" ~title:"n states of SHIL (phasor picture)"
      ~rows:(rows @ [ Output.row_f "state spacing (rad)" spacing;
                      Output.row_f "2 pi / n (rad)" (2.0 *. Float.pi /. float_of_int s.n) ])
      ~figures:[ ("states", fig) ]
      ()

let fig10_lock_range ?(validate = false) s =
  let report = report s in
  let lr = report.lock_range in
  let phi_ds =
    [
      (0.0, Fig.solid Fig.green);
      (0.5 *. lr.phi_d_max, Fig.solid Fig.orange);
      (0.98 *. lr.phi_d_max, Fig.solid Fig.red);
      (-0.5 *. lr.phi_d_max, Fig.dashed Fig.orange);
      (-0.98 *. lr.phi_d_max, Fig.dashed Fig.red);
    ]
  in
  let fig =
    curves_figure ~title:"Fig. 10: lock-range prediction via isolines"
      report.grid ~phi_ds
  in
  let rows =
    [
      Output.row_f "phi_d_max (rad)" lr.phi_d_max;
      Output.row_f "f_inj low (Hz)" lr.f_inj_low;
      Output.row_f "f_inj high (Hz)" lr.f_inj_high;
      Output.row_f "lock range (Hz)" lr.delta_f_inj;
      ("paper Fig. 10 boundary", "-0.295 rad (their tanh parameters)");
    ]
  in
  let rows =
    if validate then begin
      let cmp =
        Api.Cells.validate (Api.Cells.behavioural report.osc) ~n:s.n ~vi:s.vi
          ~predicted:lr
      in
      rows
      @ [
          Output.row_f "simulated f_inj low (Hz)" cmp.sim_f_low;
          Output.row_f "simulated f_inj high (Hz)" cmp.sim_f_high;
          Output.row_f "simulated lock range (Hz)" cmp.sim_delta;
        ]
    end
    else rows
  in
  Output.make ~id:"F10" ~title:"SHIL lock range of the tanh oscillator" ~rows
    ~figures:[ ("isolines", fig) ]
    ()
