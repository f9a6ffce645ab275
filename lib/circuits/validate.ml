module Signal = Waveform.Signal

type natural_cmp = {
  predicted_a : float;
  simulated_a : float;
  predicted_f : float;
  simulated_f : float;
}

let transient_signal ~circuit ~probe ~dt ~t_stop =
  let opts = Spice.Transient.default_options ~dt ~t_stop in
  let res = Spice.Transient.run circuit ~probes:[ probe ] opts in
  (* a truncated waveform would silently corrupt the measurement — turn
     a degraded transient back into a typed failure here *)
  (match res.failure with
  | Some e -> raise (Resilience.Oshil_error.Error e)
  | None -> ());
  Signal.make ~times:res.times ~values:(Spice.Transient.signal res probe)

let natural ?(cycles = 400.0) ?(steps_per_cycle = 120) ~circuit ~probe
    ~(osc : Shil.Analysis.oscillator) () =
  let fc = Shil.Tank.f_c osc.tank in
  let r = (osc.tank : Shil.Tank.t).r in
  let predicted_a =
    match Shil.Natural.predicted_amplitude osc.nl ~r with
    | Some a -> a
    | None -> Float.nan
  in
  let dt = 1.0 /. (fc *. float_of_int steps_per_cycle) in
  let t_stop = cycles /. fc in
  let s = transient_signal ~circuit ~probe ~dt ~t_stop in
  let tail = Signal.tail_fraction s 0.25 in
  let mean = Signal.mean tail in
  let centred = Signal.shift_values tail (-.mean) in
  {
    predicted_a;
    simulated_a = Waveform.Measure.amplitude centred;
    predicted_f = fc;
    simulated_f = Waveform.Measure.frequency centred;
  }

(* the lock verdict of one injected run, on the mean-free waveform *)
let lock_probe ~circuit ~probe ~n ~f_inj ~dt ~t_stop =
  let s = transient_signal ~circuit ~probe ~dt ~t_stop in
  let s = Signal.shift_values s (-.Signal.mean s) in
  (Waveform.Lock.analyze s ~f_target:(f_inj /. float_of_int n)).locked

let locked ?(cycles = 600.0) ?(steps_per_cycle = 180) ~circuit ~probe ~n
    ~f_inj () =
  let f_osc = f_inj /. float_of_int n in
  lock_probe ~circuit ~probe ~n ~f_inj
    ~dt:(1.0 /. (f_osc *. float_of_int steps_per_cycle))
    ~t_stop:(cycles /. f_osc)

type lock_cmp = {
  predicted : Shil.Lock_range.t;
  sim_f_low : float;
  sim_f_high : float;
  sim_delta : float;
  failures : Resilience.Summary.t;
}

let lock_range ?(cycles = 600.0) ?(steps_per_cycle = 180) ?(rel_tol = 2e-5)
    ~make_circuit ~probe ~n ~(predicted : Shil.Lock_range.t) () =
  let f_center = 0.5 *. (predicted.f_inj_low +. predicted.f_inj_high) in
  let f_osc_center = f_center /. float_of_int n in
  let dt = 1.0 /. (f_osc_center *. float_of_int steps_per_cycle) in
  let t_stop = cycles /. f_osc_center in
  let guard =
    Resilience.Guard.make ~fault:"validate-point"
      ~label:(Printf.sprintf "f_inj=%.8g") Circuits ~phase:"validate"
  in
  let locked f_inj =
    lock_probe ~circuit:(make_circuit ~f_inj) ~probe ~n ~f_inj ~dt ~t_stop
  in
  let tol = rel_tol *. f_center in
  let delta = Float.max (predicted.delta_f_inj *. 0.5) (20.0 *. tol) in
  let centre_locked =
    Resilience.Guard.run guard f_center (fun () -> locked f_center) = Ok true
  in
  (* the centre is probed once; each edge then marches out through the
     predicted edge [g] in steps of [delta]. The two edges are
     independent chains of transient runs, concurrent on a multicore
     pool; a failed edge, or both when the centre does not lock, is a
     NaN + typed hole. *)
  let search (side, g, dir) =
    if not centre_locked then
      raise
        (Resilience.Oshil_error.Error
           (Resilience.Oshil_error.make Circuits ~phase:"validate" Root_failure
              "the simulated oscillator does not lock at the predicted band \
               centre"
              ~context:
                [ ("f_centre", Printf.sprintf "%.8g" f_center);
                  ("cycles", Printf.sprintf "%g" cycles) ]
              ~remedy:
                "lengthen the lock trial (cycles) or re-check the prediction"));
    match
      Numerics.Roots.edge ~site:"validate.lockrange.f_inj" guard
        ~probe:locked ~inside:f_center
        ~outward:(List.init 7 (fun k -> g +. (dir *. float_of_int k *. delta)))
        ~tol
    with
    | Bracketed (f_in, f_out) -> 0.5 *. (f_in +. f_out)
    | Not_bracketed _ ->
      Resilience.Oshil_error.raise_ Circuits ~phase:"validate" Root_failure
        "cannot bracket lock edge"
        ~context:[ ("side", side); ("f_guess", Printf.sprintf "%.8g" g) ]
        ~remedy:"widen the search (rel_tol) or re-check the prediction"
  in
  let edge_guard =
    Resilience.Guard.make ~fault:"pool-task"
      ~label:(fun (side, _, _) -> side ^ " edge")
      Circuits ~phase:"validate"
  in
  let edges =
    Numerics.Pool.guarded_map ~chunk:1 edge_guard search
      [| ("low", predicted.f_inj_low, -1.0);
         ("high", predicted.f_inj_high, 1.0) |]
  in
  let edge i = Result.value edges.(i) ~default:Float.nan in
  let probes = Resilience.Guard.summary guard in
  let failures =
    probes.failures @ (Resilience.Guard.summary edge_guard).failures
  in
  { predicted; sim_f_low = edge 0; sim_f_high = edge 1;
    sim_delta = edge 1 -. edge 0; failures = { probes with failures } }

let lock_states ?(cycles = 900.0) ?(steps_per_cycle = 180) ~make_circuit
    ~probe ~n ~f_inj ~pulse ~pulse_times () =
  let f_osc = f_inj /. float_of_int n in
  let dt = 1.0 /. (f_osc *. float_of_int steps_per_cycle) in
  let t_stop = cycles /. f_osc in
  let extra = List.map (fun at -> pulse ~at) pulse_times in
  let s = transient_signal ~circuit:(make_circuit ~extra) ~probe ~dt ~t_stop in
  let mean = Signal.mean s in
  let s = Signal.shift_values s (-.mean) in
  (* windows: from after each pulse (plus settle margin) to the next *)
  let boundaries = 0.0 :: List.sort Float.compare pulse_times in
  let ends = List.tl boundaries @ [ t_stop ] in
  List.map2
    (fun t0 t1 ->
      let settle = 0.35 *. (t1 -. t0) in
      let w = Signal.slice s ~t_min:(t0 +. settle) ~t_max:t1 in
      Numerics.Cx.arg (Waveform.Measure.fundamental w ~freq:f_osc))
    boundaries ends

let pp_lock ppf c =
  Format.fprintf ppf
    "@[<v>lock range (injection-referred):@,\
     prediction: [%.8g, %.8g] Hz, delta %.6g Hz@,\
     simulation: [%.8g, %.8g] Hz, delta %.6g Hz@]"
    c.predicted.f_inj_low c.predicted.f_inj_high c.predicted.delta_f_inj
    c.sim_f_low c.sim_f_high c.sim_delta
