type oscillator = { nl : Nonlinearity.t; tank : Tank.t }

let src = Logs.Src.create "oshil.shil" ~doc:"SHIL analysis pre-flight"

module Log = (val Logs.src_log src : Logs.LOG)

let preflight ?points ?n_phi ?n_amp ?a_range osc ~n ~vi =
  let tank = (osc.tank : Tank.t) in
  let cfg =
    Check.Shil.config ?a_range ?n_phi ?n_amp ?points ~r:tank.r ~l:tank.l
      ~c:tank.c ~n ~vi ()
  in
  let v_scale =
    match a_range with Some (_, hi) -> Float.max hi vi | None -> Float.max 1.0 vi
  in
  Check.Shil.check ~nl:(Nonlinearity.eval osc.nl) ~v_scale cfg

let emit (d : Check.Diagnostic.t) =
  match d.severity with
  | Check.Diagnostic.Error | Check.Diagnostic.Warning ->
    Log.warn (fun m -> m "%a" Check.Diagnostic.pp d)
  | Check.Diagnostic.Info -> Log.info (fun m -> m "%a" Check.Diagnostic.pp d)

let gate ?(mode = `Enforce) ?points ?n_phi ?n_amp ?a_range osc ~n ~vi =
  match (mode : Check.Diagnostic.gate_mode) with
  | `Off -> ()
  | (`Enforce | `Warn) as mode ->
    Check.Diagnostic.gate ~mode ~emit
      (preflight ?points ?n_phi ?n_amp ?a_range osc ~n ~vi)

type shil_report = {
  osc : oscillator;
  n : int;
  vi : float;
  natural : Natural.solution list;
  natural_amplitude : float option;
  grid : Grid.t;
  locks_at_center : Solutions.point list;
  lock_range : Lock_range.t;
  injection_harmonic : Numerics.Cx.t option;
  quadrature : Describing_function.points_choice option;
}

let run ?(check = `Enforce) ?points ?n_phi ?n_amp ?a_range ?reduction osc ~n ~vi
    =
  gate ~mode:check ?points ?n_phi ?n_amp ?a_range osc ~n ~vi;
  Obs.Span.with_ ~cat:"shil" ~name:"shil.analysis.run"
    ~attrs:[ ("n", string_of_int n); ("vi", Printf.sprintf "%g" vi) ]
  @@ fun () ->
  let r = (osc.tank : Tank.t).r in
  (* without [?points], every quadrature is sized from its stated error:
     to a tenth of the edge tolerance, since a relative I1 error delta
     moves the eq. 4 phase by about delta rad. The caps keep every sum
     at or below the fixed default counts. *)
  let tol = Lock_range.default_tol /. 10.0 in
  let natural =
    Obs.Span.with_ ~cat:"shil" ~name:"shil.analysis.natural" (fun () ->
        match points with
        | Some _ -> Natural.solve ?points osc.nl ~r
        | None -> Natural.solve_within ~tol osc.nl ~r)
  in
  let natural_amplitude =
    List.fold_left
      (fun acc (s : Natural.solution) -> if s.stable then Some s.a else acc)
      None natural
  in
  let a_range =
    match (a_range, natural_amplitude) with
    | Some range, _ -> range
    | None, Some a -> (0.25 *. a, 1.25 *. a)
    | None, None ->
      Resilience.Oshil_error.raise_ Shil ~phase:"analysis" No_oscillation
        "oscillator has no stable natural oscillation"
        ~remedy:"supply ~a_range explicitly"
  in
  let quadrature =
    match points with
    | Some _ -> None
    | None ->
      Some
        (Describing_function.choose_points ?reduction
           ~grid_cap:Grid.default_points ~tol osc.nl ~n ~vi ~a_range)
  in
  let points, grid_points, psi =
    match quadrature with
    | None -> (points, points, None)
    | Some q -> (Some q.points, Some (min q.points Grid.default_points), q.psi)
  in
  (* cooperative deadline probes between pipeline phases: a request
     whose budget expires unwinds with a typed [budget-exhausted] error
     at the next phase boundary instead of running to completion *)
  Resilience.Deadline.check Shil ~phase:"analysis.grid";
  let grid =
    Grid.sample ?points:grid_points ?psi ?n_phi ?n_amp ?reduction osc.nl ~n ~r
      ~vi ~a_range ()
  in
  Resilience.Deadline.check Shil ~phase:"analysis.lock-range";
  let lock_range = Lock_range.predict ?points grid ~tank:osc.tank in
  (* the prediction's first probe already solved phi_d = 0 on this grid *)
  let locks_at_center = lock_range.at_center in
  (* diagnostic: the n-th harmonic of the current at the reference
     amplitude — how much of the injected tone the nonlinearity itself
     regenerates. Uses the amplitude of the stable lock the oscillator
     settles into at the centre, else the natural amplitude. *)
  let injection_harmonic =
    let ref_a =
      match
        List.find_opt (fun (p : Solutions.point) -> p.stable) locks_at_center
      with
      | Some p -> Some p.a
      | None -> natural_amplitude
    in
    Option.map
      (fun a ->
        Describing_function.ik_two_tone ?points ?reduction osc.nl ~n ~a ~vi
          ~phi:0.0 ~k:n)
      ref_a
  in
  {
    osc;
    n;
    vi;
    natural;
    natural_amplitude;
    grid;
    locks_at_center;
    lock_range;
    injection_harmonic;
    quadrature;
  }

let locks_at ?points report ~f_inj =
  let omega_i = 2.0 *. Float.pi *. f_inj /. float_of_int report.n in
  let phi_d = Tank.phase report.osc.tank ~omega:omega_i in
  let points =
    match (points, report.quadrature) with
    | None, Some q -> Some q.points
    | points, _ -> points
  in
  Solutions.find ?points report.grid ~phi_d

let pp ppf r =
  let open Format in
  fprintf ppf "@[<v>SHIL analysis: %s, n = %d, |Vi| = %g@,%a@,"
    (Nonlinearity.name r.osc.nl) r.n r.vi Tank.pp r.osc.tank;
  (match r.natural_amplitude with
  | Some a -> fprintf ppf "natural oscillation: A = %.6g V@," a
  | None -> fprintf ppf "no stable natural oscillation@,");
  fprintf ppf "locks at centre frequency:@,";
  List.iter
    (fun (p : Solutions.point) ->
      fprintf ppf "  phi = %.4f rad, A = %.6g V, %s@," p.phi p.a
        (if p.stable then "stable" else "unstable"))
    r.locks_at_center;
  (match r.injection_harmonic with
  | Some z ->
    fprintf ppf "injection harmonic |I%d| = %.6g A@," r.n (Numerics.Cx.abs z)
  | None -> ());
  fprintf ppf "%a@]" Lock_range.pp r.lock_range
