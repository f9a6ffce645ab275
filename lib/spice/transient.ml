type probe = Node of string | Diff of string * string | Branch of string

type options = {
  dt : float;
  t_stop : float;
  t_start : float;
  integ : Mna.integ;
  use_ic : bool;
  record_stride : int;
  gmin : float;
  budget : Resilience.Policy.budget;
}

let default_options ~dt ~t_stop =
  {
    dt;
    t_stop;
    t_start = 0.0;
    integ = Mna.Trap;
    use_ic = false;
    record_stride = 1;
    gmin = 1e-12;
    budget = Resilience.Policy.default_budget;
  }

type result = {
  times : float array;
  signals : (probe * float array) list;
  failure : Resilience.Oshil_error.t option;
      (** [Some e] when integration stopped early; the waveform holds
          everything accumulated up to the fatal step *)
}

(* Internal unwind from deep inside the stepping loops; never escapes
   [run_gated]. *)
exception Fatal of Resilience.Oshil_error.t

let probe_reader compiled probe =
  match probe with
  | Node n ->
    let i = Mna.node_index compiled n in
    fun (x : float array) -> if i < 0 then 0.0 else x.(i)
  | Diff (a, b) ->
    let ia = Mna.node_index compiled a and ib = Mna.node_index compiled b in
    fun x ->
      (if ia < 0 then 0.0 else x.(ia)) -. if ib < 0 then 0.0 else x.(ib)
  | Branch name ->
    let i = Mna.branch_index compiled name in
    fun x -> x.(i)

let run_gated ~check circuit ~probes opts =
  Preflight.gate ~mode:check circuit;
  let compiled = Mna.compile circuit in
  let size = Mna.size compiled in
  (* initial solution; with use_ic, solve a DC problem where IC'd
     capacitors become voltage sources and IC'd inductors current
     sources, then map the node voltages back by name *)
  let x0 =
    if opts.use_ic then begin
      let ic_circuit =
        Circuit.of_devices
          (List.map
             (fun (d : Device.t) ->
               match d with
               | Capacitor { name; n1; n2; ic; _ } ->
                 (* UIC: unspecified initial conditions are zero *)
                 let v = Option.value ic ~default:0.0 in
                 Device.Vsource { name; np = n1; nn = n2; wave = Wave.Dc v }
               | Inductor { name; n1; n2; ic; _ } ->
                 let i = Option.value ic ~default:0.0 in
                 Device.Isource { name; np = n1; nn = n2; wave = Wave.Dc i }
               | d -> d)
             (Circuit.devices circuit))
      in
      (* the IC transform rewrites capacitors into voltage sources, which
         can legitimately form source loops; it was vetted above *)
      let op = Op.run ~check:`Off ic_circuit in
      let x = Array.make size 0.0 in
      List.iter
        (fun (d : Device.t) ->
          List.iter
            (fun n ->
              if not (Circuit.is_ground n) then begin
                let i = Mna.node_index compiled n in
                if i >= 0 then x.(i) <- Op.voltage op n
              end)
            (Device.nodes d))
        (Circuit.devices circuit);
      (* branch currents: inductors take their IC (or the solved DC
         current); voltage sources take the solved branch current *)
      List.iter
        (fun (d : Device.t) ->
          match d with
          | Inductor { name; ic; _ } ->
            let br = Mna.branch_index compiled name in
            x.(br) <- Option.value ic ~default:0.0
          | Vsource { name; _ } ->
            let br = Mna.branch_index compiled name in
            x.(br) <- (try Op.current op name with Not_found -> 0.0)
          | Resistor _ | Capacitor _ | Isource _ | Diode _ | Bjt _
          | Tunnel_diode _ | Mosfet _ | Nonlinear_cs _ -> ())
        (Circuit.devices circuit);
      x
    end
    else begin
      let op = Op.run ~check:`Off circuit in
      op.Op.x
    end
  in
  let state = ref (Mna.init_state compiled ~use_ic:opts.use_ic ~x:x0) in
  let readers = List.map (fun p -> (p, probe_reader compiled p)) probes in
  let times = ref [] in
  let buffers = List.map (fun p -> (p, ref [])) probes in
  let record t x =
    times := t :: !times;
    List.iter2
      (fun (_, reader) (_, buf) -> buf := reader x :: !buf)
      readers buffers
  in
  let x = ref (Array.copy x0) in
  if opts.t_start <= 0.0 then record 0.0 !x;
  let tracker =
    Resilience.Policy.track_steps ~budget:opts.budget ~subsystem:Spice
      ~phase:"transient" ()
  in
  let note_rejection ~t =
    match
      Resilience.Policy.note_rejection
        ~context:[ ("t", Printf.sprintf "%.6e" t) ]
        tracker
    with
    | Ok () -> ()
    (* dsa: allow raise-escape — Fatal is internal control flow: the integration loop catches it and surfaces [result.failure] *)
    | Error e -> raise (Fatal e)
  in
  let check_deadline ~t =
    if Resilience.Deadline.expired () then
      (* dsa: allow raise-escape — Fatal is internal control flow: the integration loop catches it and surfaces [result.failure] *)
      raise
        (Fatal
           (Resilience.Oshil_error.make Spice ~phase:"transient"
              Budget_exhausted "wall-clock deadline exceeded mid-integration"
              ~context:[ ("t", Printf.sprintf "%.6e" t) ]
              ~remedy:
                "raise the request deadline, shorten t_stop or coarsen dt"))
  in
  (* every Newton solve of the run shares one workspace *)
  let ws = Newton.workspace ~clamp_upto:(Mna.n_nodes compiled) size in
  (* one Newton step of the implicit method: returns Ok x' or Error msg *)
  let solve_step ~t ~h ~integ ~state x_guess =
    if Resilience.Fault.fire "tran-reject" then
      Error "injected fault (tran-reject)"
    else begin
      let mode = Mna.Tran { t; h; integ; state; gmin = opts.gmin } in
      let assemble ~x ~jac ~res = Mna.assemble compiled ~mode ~x ~jac ~res in
      let ectx =
        if Obs.Event.enabled () then
          Some (Obs.Event.ctx ~rung:(Printf.sprintf "h=%g" h) "spice.transient")
        else None
      in
      Newton.solve ?ectx ~ws ~assemble ~x0:x_guess ()
    end
  in
  (* advance from t by h, subdividing on failure *)
  let rec advance ~t ~h ~integ ~depth =
    match solve_step ~t:(t +. h) ~h ~integ ~state:!state !x with
    | Ok x' ->
      state := Mna.update_state compiled ~integ ~h ~prev:!state ~x:x';
      x := x'
    | Error msg ->
      if Obs.Event.enabled () then
        Obs.Event.emit
          (Obs.Event.Tran_step
             { t = t +. h; dt = h; accepted = false; lte = Float.nan });
      note_rejection ~t:(t +. h);
      if depth >= 8 then
        (* dsa: allow raise-escape — Fatal is internal control flow: the integration loop catches it and surfaces [result.failure] *)
        raise
          (Fatal
             (Resilience.Oshil_error.make Spice ~phase:"transient" Step_failure
                ("step failed beyond subdivision limit: " ^ msg)
                ~context:
                  [
                    ("t", Printf.sprintf "%.6e" (t +. h));
                    ("h", Printf.sprintf "%.6e" h);
                    ("depth", string_of_int depth);
                  ]
                ~remedy:"reduce dt, loosen Newton tolerances or fix the model"))
      else begin
        Obs.Metrics.incr "spice.transient.step_subdivisions";
        Obs.Metrics.incr "resilience.transient.step_halvings";
        let h2 = h /. 2.0 in
        advance ~t ~h:h2 ~integ ~depth:(depth + 1);
        advance ~t:(t +. h2) ~h:h2 ~integ ~depth:(depth + 1)
      end
  in
  let stride = max 1 opts.record_stride in
  let failure = ref None in
  (Fun.protect ~finally:(fun () -> Newton.flush ws) @@ fun () ->
   try
     let n_steps =
       int_of_float (Float.ceil ((opts.t_stop /. opts.dt) -. 1e-9))
     in
     for k = 0 to n_steps - 1 do
       let t = float_of_int k *. opts.dt in
       check_deadline ~t;
       let h = Float.min opts.dt (opts.t_stop -. t) in
       (* bootstrap the trapezoidal state with one BE step *)
       let integ = if k = 0 then Mna.Backward_euler else opts.integ in
       advance ~t ~h ~integ ~depth:0;
       let t' = t +. h in
       if t' >= opts.t_start -. 1e-15 && (k + 1) mod stride = 0 then
         record t' !x
     done;
     Obs.Metrics.incr ~by:n_steps "spice.transient.steps_accepted"
   with Fatal e ->
     (* degrade: keep the waveform accumulated so far (fail-fast mode
        turns the hole back into an exception) *)
     if Resilience.Policy.fail_fast () then
       raise (Resilience.Oshil_error.Error e);
     Obs.Metrics.incr "resilience.transient.degraded";
     failure := Some e);
  {
    times = Array.of_list (List.rev !times);
    signals =
      List.map (fun (p, buf) -> (p, Array.of_list (List.rev !buf))) buffers;
    failure = !failure;
  }

(* Everything the integrator reads is pure data once behavioural
   sources are excluded, so the circuit (device list, insertion order
   preserved), the probe list and the full option record are canonically
   encoded by [Marshal] and folded into the key as digests. Bump the
   version whenever the stepping algorithm or the result layout
   changes. *)
let cache_key ~check circuit ~probes opts =
  let open Cache.Key in
  v ~kind:"spice.transient" ~version:1
    [
      str "circuit"
        (digest_of_string (Marshal.to_string (Circuit.devices circuit) []));
      str "probes" (digest_of_string (Marshal.to_string probes []));
      str "opts" (digest_of_string (Marshal.to_string opts []));
      str "check"
        (match check with `Enforce -> "enforce" | `Warn -> "warn"
        | `Off -> "off");
    ]

let cacheable circuit =
  not
    (List.exists
       (function Device.Nonlinear_cs _ -> true | _ -> false)
       (Circuit.devices circuit))

let run ?(check = `Enforce) circuit ~probes opts =
  if opts.dt <= 0.0 || opts.t_stop <= 0.0 then
    invalid_arg "Transient.run: dt and t_stop must be positive";
  Obs.Span.with_ ~cat:"spice" ~name:"spice.transient.run"
    ~attrs:
      [
        ("t_stop", Printf.sprintf "%g" opts.t_stop);
        ("dt", Printf.sprintf "%g" opts.dt);
      ]
  @@ fun () ->
  if not (Cache.Store.enabled () && cacheable circuit) then
    run_gated ~check circuit ~probes opts
  else
    let key = cache_key ~check circuit ~probes opts in
    (* only complete runs are stored: a waveform truncated by a solver
       failure is a degraded artifact, not a reusable result *)
    (Cache.Store.find_or_compute ~key
       ~cache_if:(fun r -> Option.is_none r.failure)
       ~encode:Cache.Store.to_marshal ~decode:Cache.Store.of_marshal
       (fun () -> run_gated ~check circuit ~probes opts)
      : result)

let signal r probe = List.assoc probe r.signals
