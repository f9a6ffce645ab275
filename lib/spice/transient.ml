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

(* the unknowns a probe reads as [v_at x ia -. v_at x ib]; [-1] (ground)
   reads 0 *)
let probe_indices compiled probe =
  match probe with
  | Node n -> (Mna.node_index compiled n, -1)
  | Diff (a, b) -> (Mna.node_index compiled a, Mna.node_index compiled b)
  | Branch name -> (Mna.branch_index compiled name, -1)

let[@inline] v_at (x : float array) i = if i < 0 then 0.0 else x.(i)

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
  let state = Mna.init_state compiled ~use_ic:opts.use_ic ~x:x0 in
  let n_steps = int_of_float (Float.ceil ((opts.t_stop /. opts.dt) -. 1e-9)) in
  let stride = max 1 opts.record_stride in
  (* step k ends at [step_end k]; it is recorded when [kept k] *)
  let step_end k =
    let t = float_of_int k *. opts.dt in
    t +. Float.min opts.dt (opts.t_stop -. t)
  in
  let kept k = step_end k >= opts.t_start -. 1e-15 && (k + 1) mod stride = 0 in
  (* the samples go to one column per probe after the times; the
     columns start small and double when full, so they never hold more
     than twice the samples recorded (a run a deadline stops early
     allocates for the steps it ran, not for its whole length) *)
  let probes = Array.of_list probes in
  let indices = Array.map (probe_indices compiled) probes in
  let cols = Array.init (Array.length probes + 1) (fun _ -> Array.make 64 0.0) in
  let recorded = ref 0 in
  let record t x =
    let i = !recorded in
    if i = Array.length cols.(0) then
      Array.iteri
        (fun c a ->
          let b = Array.make (2 * i) 0.0 in
          Array.blit a 0 b 0 i;
          cols.(c) <- b)
        cols;
    cols.(0).(i) <- t;
    for j = 0 to Array.length indices - 1 do
      let ia, ib = indices.(j) in
      cols.(j + 1).(i) <- v_at x ia -. v_at x ib
    done;
    recorded := i + 1
  in
  (* [x] is the last accepted solution, the end of a step of [h0]; [x1]
     ended the step before it, of [h1], and [x2] the one before that.
     [ends] counts how many of the three hold step ends (the starting
     point is none). Each step's Newton iterates in [trial], which
     becomes [x] when the step is accepted. *)
  let x = ref (Array.copy x0) and trial = ref (Array.make size 0.0) in
  let x1 = ref (Array.make size 0.0) and x2 = ref (Array.make size 0.0) in
  let h0 = ref 0.0 and h1 = ref 0.0 and ends = ref 0 in
  (* the Newton start of a step of [h]: the quadratic through the last
     three solutions when this step and the last two are of one size,
     else the last solution *)
  let predict h =
    let x = !x and x1 = !x1 and x2 = !x2 and start = !trial in
    if !ends >= 3 && h = !h0 && h = !h1 then
      for i = 0 to size - 1 do
        start.(i) <- (3.0 *. x.(i)) -. (3.0 *. x1.(i)) +. x2.(i)
      done
    else Array.blit x 0 start 0 size
  in
  let accept h =
    let spare = !x2 in
    x2 := !x1;
    x1 := !x;
    x := !trial;
    trial := spare;
    h1 := !h0;
    h0 := h;
    ends := min 3 (!ends + 1)
  in
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
  (* one Newton solve of the implicit step of [h] ending at [t], from
     [predict h], in !trial: Ok () or Error msg *)
  let solve_step ~t ~h ~integ =
    if Resilience.Fault.fire "tran-reject" then
      Error "injected fault (tran-reject)"
    else begin
      Mna.set_time compiled state t;
      let mode = Mna.Tran { h; integ; state; gmin = opts.gmin } in
      let assemble ~x ~jac ~res = Mna.assemble compiled ~mode ~x ~jac ~res in
      let ectx =
        if Obs.Event.enabled () then
          Some (Obs.Event.ctx ~rung:(Printf.sprintf "h=%g" h) "spice.transient")
        else None
      in
      predict h;
      Newton.solve ?ectx ~ws ~assemble !trial
    end
  in
  (* advance from t by h, subdividing on failure *)
  let rec advance ~t ~h ~integ ~depth =
    match solve_step ~t:(t +. h) ~h ~integ with
    | Ok () ->
      Mna.advance_state compiled ~integ ~h state ~x:!trial;
      accept h
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
  let failure = ref None in
  (Fun.protect ~finally:(fun () -> Newton.flush ws) @@ fun () ->
   try
     for k = 0 to n_steps - 1 do
       let t = float_of_int k *. opts.dt in
       check_deadline ~t;
       let h = Float.min opts.dt (opts.t_stop -. t) in
       (* bootstrap the trapezoidal state with one BE step *)
       let integ = if k = 0 then Mna.Backward_euler else opts.integ in
       advance ~t ~h ~integ ~depth:0;
       if kept k then record (step_end k) !x
     done;
     Obs.Metrics.incr ~by:n_steps "spice.transient.steps_accepted"
   with Fatal e ->
     (* degrade: keep the waveform accumulated so far (fail-fast mode
        turns the hole back into an exception) *)
     if Resilience.Policy.fail_fast () then
       raise (Resilience.Oshil_error.Error e);
     Obs.Metrics.incr "resilience.transient.degraded";
     failure := Some e);
  let n = !recorded in
  let col c = if n = Array.length cols.(c) then cols.(c) else Array.sub cols.(c) 0 n in
  {
    times = col 0;
    signals = List.mapi (fun j p -> (p, col (j + 1))) (Array.to_list probes);
    failure = !failure;
  }

(* Everything the integrator reads is pure data once behavioural
   sources are excluded, so the circuit (device list, insertion order
   preserved), the probe list and the full option record are canonically
   encoded by [Marshal] and folded into the key as digests. Bump the
   version whenever the stepping algorithm or the result layout
   changes (v2: each step's Newton start is extrapolated from the step
   history, which moves the waveform bits). *)
let cache_key ~check circuit ~probes opts =
  let open Cache.Key in
  v ~kind:"spice.transient" ~version:2
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
