(* What one workload run reports back to [Main]. *)

type result = {
  latencies_ms : float list;  (** one per completed unit, measured phase *)
  round_units : int;  (** units in one round of the measured phase *)
  elapsed_s : float;  (** wall time of the measured phase *)
  attempted : int;
  failed : int;  (** typed errors, overload refusals and failed checks *)
  mismatches : int;  (** failed output checks alone *)
  setup_s : float;
  rss_mb : float;
  traced : (Trace.t * Trace.extra) option;  (** traced runs only *)
  notes : string list;  (** human-readable lines printed before the result *)
}

let setup_reps = 9

let warm_request =
  {
    Api.Request.id = "warm";
    deadline_s = None;
    payload =
      Shil { osc = Builtin "tanh"; n = 3; vi = 0.03; reduced = true; finj = None };
  }

(* The program-side set-up every workload pays before its first unit:
   lazily built trig tables dropped and rebuilt, the three cells
   resolved (the diff-pair runs its f(v) extraction) and one cheap
   request run to warm the per-domain kernel buffers. Returns the
   extraction time in ms. *)
let warm_up () =
  Numerics.Trig_tables.clear ();
  ignore (Api.resolve_oscillator (Builtin "tanh"));
  let _, t = Util.time (fun () -> Api.resolve_oscillator (Builtin "diffpair")) in
  ignore (Api.resolve_oscillator (Builtin "tunnel"));
  ignore (Api.execute warm_request);
  t *. 1e3

(* Runs [setup] [setup_reps] times, undoing all but the last with
   [teardown]; set-up time is the median repetition, so one slow
   repetition does not move it. Returns (median s, median extraction
   ms, the last set-up's value). *)
let repeat_setup ~setup ~teardown =
  let rec go k times extracts =
    let (v, extract_ms), t = Util.time setup in
    let times = t :: times and extracts = extract_ms :: extracts in
    if k + 1 >= setup_reps then (Util.median times, Util.median extracts, v)
    else begin
      teardown v;
      go (k + 1) times extracts
    end
  in
  go 0 [] []

let span name f = Obs.Span.with_ ~cat:"bench" ~name f

(* [Api.execute] taken apart for Shil and Hb requests — resolve the
   cell, run the analysis, render the report, each in its own span —
   so a traced run can attribute the steps; other requests run through
   [Api.execute] whole. Returns the outcome [Api.execute] would, and
   the render time in ms. *)
let execute_split (req : Api.Request.t) =
  let resolve osc = span "bench.circuits.resolve" (fun () -> Api.resolve_oscillator osc) in
  let render f =
    let text, t = Util.time (fun () -> span "bench.api.render" f) in
    (Ok text, t *. 1e3)
  in
  match
    match req.payload with
    | Shil { osc; n; vi; reduced; finj } ->
      let osc = resolve osc in
      let r = span "bench.api.shil_run" (fun () -> Api.shil_run ~osc ~n ~vi ~reduced) in
      render (fun () -> Api.shil_report_text r ~finj)
    | Hb { osc; n; vi; k_max; samples; mode } ->
      let osc = resolve osc in
      let o =
        span "bench.api.hb_run" (fun () -> Api.hb_run ~osc ~n ~vi ~k_max ~samples ~mode)
      in
      render (fun () -> Api.hb_text o)
    | _ -> (Api.execute req, 0.0)
  with
  | r -> r
  | exception Resilience.Oshil_error.Error e -> (Error e, 0.0)
  | exception e ->
    ( Error
        (Resilience.Oshil_error.of_exn Serve ~phase:(Api.Request.op_name req.payload) e),
      0.0 )

(* --- measured phases ------------------------------------------------- *)

(* Phases run whole rounds — a round holds a workload's full input mix
   once, so every run measures the same mix whatever the seed. Another
   round starts while it would end the phase nearer [seconds] than
   stopping now; the first always runs. *)
let another_round ~seconds ~t_start ~rounds =
  rounds = 0
  ||
  let el = Util.now () -. t_start in
  el +. (0.5 *. el /. float_of_int rounds) < seconds

type 'a phase = {
  lat : float list;  (** unit latencies, ms, in issue order *)
  units : int;
  rounds : int;
  failed : int;
  mismatches : int;
  elapsed : float;
  data : 'a;  (** workload-specific figures *)
}

(* An untraced run is one phase of [seconds]. A traced run spends half
   on the same seeded inputs untraced, then half traced: the pair gives
   the tracing overhead, and [extra] adds the workload's own traced
   figures. *)
let measure ~seconds ~traced ~setup_s ~extract_ms ~run_phase ~extra ~notes =
  let result (p : _ phase) ~attempted ~failed ~mismatches ~traced notes =
    {
      latencies_ms = p.lat;
      round_units = p.units / max 1 p.rounds;
      elapsed_s = p.elapsed;
      attempted;
      failed;
      mismatches;
      setup_s;
      rss_mb = Util.peak_rss_mb ();
      traced;
      notes;
    }
  in
  if not traced then begin
    let p = run_phase ~seconds ~trace:None in
    result p ~attempted:p.units ~failed:p.failed ~mismatches:p.mismatches ~traced:None []
  end
  else begin
    let half = seconds /. 2.0 in
    let base = run_phase ~seconds:half ~trace:None in
    let tr = Trace.create () in
    Obs.reset ();
    Obs.set_enabled true;
    let p = run_phase ~seconds:half ~trace:(Some tr) in
    Obs.set_enabled false;
    let k = min base.units p.units in
    let prefix l = List.filteri (fun i _ -> i < k) l in
    let x =
      extra tr p
        {
          Trace.no_extra with
          units = p.units;
          extract_ms;
          overhead_share = Util.median (prefix p.lat) /. Util.median (prefix base.lat);
        }
    in
    result p ~attempted:(base.units + p.units) ~failed:(base.failed + p.failed)
      ~mismatches:(base.mismatches + p.mismatches) ~traced:(Some (tr, x))
      (Printf.sprintf
         "obs.overhead_share base: median latency of the first %d traced units \
          over that of the same %d units untraced"
         k k
      :: notes)
  end
