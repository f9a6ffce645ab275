module Json = Json
module Request = Request
module Oshil_error = Resilience.Oshil_error
module Deadline = Resilience.Deadline

(* --- oscillators ---------------------------------------------------- *)

let resolve_oscillator (spec : Request.osc_spec) : Shil.Analysis.oscillator =
  match spec with
  | Custom { g0; isat; r; fc; q } ->
    let wc = 2.0 *. Float.pi *. fc in
    let z0 = r /. q in
    {
      nl = Shil.Nonlinearity.neg_tanh ~g0 ~isat;
      tank = Shil.Tank.make ~r ~l:(z0 /. wc) ~c:(1.0 /. (z0 *. wc));
    }
  | Builtin name -> (
    match name with
    | "tanh" -> Circuits.Tanh_osc.oscillator Circuits.Tanh_osc.default
    | "diffpair" | "diff-pair" | "dp" ->
      Circuits.Diff_pair.oscillator Circuits.Diff_pair.default
    | "tunnel" | "td" -> Circuits.Tunnel_osc.oscillator Circuits.Tunnel_osc.default
    | other ->
      Oshil_error.raise_ Shil ~phase:"request" Parse_failure
        (Printf.sprintf "unknown oscillator %S" other)
        ~remedy:"use tanh, diffpair or tunnel, or a custom {g0,...} cell")

(* --- report renderers ----------------------------------------------- *)

(* Every renderer mirrors its CLI subcommand Format/Printf call for
   call: same format strings, one [asprintf]/[sprintf] per original
   [printf], concatenated in emission order — the report bytes are the
   CLI bytes. *)

let shil_run ~osc ~n ~vi ~reduced =
  let reduction = if reduced then `Symmetry else `Exact in
  Shil.Analysis.run ~reduction osc ~n ~vi

let shil_report_text (report : Shil.Analysis.shil_report) ~finj =
  let n = report.n in
  let b = Buffer.create 1024 in
  Buffer.add_string b (Format.asprintf "%a@." Shil.Analysis.pp report);
  (match finj with
  | None -> ()
  | Some f_inj ->
    Buffer.add_string b
      (Format.asprintf "@.locks at f_inj = %.8g Hz:@." f_inj);
    let sols = Shil.Analysis.locks_at report ~f_inj in
    if sols = [] then Buffer.add_string b (Format.asprintf "  (none)@.")
    else
      List.iter
        (fun (p : Shil.Solutions.point) ->
          Buffer.add_string b
            (Format.asprintf "  phi = %.5f rad, A = %.6g V (%s)@." p.phi p.a
               (if p.stable then "stable" else "unstable"));
          if p.stable then
            List.iter
              (fun (psi, _) ->
                Buffer.add_string b
                  (Format.asprintf "    state at psi = %.5f rad@." psi))
              (Shil.Solutions.n_states p ~n))
        sols);
  Buffer.contents b

let shil_text ~osc ~n ~vi ~reduced ~finj =
  shil_report_text (shil_run ~osc ~n ~vi ~reduced) ~finj

(* %.17g round-trips every double exactly: the report is a faithful
   witness for the cold-vs-warm bit-identity check, not a rounded view *)
let jf v =
  if Float.is_nan v then {|"nan"|}
  else if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

(* --- harmonic balance ------------------------------------------------ *)

(* The MNA realization every oscillator spec reduces to: parallel RLC
   tank with the behavioural nonlinearity across it, plus (optionally)
   the injection current source. Same topology as the Circuits.*
   netlists, but built from the resolved cell so custom oscillators
   work too. Probe node "t". *)
let hb_circuit ?injection (osc : Shil.Analysis.oscillator) =
  let t = (osc.tank : Shil.Tank.t) in
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
  let inj =
    match injection with
    | None -> []
    | Some wave ->
      [ Spice.Device.Isource { name = "Iinj"; np = "0"; nn = "t"; wave } ]
  in
  Spice.Circuit.of_devices (base @ inj)

let hb_ident (osc : Shil.Analysis.oscillator) =
  match Shil.Nonlinearity.cache_key osc.nl with
  | None -> None
  | Some key ->
    let t = (osc.tank : Shil.Tank.t) in
    Some (Printf.sprintf "%s|r=%h|l=%h|c=%h" key t.r t.l t.c)

(* i_inj(t) = Im cos(2 pi f_inj t): the sine wave with a +pi/2 phase is
   the cosine drive Simulate.injected applies to the reduced model, so
   the two lock phases are directly comparable *)
let hb_injection_wave ~tank ~n ~vi ~f_inj =
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

type hb_outcome = {
  hb_n : int;
  hb_vi : float;
  free : Hb.Driver.solution;
  hb_mode : hb_mode_result;
}

and hb_mode_result =
  | Hb_free_only
  | Hb_locked of Hb.Driver.verdict
  | Hb_band of { band : Hb.Driver.band; df : Shil.Lock_range.t }

let hb_run ~osc ~n ~vi ~k_max ~samples ~(mode : Request.hb_mode) =
  let tank = (osc.Shil.Analysis.tank : Shil.Tank.t) in
  let ident = hb_ident osc in
  let a_guess =
    match Shil.Natural.predicted_amplitude osc.nl ~r:tank.r with
    | Some a -> a
    | None ->
      Oshil_error.raise_ Shil ~phase:"hb" No_oscillation
        "oscillator has no stable natural oscillation to seed the oscprobe"
        ~remedy:"raise the loop gain (g0 R > 1) or pick another cell"
  in
  let f_guess = Shil.Tank.f_c tank in
  let free =
    Hb.Driver.oscprobe ?ident ~k_max ~samples ~f_guess ~a_guess
      (hb_circuit osc)
  in
  (* the injection wave is part of the circuit, so vi joins its cache
     identity (f_inj and n are already driver key fields) *)
  let inj_ident =
    Option.map (fun id -> Printf.sprintf "%s|vi=%h" id vi) ident
  in
  let inject ~f_inj =
    hb_circuit ~injection:(hb_injection_wave ~tank ~n ~vi ~f_inj) osc
  in
  let hb_mode =
    match mode with
    | Hb_osc -> Hb_free_only
    | Hb_injected f_inj ->
      Hb_locked
        (Hb.Driver.injected ?ident:inj_ident ~free ~n ~f_inj
           (inject ~f_inj))
    | Hb_lockrange ->
      let report = Shil.Analysis.run osc ~n ~vi in
      let df = report.Shil.Analysis.lock_range in
      let band =
        Hb.Driver.lock_range ?ident:inj_ident ~free ~n
          ~guess_width:df.Shil.Lock_range.delta_f_inj ~inject ()
      in
      Hb_band { band; df }
  in
  { hb_n = n; hb_vi = vi; free; hb_mode }

let hb_text (o : hb_outcome) =
  let free = o.free in
  let node = free.Hb.Driver.nodes.(free.Hb.Driver.osc_node) in
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "harmonic balance: k_max = %d, samples = %d\n"
       free.Hb.Driver.k_max free.Hb.Driver.samples);
  Buffer.add_string b
    (Printf.sprintf "free-running: f_osc = %.8g Hz, A = %.6g V, THD = %.4g\n"
       free.Hb.Driver.f0 (Hb.Driver.amplitude free) (Hb.Driver.thd free));
  Buffer.add_string b
    (Printf.sprintf "solver: %d Newton iteration(s), scaled residual %.3g\n"
       free.Hb.Driver.iters free.Hb.Driver.residual);
  Buffer.add_string b (Printf.sprintf "spectrum at %s (|V_k|, V):\n" node);
  Array.iteri
    (fun k c ->
      Buffer.add_string b
        (Printf.sprintf "  k=%d  %.6g\n" k (Numerics.Cx.abs c)))
    free.Hb.Driver.spectra.(free.Hb.Driver.osc_node);
  (match o.hb_mode with
  | Hb_free_only -> ()
  | Hb_locked v ->
    Buffer.add_string b
      (Printf.sprintf "injection: n = %d, vi = %.4g V, f_inj = %.8g Hz\n"
         o.hb_n o.hb_vi v.Hb.Driver.f_inj);
    if v.Hb.Driver.locked then
      Buffer.add_string b
        (Printf.sprintf "  locked: yes  A = %.6g V, phase = %.5f rad\n"
           v.Hb.Driver.amp v.Hb.Driver.lock_phase)
    else
      Buffer.add_string b
        (Printf.sprintf "  locked: no  (fundamental suppressed: A = %.6g V)\n"
           v.Hb.Driver.amp)
  | Hb_band { band; df } ->
    Buffer.add_string b
      (Printf.sprintf "lock range (n = %d, vi = %.4g V):\n" o.hb_n o.hb_vi);
    Buffer.add_string b
      (Printf.sprintf
         "  HB: f_inj in [%.8g, %.8g] Hz, width %.6g Hz (%d probes, %d \
          holes)\n"
         band.Hb.Driver.f_lo band.Hb.Driver.f_hi
         (band.Hb.Driver.f_hi -. band.Hb.Driver.f_lo)
         band.Hb.Driver.probes band.Hb.Driver.holes);
    Buffer.add_string b
      (Printf.sprintf "  DF: f_inj in [%.8g, %.8g] Hz, width %.6g Hz\n"
         df.Shil.Lock_range.f_inj_low df.Shil.Lock_range.f_inj_high
         df.Shil.Lock_range.delta_f_inj));
  Buffer.contents b

let hb_json (o : hb_outcome) =
  let free = o.free in
  let sp = free.Hb.Driver.spectra.(free.Hb.Driver.osc_node) in
  let spectrum =
    String.concat ","
      (List.mapi
         (fun k (c : Numerics.Cx.t) ->
           Printf.sprintf {|{"k":%d,"re":%s,"im":%s}|} k (jf c.re) (jf c.im))
         (Array.to_list sp))
  in
  let mode_fields =
    match o.hb_mode with
    | Hb_free_only -> {|"mode":"osc"|}
    | Hb_locked v ->
      Printf.sprintf
        {|"mode":"injected","injected":{"finj":%s,"locked":%b,"amplitude":%s,"phase":%s}|}
        (jf v.Hb.Driver.f_inj) v.Hb.Driver.locked (jf v.Hb.Driver.amp)
        (jf v.Hb.Driver.lock_phase)
    | Hb_band { band; df } ->
      Printf.sprintf
        {|"mode":"lockrange","lockrange":{"f_lo":%s,"f_hi":%s,"width":%s,"probes":%d,"holes":%d,"df":{"f_lo":%s,"f_hi":%s,"width":%s}}|}
        (jf band.Hb.Driver.f_lo) (jf band.Hb.Driver.f_hi)
        (jf (band.Hb.Driver.f_hi -. band.Hb.Driver.f_lo))
        band.Hb.Driver.probes band.Hb.Driver.holes
        (jf df.Shil.Lock_range.f_inj_low)
        (jf df.Shil.Lock_range.f_inj_high)
        (jf df.Shil.Lock_range.delta_f_inj)
  in
  Printf.sprintf
    {|{"analysis":"hb","k_max":%d,"samples":%d,"n":%d,"vi":%s,"osc_node":"%s","f_osc":%s,"amplitude":%s,"thd":%s,"newton_iters":%d,"residual":%s,"spectrum":[%s],%s}|}
    free.Hb.Driver.k_max free.Hb.Driver.samples o.hb_n (jf o.hb_vi)
    free.Hb.Driver.nodes.(free.Hb.Driver.osc_node)
    (jf free.Hb.Driver.f0)
    (jf (Hb.Driver.amplitude free))
    (jf (Hb.Driver.thd free))
    free.Hb.Driver.iters
    (jf free.Hb.Driver.residual)
    spectrum mode_fields

let op_text ~circuit op =
  let b = Buffer.create 256 in
  List.iter
    (fun node ->
      Buffer.add_string b
        (Printf.sprintf "v(%s) = %.9g\n" node (Spice.Op.voltage op node)))
    (Spice.Circuit.node_names circuit);
  Buffer.contents b

(* A %.9g field with its separator rarely exceeds 16 bytes: sizing the
   buffer for that up front spares the doubling copies of a waveform
   report hundreds of KB long. *)
let tran_csv (res : Spice.Transient.result) =
  let b =
    Buffer.create
      (64 + (Array.length res.times * 16 * (1 + List.length res.signals)))
  in
  let headers =
    List.map
      (function Spice.Transient.Node n -> n | _ -> "?")
      (List.map fst res.signals)
  in
  Buffer.add_string b (Printf.sprintf "t,%s\n" (String.concat "," headers));
  Array.iteri
    (fun k t ->
      Buffer.add_string b (Printf.sprintf "%.9g" t);
      List.iter
        (fun (_, vs) -> Buffer.add_string b (Printf.sprintf ",%.9g" vs.(k)))
        res.signals;
      Buffer.add_char b '\n')
    res.times;
  Buffer.contents b

(* --- scenarios ------------------------------------------------------ *)

let is_scenario_file f =
  match String.lowercase_ascii (Filename.extension f) with
  | ".scn" | ".scenario" -> true
  | _ -> false

let scenario_nonlinearity (s : Check.Scenario.t) =
  match s.osc with
  | "tanh" | "custom" ->
    let g0 = Option.value s.g0 ~default:2e-3 in
    let isat = Option.value s.isat ~default:1e-3 in
    Some (Shil.Nonlinearity.eval (Shil.Nonlinearity.neg_tanh ~g0 ~isat))
  | "diffpair" | "diff-pair" | "dp" ->
    Some
      (Shil.Nonlinearity.eval
         (Circuits.Diff_pair.nonlinearity Circuits.Diff_pair.default))
  | "tunnel" | "td" ->
    Some
      (Shil.Nonlinearity.eval
         (Circuits.Tunnel_osc.nonlinearity Circuits.Tunnel_osc.default))
  | _ -> None

let scenario_oscillator (s : Check.Scenario.t) : Shil.Analysis.oscillator =
  match s.osc with
  | "diffpair" | "diff-pair" | "dp" ->
    Circuits.Diff_pair.oscillator Circuits.Diff_pair.default
  | "tunnel" | "td" -> Circuits.Tunnel_osc.oscillator Circuits.Tunnel_osc.default
  | _ ->
    (* tanh/custom: the scenario's own cell and tank (lint has already
       rejected unknown oscillator names before we get here) *)
    let g0 = Option.value s.g0 ~default:2e-3 in
    let isat = Option.value s.isat ~default:1e-3 in
    let r, l, c = Check.Scenario.resolve_tank s in
    {
      nl = Shil.Nonlinearity.neg_tanh ~g0 ~isat;
      tank = Shil.Tank.make ~r ~l ~c;
    }

type scenario_outcome =
  | Scn_ok of string
  | Scn_lint_error of string

let scenario_outcome_of (s, parse_diags) =
  let module D = Check.Diagnostic in
  let nl = scenario_nonlinearity s in
  let diags = parse_diags @ Check.Scenario.check ?nl s in
  if D.errors diags <> [] then
    Scn_lint_error
      (Printf.sprintf
         {|"status":"lint-error","errors":%d,"warnings":%d,"diagnostics":%s|}
         (D.count_severity D.Error diags)
         (D.count_severity D.Warning diags)
         (D.list_to_json diags))
  else begin
    let osc = scenario_oscillator s in
    let a_range =
      match (s.a_lo, s.a_hi) with
      | Some lo, Some hi -> Some (lo, hi)
      | _ -> None
    in
    let report =
      Shil.Analysis.run ~check:`Off ?points:s.points ?n_phi:s.n_phi
        ?n_amp:s.n_amp ?a_range osc ~n:s.n ~vi:s.vi
    in
    let lr = report.lock_range in
    let stable =
      List.length
        (List.filter
           (fun (p : Shil.Solutions.point) -> p.stable)
           report.locks_at_center)
    in
    Scn_ok
      (Printf.sprintf
         {|"status":"ok","osc":"%s","n":%d,"vi":%s,"natural_amplitude":%s,"locks_at_center":%d,"stable_locks":%d,"lock_range":{"phi_d_max":%s,"f_inj_low":%s,"f_inj_high":%s,"delta_f_inj":%s},"grid_holes":%d|}
         (D.json_escape s.osc) s.n (jf s.vi)
         (match report.natural_amplitude with
         | Some a -> jf a
         | None -> "null")
         (List.length report.locks_at_center)
         stable (jf lr.phi_d_max) (jf lr.f_inj_low) (jf lr.f_inj_high)
         (jf lr.delta_f_inj)
         (Resilience.Summary.failed report.grid.failures))
  end

let scenario_outcome ~name text =
  scenario_outcome_of (Check.Scenario.parse_string ~name text)

let scenario_file_outcome file =
  scenario_outcome_of (Check.Scenario.parse_file file)

let scenario_entry ~file outcome =
  match outcome with
  | Scn_ok b | Scn_lint_error b ->
    Printf.sprintf {|{"file":"%s",%s}|} (Check.Diagnostic.json_escape file) b

(* --- lint ----------------------------------------------------------- *)

let netlist_parse_diag ~name (e : Spice.Netlist.error) =
  Check.Diagnostic.error ~code:"netlist-parse"
    ~loc:(Printf.sprintf "%s:%d" (Filename.basename name) e.line)
    e.message

let lint_file file =
  if is_scenario_file file then begin
    let s, parse_diags = Check.Scenario.parse_file file in
    let nl = scenario_nonlinearity s in
    parse_diags @ Check.Scenario.check ?nl s
  end
  else begin
    match Spice.Netlist.parse_file file with
    | Error e -> [ netlist_parse_diag ~name:file e ]
    | Ok circuit -> Spice.Preflight.check circuit
  end

let lint_text ~name text =
  if is_scenario_file name then begin
    let s, parse_diags = Check.Scenario.parse_string ~name text in
    let nl = scenario_nonlinearity s in
    parse_diags @ Check.Scenario.check ?nl s
  end
  else begin
    match Spice.Netlist.parse_string text with
    | Error e -> [ netlist_parse_diag ~name e ]
    | Ok circuit -> Spice.Preflight.check circuit
  end

let lint_entry ~file ds =
  let module D = Check.Diagnostic in
  Printf.sprintf {|{"file":"%s","errors":%d,"warnings":%d,"diagnostics":%s}|}
    (D.json_escape file)
    (D.count_severity D.Error ds)
    (D.count_severity D.Warning ds)
    (D.list_to_json ds)

(* --- netlists ------------------------------------------------------- *)

let netlist_of_text ~name text =
  match Spice.Netlist.parse_string text with
  | Ok circuit -> circuit
  | Error e ->
    Oshil_error.raise_ Spice ~phase:"netlist" Parse_failure
      (Printf.sprintf "%s:%d: %s" name e.line e.message)
      ~remedy:"fix the netlist (oshil lint shows the full report)"

(* --- request execution ---------------------------------------------- *)

type outcome = (string, Oshil_error.t) result

let health_text () = {|{"status":"ok"}|}

let run_health_json () =
  if Obs.enabled () then
    Obs.Report.to_json (Obs.Report.of_snapshot (Obs.snapshot ()))
  else "null"

let stats_text () =
  Printf.sprintf {|{"server":null,"health":%s}|} (run_health_json ())

(* The deterministic stand-in for a long solve: burns wall clock in
   small slices, checking the deadline between slices like the real
   kernels do between grid rows / transient steps. *)
let sleep_payload s =
  let start = Obs.Clock.wall_s () in
  let slice = 0.002 in
  let rec loop () =
    Deadline.check Serve ~phase:"sleep";
    let elapsed = Obs.Clock.wall_s () -. start in
    if elapsed < s then begin
      Thread.delay (Float.min slice (s -. elapsed));
      loop ()
    end
  in
  loop ();
  "ok"

let run_payload (payload : Request.payload) =
  match payload with
  | Ping -> "pong"
  | Health -> health_text ()
  | Stats -> stats_text ()
  | Sleep { s } -> sleep_payload s
  | Shil { osc; n; vi; reduced; finj } ->
    shil_text ~osc:(resolve_oscillator osc) ~n ~vi ~reduced ~finj
  | Hb { osc; n; vi; k_max; samples; mode } ->
    hb_text (hb_run ~osc:(resolve_oscillator osc) ~n ~vi ~k_max ~samples ~mode)
  | Scenario { name; text } ->
    scenario_entry ~file:name (scenario_outcome ~name text)
  | Lint { name; text } -> lint_entry ~file:name (lint_text ~name text)
  | Netlist_op { name; text } ->
    let circuit = netlist_of_text ~name text in
    op_text ~circuit (Spice.Op.run circuit)
  | Netlist_tran { name; text; t_stop; dt; probes } ->
    let circuit = netlist_of_text ~name text in
    let probes =
      match probes with
      | [] ->
        List.map
          (fun n -> Spice.Transient.Node n)
          (Spice.Circuit.node_names circuit)
      | ps -> List.map (fun n -> Spice.Transient.Node n) ps
    in
    tran_csv
      (Spice.Transient.run circuit ~probes
         (Spice.Transient.default_options ~dt ~t_stop))

let execute (req : Request.t) =
  match run_payload req.payload with
  | report -> Ok report
  | exception Oshil_error.Error e -> Error e
  | exception e ->
    Error (Oshil_error.of_exn Serve ~phase:(Request.op_name req.payload) e)

let handle ?default_deadline_s (req : Request.t) =
  let deadline =
    match req.deadline_s with Some s -> Some s | None -> default_deadline_s
  in
  match deadline with
  | Some seconds -> Deadline.with_deadline ~seconds (fun () -> execute req)
  | None -> execute req

let parse_request line =
  match Request.of_string line with
  | Ok req -> Ok req
  | Error msg ->
    Error
      (Oshil_error.make Serve ~phase:"protocol" Parse_failure msg
         ~remedy:
           "send one JSON object per line: \
            {\"id\":...,\"op\":...,\"params\":{...}}")

(* --- responses ------------------------------------------------------ *)

let error_json (e : Oshil_error.t) =
  Json.Obj
    ([
       ("code", Json.Str (Oshil_error.code e));
       ("subsystem", Json.Str (Oshil_error.subsystem_name e.subsystem));
       ("phase", Json.Str e.phase);
       ("msg", Json.Str e.msg);
       ("context", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) e.context));
     ]
    @ match e.remedy with None -> [] | Some r -> [ ("remedy", Json.Str r) ])

let response_of_outcome ~id outcome =
  Json.to_string
    (match outcome with
    | Ok report ->
      Json.Obj
        [
          ("id", Json.Str id);
          ("status", Json.Str "ok");
          ("report", Json.Str report);
        ]
    | Error e ->
      Json.Obj
        [
          ("id", Json.Str id);
          ("status", Json.Str "error");
          ("error", error_json e);
        ])
