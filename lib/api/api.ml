module Request = Request
module Cells = Cells
module Oshil_error = Resilience.Oshil_error
module Deadline = Resilience.Deadline

(* --- oscillators ---------------------------------------------------- *)

let resolve_oscillator spec = (Cells.of_spec spec).oscillator ()

(* --- report renderers ----------------------------------------------- *)

(* The CLI subcommands print these renderers' bytes, and [oshil api]
   and the daemon serve them: the report bytes are the CLI bytes by
   construction. *)

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

let natural_text (osc : Shil.Analysis.oscillator) solutions =
  let r = osc.tank.r in
  let b = Buffer.create 256 in
  Buffer.add_string b (Format.asprintf "%a@." Shil.Tank.pp osc.tank);
  Buffer.add_string b
    (Format.asprintf "small-signal loop gain: %.4g (oscillates: %b)@."
       (Shil.Natural.small_signal_gain osc.nl ~r)
       (Shil.Natural.oscillates osc.nl ~r));
  if solutions = [] then
    Buffer.add_string b (Format.asprintf "no T_f(A) = 1 solutions@.")
  else
    List.iter
      (fun (s : Shil.Natural.solution) ->
        Buffer.add_string b
          (Format.asprintf "A = %.6g V  (%s, dT_f/dA = %.4g)@." s.a
             (if s.stable then "stable" else "unstable")
             s.slope))
      solutions;
  Buffer.contents b

(* The predicted band at (n, V_i) and, with [validate], the lock edges a
   transient bisection finds on the cell's netlist injected at that same
   (n, V_i). *)
let lockrange_text ~(cell : Cells.t) ~n ~vi ~validate =
  let predicted =
    (Shil.Analysis.run (cell.oscillator ()) ~n ~vi).lock_range
  in
  let text = Format.asprintf "%a@." Shil.Lock_range.pp predicted in
  if not validate then text
  else begin
    let cycles, steps_per_cycle = cell.lock_trial in
    let cmp =
      Circuits.Validate.lock_range ~cycles ~steps_per_cycle
        ~make_circuit:(fun ~f_inj -> cell.circuit (Some { n; vi; f_inj }))
        ~probe:cell.probe ~n ~predicted ()
    in
    text ^ Format.asprintf "%a@." Circuits.Validate.pp_lock cmp
  end

(* %.17g round-trips every double exactly: the report is a faithful
   witness for the cold-vs-warm bit-identity check, not a rounded view *)
let jf v =
  if Float.is_nan v then {|"nan"|}
  else if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

(* --- harmonic balance ------------------------------------------------ *)

let hb_ident (osc : Shil.Analysis.oscillator) =
  match Shil.Nonlinearity.cache_key osc.nl with
  | None -> None
  | Some key ->
    let t = (osc.tank : Shil.Tank.t) in
    Some (Printf.sprintf "%s|r=%h|l=%h|c=%h" key t.r t.l t.c)

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
      (Circuits.Behavioural.circuit osc)
  in
  (* the injection wave is part of the circuit, so vi joins its cache
     identity (f_inj and n are already driver key fields) *)
  let inj_ident =
    Option.map (fun id -> Printf.sprintf "%s|vi=%h" id vi) ident
  in
  let inject ~f_inj =
    Circuits.Behavioural.circuit
      ~injection:(Circuits.Behavioural.injection_wave ~tank ~n ~vi ~f_inj)
      osc
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

(* The CSV of [columns] against [xs], under the header line [names].
   A %.9g field with its separator rarely exceeds 16 bytes: sizing the
   buffer for that up front spares the doubling copies of a waveform
   report hundreds of KB long. *)
let csv names xs columns =
  let b =
    Buffer.create (64 + (Array.length xs * 16 * (1 + List.length columns)))
  in
  Buffer.add_string b (String.concat "," names ^ "\n");
  Array.iteri
    (fun k x ->
      Buffer.add_string b (Printf.sprintf "%.9g" x);
      List.iter
        (fun vs -> Buffer.add_string b (Printf.sprintf ",%.9g" vs.(k)))
        columns;
      Buffer.add_char b '\n')
    xs;
  Buffer.contents b

let tran_csv (res : Spice.Transient.result) =
  let node = function Spice.Transient.Node n -> n | _ -> "?" in
  csv ("t" :: List.map (fun (p, _) -> node p) res.signals) res.times
    (List.map snd res.signals)

(* --- scenarios ------------------------------------------------------ *)

let is_scenario_file f =
  match String.lowercase_ascii (Filename.extension f) with
  | ".scn" | ".scenario" -> true
  | _ -> false

(* A scenario names a device cell, or describes its own tanh cell
   ("tanh" or "custom"). *)
let scenario_device (s : Check.Scenario.t) =
  match Check.Cell.of_name s.osc with
  | Some (Diffpair | Tunnel) -> Some (resolve_oscillator (Builtin s.osc))
  | Some Tanh | None -> None

let scenario_tanh (s : Check.Scenario.t) =
  Shil.Nonlinearity.neg_tanh
    ~g0:(Option.value s.g0 ~default:2e-3)
    ~isat:(Option.value s.isat ~default:1e-3)

(* the pointwise probes of the scenario check; None for a name lint
   rejects *)
let scenario_nonlinearity (s : Check.Scenario.t) device =
  match device with
  | Some (osc : Shil.Analysis.oscillator) -> Some (Shil.Nonlinearity.eval osc.nl)
  | None when s.osc = "custom" || Option.is_some (Check.Cell.of_name s.osc) ->
    Some (Shil.Nonlinearity.eval (scenario_tanh s))
  | None -> None

let scenario_diagnostics (s, parse_diags) device =
  parse_diags @ Check.Scenario.check ?nl:(scenario_nonlinearity s device) s

type scenario_outcome =
  | Scn_ok of string
  | Scn_lint_error of string

let scenario_outcome ~name text =
  let module D = Check.Diagnostic in
  let ((s, _) as parsed) = Check.Scenario.parse_string ~name text in
  let device = scenario_device s in
  let diags = scenario_diagnostics parsed device in
  if D.errors diags <> [] then
    Scn_lint_error
      (Printf.sprintf
         {|"status":"lint-error","errors":%d,"warnings":%d,"diagnostics":%s|}
         (D.count_severity D.Error diags)
         (D.count_severity D.Warning diags)
         (D.list_to_json diags))
  else begin
    let osc : Shil.Analysis.oscillator =
      match device with
      | Some osc -> osc
      | None ->
        let r, l, c = Check.Scenario.resolve_tank s in
        { nl = scenario_tanh s; tank = Shil.Tank.make ~r ~l ~c }
    in
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
         (Json.escape s.osc) s.n (jf s.vi)
         (match report.natural_amplitude with
         | Some a -> jf a
         | None -> "null")
         (List.length report.locks_at_center)
         stable (jf lr.phi_d_max) (jf lr.f_inj_low) (jf lr.f_inj_high)
         (jf lr.delta_f_inj)
         (Resilience.Summary.failed report.grid.failures))
  end

let read_file file = In_channel.with_open_bin file In_channel.input_all

let scenario_file_outcome file =
  scenario_outcome ~name:(Filename.basename file) (read_file file)

let scenario_entry ~file outcome =
  match outcome with
  | Scn_ok b | Scn_lint_error b ->
    Printf.sprintf {|{"file":"%s",%s}|} (Json.escape file) b

(* --- lint ----------------------------------------------------------- *)

let netlist_parse_diag ~name (e : Spice.Netlist.error) =
  Check.Diagnostic.error ~code:"netlist-parse"
    ~loc:(Printf.sprintf "%s:%d" (Filename.basename name) e.line)
    e.message

let lint_text ~name text =
  if is_scenario_file name then begin
    let ((s, _) as parsed) = Check.Scenario.parse_string ~name text in
    scenario_diagnostics parsed (scenario_device s)
  end
  else begin
    match Spice.Netlist.parse_string text with
    | Error e -> [ netlist_parse_diag ~name e ]
    | Ok circuit -> Spice.Preflight.check circuit
  end

let lint_file file = lint_text ~name:(Filename.basename file) (read_file file)

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

type report =
  | Text of string
  | Natural_report of {
      osc : Shil.Analysis.oscillator;
      solutions : Shil.Natural.solution list;
    }
  | Shil_report of { report : Shil.Analysis.shil_report; finj : float option }
  | Hb_report of hb_outcome
  | Transient_report of {
      times : float array;
      values : float array;
      cycles : float;
    }

let run ?(preflight = `Enforce) (payload : Request.payload) =
  match payload with
  | Ping -> Text "pong"
  | Health -> Text (health_text ())
  | Stats -> Text (stats_text ())
  | Sleep { s } -> Text (sleep_payload s)
  | Natural { osc } ->
    let osc = resolve_oscillator osc in
    Natural_report
      { osc; solutions = Shil.Natural.solve osc.nl ~r:osc.tank.r }
  | Shil { osc; n; vi; reduced; finj } ->
    Shil_report
      { report = shil_run ~osc:(resolve_oscillator osc) ~n ~vi ~reduced; finj }
  | Lockrange { osc; n; vi; validate } ->
    Text (lockrange_text ~cell:(Cells.of_spec osc) ~n ~vi ~validate)
  | Hb { osc; n; vi; k_max; samples; mode } ->
    Hb_report
      (hb_run ~osc:(resolve_oscillator osc) ~n ~vi ~k_max ~samples ~mode)
  | Dcsweep { osc } ->
    let vs, is = (Cells.of_spec osc).fv () in
    Text (csv [ "v"; "i" ] vs [ is ])
  | Transient { osc; n; vi; cycles; finj } ->
    let cell = Cells.of_spec osc in
    let fc = Shil.Tank.f_c cell.tank in
    let circuit =
      cell.circuit (Option.map (fun f_inj -> { Cells.n; vi; f_inj }) finj)
    in
    let res =
      Spice.Transient.run circuit ~probes:[ cell.probe ]
        (Spice.Transient.default_options
           ~dt:(1.0 /. (fc *. 150.0))
           ~t_stop:(cycles /. fc))
    in
    Transient_report
      {
        times = res.times;
        values = Spice.Transient.signal res cell.probe;
        cycles;
      }
  | Scenario { name; text } ->
    Text (scenario_entry ~file:name (scenario_outcome ~name text))
  | Lint { name; text } ->
    Text (Check.Diagnostic.file_to_json ~file:name (lint_text ~name text))
  | Netlist_op { name; text } ->
    let circuit = netlist_of_text ~name text in
    Text (op_text ~circuit (Spice.Op.run ~check:preflight circuit))
  | Netlist_tran { name; text; t_stop; dt; probes } ->
    let circuit = netlist_of_text ~name text in
    let probes =
      List.map
        (fun n -> Spice.Transient.Node n)
        (if probes = [] then Spice.Circuit.node_names circuit else probes)
    in
    Text
      (tran_csv
         (Spice.Transient.run ~check:preflight circuit ~probes
            (Spice.Transient.default_options ~dt ~t_stop)))

let report_text = function
  | Text s -> s
  | Natural_report { osc; solutions } -> natural_text osc solutions
  | Shil_report { report; finj } -> shil_report_text report ~finj
  | Hb_report o -> hb_text o
  | Transient_report { times; values; _ } ->
    csv [ "t"; "v" ] times [ values ]

let execute (req : Request.t) =
  match report_text (run req.payload) with
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
