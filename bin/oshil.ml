(* oshil: command-line front end for the SHIL analysis library.

   Subcommands: natural, shil, lockrange, hb, dcsweep, transient,
   netlist, lint, stats, batch, serve, call, api, experiments.

   The analysis subcommands (natural through transient, and netlist's
   op and tran) are a thin shell over lib/api: their flags build an
   [Api.Request] payload, [Api.run] executes it, and the report bytes
   [Api.report_text] returns are printed. [oshil api] and [oshil call]
   build the same payloads from the same flags, so a subcommand, an
   in-process request and a daemon request print the same report.
   Only what has no request field stays here: the --ascii plots,
   hb --json, netlist --force and --analysis print.

   Oscillators are selected with --osc (a cell name or alias, see
   Check.Cell) or described inline with --g0/--isat/-r/--fc/-q for a
   custom tanh cell. *)

open Cmdliner

(* print to stderr and exit 2, the status of every usage error *)
let usage_error fmt =
  Format.kasprintf
    (fun msg ->
      Format.eprintf "%s@." msg;
      exit 2)
    fmt

let read_source file = (file, In_channel.with_open_bin file In_channel.input_all)

(* ------------------------------------------------------------------ *)
(* Oscillator selection *)

let osc_conv =
  let parse s =
    match Check.Cell.of_name s with
    | Some cell -> Ok cell
    | None -> Error (`Msg (Printf.sprintf "unknown oscillator %S" s))
  in
  let print ppf cell = Format.pp_print_string ppf (Check.Cell.name cell) in
  Arg.conv (parse, print)

let osc_arg =
  let doc = "Oscillator: tanh (behavioural), diffpair (BJT, §IV-A) or tunnel (§IV-B)." in
  Arg.(value & opt osc_conv Check.Cell.Tanh & info [ "osc" ] ~docv:"NAME" ~doc)

let custom_args =
  let arg name docv doc =
    Arg.(value & opt (some float) None
         & info [ name ] ~docv ~doc:("Custom tanh: " ^ doc ^ "."))
  in
  Term.(const (fun g0 isat r fc q -> (g0, isat, r, fc, q))
        $ arg "g0" "S" "small-signal conductance magnitude"
        $ arg "isat" "A" "saturation current"
        $ arg "r" "OHM" "tank resistance"
        $ arg "fc" "HZ" "tank centre frequency"
        $ arg "q" "Q" "tank quality factor")

(* The oscillator flags as the request's osc_spec, which Api.Cells
   resolves for the CLI and the daemon alike. Built when forced, like
   every payload below. *)
let osc_spec cell (g0, isat, r, fc, q) () : Api.Request.osc_spec =
  match (cell, g0) with
  | (Check.Cell.Diffpair | Tunnel), Some _ ->
    usage_error "oshil: --osc %s takes no custom cell; --g0 describes a tanh cell"
      (Check.Cell.name cell)
  | _, Some g0 -> Api.Request.custom ?isat ?r ?fc ?q g0
  | _, None -> Builtin (Check.Cell.name cell)

let osc_term = Term.(const osc_spec $ osc_arg $ custom_args)

(* dcsweep and transient take a builtin cell only *)
let builtin_term =
  Term.(const (fun cell () -> Api.Request.Builtin (Check.Cell.name cell)) $ osc_arg)

let jobs_arg =
  let doc =
    "Worker-pool size for the parallel kernels (grid sampling, sweeps, \
     lock searches). Defaults to $(b,OSHIL_JOBS) or the number of cores; \
     1 disables parallelism."
  in
  Arg.(value & opt (some int) None & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let apply_jobs = function
  | Some n when n >= 1 -> Numerics.Pool.set_jobs n
  | Some n -> usage_error "oshil: --jobs must be >= 1 (got %d)" n
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Signal hygiene: SIGINT/SIGTERM mid-analysis must not lose the
   telemetry sinks or a half-finished batch report. The handler runs a
   registered partial-report hook (batch installs one), flushes the
   [--trace]/[--metrics] sinks and the disk cache, and exits with the
   conventional 128+signum code (130 for SIGINT, 143 for SIGTERM) so
   callers can tell an interrupted run from a failed one (exit 1-3).
   [oshil serve] replaces these handlers with drain-mode entry. *)

let signal_name s = if s = Sys.sigterm then "SIGTERM" else "SIGINT"
let signal_exit_code s = if s = Sys.sigterm then 143 else 130

(* what an interrupted long-running subcommand should salvage before
   exiting; at most one is active (the subcommands run sequentially) *)
let partial_report_hook : (signal:string -> unit) option ref = ref None

let install_signal_hygiene () =
  let handle s =
    (match !partial_report_hook with
    | Some hook -> ( try hook ~signal:(signal_name s) with _ -> ())
    | None -> ());
    Obs.flush ();
    exit (signal_exit_code s)
  in
  List.iter
    (fun s ->
      try Sys.set_signal s (Sys.Signal_handle handle)
      with Invalid_argument _ | Sys_error _ -> ())
    [ Sys.sigint; Sys.sigterm ]

(* Telemetry flags, shared by every analysis subcommand. Environment
   defaults first, explicit flags override. *)
let obs_args =
  let trace =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"Record runtime telemetry to $(docv): Chrome trace_event \
                   JSON (load in chrome://tracing or Perfetto), or the \
                   JSONL event log replayable with $(b,oshil stats) when \
                   $(docv) ends in .jsonl. $(b,OSHIL_TRACE) sets the \
                   default.")
  in
  let metrics =
    Arg.(value & flag
         & info [ "metrics" ]
             ~doc:"Print the telemetry summary (per-span totals, solver \
                   counters) on stderr at exit. $(b,OSHIL_METRICS=1) sets \
                   the default.")
  in
  let events =
    Arg.(value & flag
         & info [ "events" ]
             ~doc:"Also record the high-volume solver-introspection event \
                   stream (per-Newton-iteration residuals, step \
                   accept/reject, bisection probes, cache locality, pool \
                   utilization, GC samples) into the trace, for \
                   $(b,oshil stats report). Off by default — implies \
                   nothing about numerics: results stay bit-identical. \
                   $(b,OSHIL_EVENTS=1) sets the default.")
  in
  let inject =
    Arg.(value & opt (some string) None
         & info [ "inject-fault" ] ~docv:"PLAN"
             ~doc:"Arm deterministic fault injection. $(docv) is a \
                   comma-separated list of $(b,site[@START[xCOUNT]]) \
                   specs (e.g. $(b,newton-singular@0x2,tran-reject@5)); \
                   a bare site fires on every occurrence. \
                   $(b,OSHIL_FAULTS) sets the default. Zero faults \
                   armed leaves every result bit-identical.")
  in
  let fail_fast =
    Arg.(value & flag
         & info [ "fail-fast" ]
             ~doc:"Abort on the first failed grid point / probe / sweep \
                   cell instead of recording a typed hole and \
                   continuing with a partial result.")
  in
  let cache =
    Arg.(value & flag
         & info [ "cache" ]
             ~doc:"Enable the content-addressed result cache: \
                   natural-oscillation solves, lock-range predictions, \
                   describing-function grids and complete transient \
                   waveforms are memoized on their \
                   full input (in-memory LRU plus an on-disk store) and \
                   replayed bit-identically. $(b,OSHIL_CACHE=1) sets \
                   the default.")
  in
  let cache_dir =
    Arg.(value & opt (some string) None
         & info [ "cache-dir" ] ~docv:"DIR"
             ~doc:"On-disk cache location (default $(b,out/cache); \
                   $(b,OSHIL_CACHE_DIR) sets the default).")
  in
  Term.(const (fun t m e p f c cd -> (t, m, e, p, f, c, cd)) $ trace
        $ metrics $ events $ inject $ fail_fast $ cache $ cache_dir)

let apply_obs (trace, metrics, events, fault_plan, fail_fast, cache, cache_dir)
    =
  install_signal_hygiene ();
  Obs.configure_from_env ();
  Option.iter Obs.trace_to_file trace;
  if metrics then Obs.configure ~summary:true ~enabled:true ();
  if events then Obs.configure ~events:true ();
  Cache.Store.configure_from_env ();
  if cache then Cache.Store.set_enabled true;
  Option.iter Cache.Store.set_dir cache_dir;
  Resilience.Fault.configure_from_env ();
  (match fault_plan with
  | None -> ()
  | Some plan -> (
    match Resilience.Fault.configure plan with
    | Ok () -> ()
    | Error msg -> usage_error "oshil: bad --inject-fault plan: %s" msg));
  if fail_fast then Resilience.Policy.set_fail_fast true

(* the set-up every analysis subcommand runs before its payload *)
let setup =
  Term.(const (fun obs jobs () -> apply_obs obs; apply_jobs jobs) $ obs_args
        $ jobs_arg)

(* ------------------------------------------------------------------ *)
(* The flag table: each request field's flag, defined once and read by
   the analysis subcommands and by [oshil api]/[oshil call] alike. *)

let n_arg =
  Arg.(value & opt int 3
       & info [ "n" ] ~docv:"N" ~doc:"Sub-harmonic order (1 = FHIL).")

let vi_arg =
  Arg.(value & opt float 0.03
       & info [ "vi" ] ~docv:"V" ~doc:"Injection phasor magnitude $(docv).")

let finj_arg =
  Arg.(value & opt (some float) None
       & info [ "finj" ] ~docv:"HZ"
           ~doc:"Injection frequency. shil: list the lock points at \
                 $(docv). hb: solve the injection-locked spectrum at \
                 $(docv) (landing on harmonic n of $(docv)/n). \
                 transient: add the injection tone at $(docv).")

let reduced_arg =
  Arg.(value & flag
       & info [ "reduced" ]
           ~doc:"shil: use the symmetry-reduced quadrature (faster, \
                 tolerance-grade; see Describing_function.reduction).")

let validate_arg =
  Arg.(value & flag
       & info [ "validate" ]
           ~doc:"lockrange: also binary-search the lock edges with \
                 transient simulation of the cell's netlist, injected at \
                 the requested n and vi (slow).")

let kmax_arg =
  Arg.(value & opt int 7
       & info [ "kmax" ] ~docv:"K" ~doc:"hb: harmonics retained per unknown.")

let samples_arg =
  Arg.(value & opt int 1024
       & info [ "samples" ] ~docv:"S"
           ~doc:"hb: time points per period for the nonlinear device \
                 evaluation (the spectral quadrature).")

let lockrange_arg =
  Arg.(value & flag
       & info [ "lockrange" ]
           ~doc:"hb: march and bisect the HB lock band around n x f_osc \
                 (the DF prediction supplies the initial width and is \
                 reported alongside).")

let cycles_arg =
  Arg.(value & opt float 200.0
       & info [ "cycles" ] ~docv:"N"
           ~doc:"transient: simulated length in tank periods.")

let tstop_arg =
  Arg.(value & opt float 1e-3
       & info [ "tstop" ] ~docv:"S" ~doc:"Netlist transient: stop time.")

let dt_arg =
  Arg.(value & opt float 1e-6
       & info [ "dt" ] ~docv:"S" ~doc:"Netlist transient: step.")

let probe_arg =
  Arg.(value & opt_all string []
       & info [ "probe" ] ~docv:"NODE"
           ~doc:"Netlist transient: node(s) to record (default: every node).")

let ascii_arg =
  Arg.(value & flag & info [ "ascii" ] ~doc:"Draw terminal plots.")

let json_arg =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON on stdout.")

(* ------------------------------------------------------------------ *)
(* Payload builders: each op's flags reduced to its request payload,
   built when forced, so that the api/call op table can hold every
   builder while only the chosen op reads a file or rejects a flag. *)

let natural_payload =
  Term.(const (fun osc () -> Api.Request.Natural { osc = osc () }) $ osc_term)

let shil_payload =
  let build osc n vi finj reduced () =
    Api.Request.Shil { osc = osc (); n; vi; reduced; finj }
  in
  Term.(const build $ osc_term $ n_arg $ vi_arg $ finj_arg $ reduced_arg)

let lockrange_payload =
  let build osc n vi validate () =
    Api.Request.Lockrange { osc = osc (); n; vi; validate }
  in
  Term.(const build $ osc_term $ n_arg $ vi_arg $ validate_arg)

(* [who] prefixes the usage error, as each command words it *)
let hb_payload ~who =
  let build osc n vi k_max samples finj lockrange () =
    let mode =
      match Api.Request.hb_mode ~lockrange finj with
      | Some mode -> mode
      | None -> usage_error "%s: --lockrange and --finj conflict" who
    in
    Api.Request.Hb { osc = osc (); n; vi; k_max; samples; mode }
  in
  Term.(const build $ osc_term $ n_arg $ vi_arg $ kmax_arg $ samples_arg
        $ finj_arg $ lockrange_arg)

let dcsweep_payload osc =
  Term.(const (fun osc () -> Api.Request.Dcsweep { osc = osc () }) $ osc)

let transient_payload osc =
  let build osc n vi cycles finj () =
    Api.Request.Transient { osc = osc (); n; vi; cycles; finj }
  in
  Term.(const build $ osc $ n_arg $ vi_arg $ cycles_arg $ finj_arg)

let netlist_op (name, text) = Api.Request.Netlist_op { name; text }

let netlist_tran_payload =
  let build t_stop dt probes (name, text) =
    Api.Request.Netlist_tran { name; text; t_stop; dt; probes }
  in
  Term.(const build $ tstop_arg $ dt_arg $ probe_arg)

(* ------------------------------------------------------------------ *)
(* Analysis subcommands: set up, run the payload through [Api.run], and
   hand the report to [view], which prints its text or, for a CLI-only
   flag, another view of the same result. *)

let print_report r = print_string (Api.report_text r)

let analysis_cmd ?(setup = setup) name ~doc payload view =
  let run setup payload view =
    setup ();
    view (Api.run (payload ()))
  in
  Cmd.v (Cmd.info name ~doc) Term.(const run $ setup $ payload $ view)

let natural_cmd =
  let view ascii r =
    print_report r;
    match r with
    | Api.Natural_report { osc; solutions } when ascii ->
      let r = (osc.tank : Shil.Tank.t).r in
      (* the largest stable amplitude, as predicted_amplitude picks it,
         from the solve the report already ran *)
      let a_max =
        List.fold_left
          (fun acc (s : Shil.Natural.solution) -> if s.stable then 1.6 *. s.a else acc)
          1.0 solutions
      in
      let fig =
        Plotkit.Fig.add_hline
          (Plotkit.Fig.add_fun
             (Plotkit.Fig.create ~title:"T_f(A)" ~xlabel:"A (V)" ())
             ~f:(fun a -> Shil.Describing_function.t_f_free osc.nl ~r ~a)
             ~a:(1e-3 *. a_max) ~b:a_max)
          ~y:1.0
      in
      Plotkit.Ascii_render.print fig
    | _ -> ()
  in
  analysis_cmd "natural" ~doc:"Predict natural oscillation amplitude (§II)."
    natural_payload Term.(const view $ ascii_arg)

let shil_cmd =
  let view ascii r =
    print_report r;
    match r with
    | Api.Shil_report { report; _ } when ascii ->
      let fig =
        Plotkit.Fig.add_polylines
          (Plotkit.Fig.add_polylines
             (Plotkit.Fig.create ~title:"C_{T_f,1} (o) and phase curve (+)"
                ~xlabel:"phi (rad)" ())
             ~curves:(Shil.Grid.t_f_curve report.grid))
          ~curves:(Shil.Grid.phase_curve report.grid ~phi_d:0.0)
      in
      Plotkit.Ascii_render.print fig
    | _ -> ()
  in
  analysis_cmd "shil"
    ~doc:"Full SHIL analysis: locks, stability, states, lock range (§III)."
    shil_payload Term.(const view $ ascii_arg)

let lockrange_cmd =
  analysis_cmd "lockrange"
    ~doc:"Predict (and optionally validate) the SHIL lock range."
    lockrange_payload (Term.const print_report)

let dcsweep_cmd =
  analysis_cmd ~setup:(Term.const ignore) "dcsweep"
    ~doc:"Extract and print the i = f(v) table (CSV on stdout)."
    (dcsweep_payload builtin_term) (Term.const print_report)

let transient_cmd =
  let view ascii r =
    match r with
    | Api.Transient_report { times; values; cycles } when ascii ->
      let s = Waveform.Signal.make ~times ~values in
      let tail = Waveform.Signal.tail_fraction s 0.25 in
      Format.printf "steady amplitude: %.6g V, frequency: %.8g Hz@."
        (Waveform.Measure.amplitude tail)
        (Waveform.Measure.frequency tail);
      let last = Waveform.Signal.tail_fraction s (10.0 /. cycles) in
      Plotkit.Ascii_render.print
        (Plotkit.Fig.add_line
           (Plotkit.Fig.create ~title:"transient (last 10 cycles)" ~xlabel:"t (s)" ())
           ~xs:last.times ~ys:last.values)
    | r -> print_report r
  in
  analysis_cmd "transient"
    ~doc:"Device-level transient simulation (CSV or --ascii summary)."
    (transient_payload builtin_term) Term.(const view $ ascii_arg)

let hb_cmd =
  let view json r =
    match r with
    | Api.Hb_report o when json -> print_endline (Api.hb_json o)
    | r -> print_report r
  in
  analysis_cmd "hb"
    ~doc:"Multi-harmonic frequency-domain analysis of the full MNA \
          system: oscprobe steady state, injected-tone SHIL solve \
          (--finj) or HB lock range (--lockrange)."
    (hb_payload ~who:"oshil hb") Term.(const view $ json_arg)

(* ------------------------------------------------------------------ *)
(* netlist *)

let netlist_cmd =
  let file_arg =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"NETLIST" ~doc:"SPICE-like netlist file.")
  in
  let analysis_arg =
    Arg.(value & opt string "op"
         & info [ "analysis" ] ~docv:"KIND"
             ~doc:"Analysis to run: op (default), tran or print.")
  in
  let force_arg =
    Arg.(value & flag
         & info [ "force" ]
             ~doc:"Downgrade pre-flight check errors to warnings and run \
                   the analysis anyway.")
  in
  let run obs file analysis tran force =
    apply_obs obs;
    let ((_, text) as source) = read_source file in
    let preflight = if force then `Warn else `Enforce in
    try
      match analysis with
      | "print" ->
        print_string (Spice.Netlist.to_string (Api.netlist_of_text ~name:file text))
      | "op" -> print_report (Api.run ~preflight (netlist_op source))
      | "tran" -> print_report (Api.run ~preflight (tran source))
      | other ->
        Format.eprintf "unknown analysis %S@." other;
        exit 1
    with
    | Check.Diagnostic.Failed ds ->
      Format.eprintf "%s: rejected by pre-flight checks:@." file;
      List.iter (fun d -> Format.eprintf "  %a@." Check.Diagnostic.pp d) ds;
      Format.eprintf "(use --force to run anyway, or `oshil lint` to inspect)@.";
      exit 1
    | Resilience.Oshil_error.Error { kind = Parse_failure; phase = "netlist"; msg; _ } ->
      (* [msg] is "file:line: message" *)
      Format.eprintf "%s@." msg;
      exit 1
  in
  let term =
    Term.(const run $ obs_args $ file_arg $ analysis_arg $ netlist_tran_payload
          $ force_arg)
  in
  Cmd.v
    (Cmd.info "netlist" ~doc:"Parse a SPICE-like netlist and run op/tran on it.")
    term

(* ------------------------------------------------------------------ *)
(* lint *)

let lint_cmd =
  let files_arg =
    Arg.(non_empty & pos_all file []
         & info [] ~docv:"FILE"
             ~doc:"Netlist (.cir) or SHIL scenario (.scn) to analyze.")
  in
  let strict_arg =
    Arg.(value & flag & info [ "strict" ] ~doc:"Treat warnings as errors.")
  in
  let run files json strict =
    let module D = Check.Diagnostic in
    let reports = List.map (fun f -> (f, Api.lint_file f)) files in
    if json then begin
      let entry (f, ds) = D.file_to_json ~file:f ds in
      print_endline
        (Printf.sprintf "[%s]" (String.concat "," (List.map entry reports)))
    end
    else
      List.iter
        (fun (f, ds) ->
          if ds = [] then Format.printf "%s: OK@." f
          else begin
            Format.printf "%s:@." f;
            List.iter (fun d -> Format.printf "  %a@." D.pp d) ds;
            Format.printf "%s: %d error(s), %d warning(s), %d note(s)@." f
              (D.count_severity D.Error ds)
              (D.count_severity D.Warning ds)
              (D.count_severity D.Info ds)
          end)
        reports;
    let bad (_, ds) =
      D.errors ds <> [] || (strict && D.count_severity D.Warning ds > 0)
    in
    if List.exists bad reports then exit 1
  in
  let term = Term.(const run $ files_arg $ json_arg $ strict_arg) in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Static pre-flight analysis of netlists and SHIL scenarios \
             (no simulation; non-zero exit on errors).")
    term

(* ------------------------------------------------------------------ *)
(* stats *)

let stats_files_arg =
  Arg.(non_empty & pos_all string []
       & info [] ~docv:"TRACE"
           ~doc:"JSONL telemetry trace(s), as written by \
                 $(b,--trace FILE.jsonl) or $(b,OSHIL_TRACE). Several \
                 files merge: counters and histograms sum, spans and \
                 events interleave in timestamp order, gauges keep \
                 their maximum — the merge is independent of the order \
                 the files are listed in. Prefix with the keyword \
                 $(b,report) for the run-health report.")

let stats_load files =
  match Obs.Trace_read.load_many files with
  | exception Obs.Trace_read.Parse_error msg ->
    Format.eprintf "oshil stats: %s@." msg;
    exit 1
  | exception Sys_error msg ->
    Format.eprintf "oshil stats: %s@." msg;
    exit 1
  | s -> s

let stats_cmd =
  let assert_arg =
    Arg.(value & opt_all string []
         & info [ "assert-counter" ] ~docv:"NAME[:MIN]"
             ~doc:"Exit 1 unless counter $(b,NAME) appears in the merged \
                   trace with value >= MIN (default 1). Repeatable; the \
                   fault-injection smoke tests use this to pin each \
                   recovery path to its $(b,resilience.*) counter.")
  in
  let compare_arg =
    Arg.(value & flag
         & info [ "compare" ]
             ~doc:"Take exactly two $(b,TRACE) files and print a \
                   side-by-side run-health diff (counters, span time, \
                   quantiles, solver convergence) with relative deltas \
                   instead of merging them.")
  in
  let json_arg =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"With $(b,report): emit deterministic JSON instead of \
                   the human table (same trace always renders to the \
                   same bytes).")
  in
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "o"; "out" ] ~docv:"FILE"
             ~doc:"With $(b,report): write the report to $(docv) instead \
                   of stdout.")
  in
  let run_report files json out =
    let r = Obs.Report.of_snapshot (stats_load files) in
    let body =
      if json then Obs.Report.to_json r
      else Format.asprintf "%a@." Obs.Report.pp r
    in
    match out with
    | None -> print_string body
    | Some path ->
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc body)
  in
  let run files asserts compare json out =
    (* [stats report T...] — the leading keyword selects the run-health
       report (cmdliner 1.3 sub-commands cannot coexist with a default
       term that takes positionals, so the dispatch is by hand) *)
    match files with
    | "report" :: rest ->
      if rest = [] then usage_error "oshil stats report: no TRACE files given";
      run_report rest json out
    | _ ->
    if compare then begin
      match files with
      | [ fa; fb ] ->
        let ra = Obs.Report.of_snapshot (stats_load [ fa ]) in
        let rb = Obs.Report.of_snapshot (stats_load [ fb ]) in
        Obs.Report.pp_compare Format.std_formatter ~label_a:fa ~label_b:fb
          ra rb;
        Format.print_newline ()
      | _ ->
        usage_error "oshil stats: --compare takes exactly two TRACE files (got %d)"
          (List.length files)
    end
    else begin
      let s = stats_load files in
      Format.printf "%a@." Obs.Sink.summary s;
      let check spec =
        let name, min_v =
          match String.index_opt spec ':' with
          | None -> (spec, 1)
          | Some i -> (
            let name = String.sub spec 0 i in
            let m = String.sub spec (i + 1) (String.length spec - i - 1) in
            match int_of_string_opt m with
            | Some v -> (name, v)
            | None -> usage_error "oshil stats: bad --assert-counter %S" spec)
        in
        let v =
          Option.value ~default:0
            (List.assoc_opt name s.Obs.Registry.counters)
        in
        if v >= min_v then begin
          Format.printf "assert %s: %d >= %d ok@." name v min_v;
          true
        end
        else begin
          Format.eprintf "oshil stats: counter %s = %d, wanted >= %d@." name
            v min_v;
          false
        end
      in
      if List.exists not (List.map check asserts) then exit 1
    end
  in
  let term =
    Term.(const run $ stats_files_arg $ assert_arg $ compare_arg $ json_arg
          $ out_arg)
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Replay JSONL telemetry traces: summary table (default), \
             run-health report ($(b,oshil stats report TRACE...) — \
             per-solver convergence rates, worst-converging grid cells, \
             self/total span time, step control, brackets, cache \
             locality, allocation; record with $(b,--trace FILE.jsonl \
             --events) first), or two-trace $(b,--compare) diff.")
    term

(* ------------------------------------------------------------------ *)
(* batch *)

let batch_cmd =
  let dir_arg =
    Arg.(value & pos 0 dir "examples/scenarios"
         & info [] ~docv:"DIR"
             ~doc:"Directory of $(b,.scn) scenario files (searched \
                   non-recursively, run in name order).")
  in
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "o"; "out" ] ~docv:"FILE"
             ~doc:"Write the JSON report to $(docv) instead of stdout.")
  in
  let run setup dir out =
    setup ();
    let files =
      Sys.readdir dir |> Array.to_list
      |> List.filter Api.is_scenario_file
      |> List.sort String.compare
      |> List.map (Filename.concat dir)
      |> Array.of_list
    in
    if Array.length files = 0 then usage_error "oshil batch: no .scn files in %s" dir;
    let emit report =
      match out with
      | None -> print_string report
      | Some path ->
        Out_channel.with_open_bin path (fun oc ->
            Out_channel.output_string oc report)
    in
    (* finished per-scenario entries, recorded as the pool completes
       them: the SIGINT/SIGTERM handler salvages these into a partial
       report before flushing sinks and exiting 130/143 *)
    let slots = Array.make (Array.length files) None in
    partial_report_hook :=
      Some
        (fun ~signal ->
          let done_ = ref [] and n_done = ref 0 in
          Array.iter
            (function
              | Some entry ->
                incr n_done;
                done_ := ("  " ^ entry) :: !done_
              | None -> ())
            slots;
          emit
            (Printf.sprintf
               "{\"partial\":true,\"signal\":\"%s\",\"scenarios\":%d,\"completed\":%d,\"results\":[\n%s\n]}\n"
               signal (Array.length files) !n_done
               (String.concat ",\n" (List.rev !done_))));
    (* one scenario per pool task: a scenario that dies (no oscillation,
       solver blow-up, injected fault) becomes a typed error slot, the
       rest of the batch completes, and the shared cache stays warm
       across scenarios that hit the same grids *)
    let outcomes =
      Numerics.Pool.parallel_try_map_array ~subsystem:Shil ~phase:"batch"
        (fun i ->
          let outcome = Api.scenario_file_outcome files.(i) in
          slots.(i) <- Some (Api.scenario_entry ~file:files.(i) outcome);
          outcome)
        (Array.init (Array.length files) Fun.id)
    in
    partial_report_hook := None;
    let body file = function
      | Ok outcome -> Api.scenario_entry ~file outcome
      | Error e ->
        Printf.sprintf {|{"file":"%s","status":"error","error":"%s"}|}
          (Json.escape file)
          (Json.escape (Resilience.Oshil_error.to_string e))
    in
    let count p = Array.length (Array.of_seq (Seq.filter p (Array.to_seq outcomes))) in
    let n_ok = count (function Ok (Api.Scn_ok _) -> true | _ -> false) in
    let n_lint =
      count (function Ok (Api.Scn_lint_error _) -> true | _ -> false)
    in
    let n_err = count (function Error _ -> true | _ -> false) in
    let results =
      Array.to_list (Array.mapi (fun i o -> "  " ^ body files.(i) o) outcomes)
    in
    let report =
      Printf.sprintf
        "{\"scenarios\":%d,\"ok\":%d,\"lint_errors\":%d,\"errors\":%d,\"results\":[\n%s\n]}\n"
        (Array.length files) n_ok n_lint n_err
        (String.concat ",\n" results)
    in
    emit report;
    let failures =
      List.concat
        (Array.to_list
           (Array.mapi
              (fun i o ->
                match o with
                | Error e ->
                  [ { Resilience.Summary.site = files.(i); error = e } ]
                | Ok _ -> [])
              outcomes))
    in
    let summary =
      Resilience.Summary.make ~attempted:(Array.length files) failures
    in
    Format.eprintf "batch: %d scenario(s), %d ok, %d lint error(s), %d error(s)@."
      (Array.length files) n_ok n_lint n_err;
    if not (Resilience.Summary.is_clean summary) then
      Format.eprintf "%a@." Resilience.Summary.pp summary;
    if n_lint + n_err > 0 then exit 1
  in
  let term = Term.(const run $ setup $ dir_arg $ out_arg) in
  Cmd.v
    (Cmd.info "batch"
       ~doc:"Run every .scn scenario in a directory through the SHIL \
             analysis pipeline (parallel, per-scenario failure \
             isolation, shared result cache) and emit a JSON report.")
    term

(* ------------------------------------------------------------------ *)
(* ------------------------------------------------------------------ *)
(* serve / call / api *)

(* The request flags: [oshil api] executes the request in-process,
   [oshil call] sends it to a daemon. OP picks one payload builder from
   [ops], each reading the flag table above, so a request runs what the
   subcommand of the same name runs, and the two paths return identical
   bytes. *)
let request_term =
  let id_arg =
    Arg.(value & opt string "cli"
         & info [ "id" ] ~docv:"ID" ~doc:"Request id echoed in the response.")
  in
  let deadline_arg =
    Arg.(value & opt (some float) None
         & info [ "deadline" ] ~docv:"S"
             ~doc:"Per-request wall-clock budget; overrunning work \
                   unwinds into a typed budget-exhausted error.")
  in
  let file_arg =
    Arg.(value & opt (some file) None
         & info [ "file" ] ~docv:"FILE"
             ~doc:"Input for scenario/lint/netlist ops; the contents \
                   travel inline in the request, the basename anchors \
                   diagnostics.")
  in
  let seconds_arg =
    Arg.(value & opt float 0.05
         & info [ "seconds" ] ~docv:"S"
             ~doc:"sleep: wall clock to burn (deadline-checked).")
  in
  let with_file (op, make) =
    let build file make () =
      match file with
      | Some f -> make (read_source f)
      | None -> usage_error "oshil: op %s needs --file" op
    in
    (op, Term.(const build $ file_arg $ make))
  in
  let ops =
    [
      ("ping", Term.const (fun () -> Api.Request.Ping));
      ("sleep", Term.(const (fun s () -> Api.Request.Sleep { s }) $ seconds_arg));
      ("natural", natural_payload);
      ("shil", shil_payload);
      ("lockrange", lockrange_payload);
      ("hb", hb_payload ~who:"oshil");
      ("dcsweep", dcsweep_payload osc_term);
      ("transient", transient_payload osc_term);
    ]
    @ List.map with_file
        [
          ("scenario", Term.const (fun (name, text) -> Api.Request.Scenario { name; text }));
          ("lint", Term.const (fun (name, text) -> Api.Request.Lint { name; text }));
          ("netlist-op", Term.const netlist_op);
          ("netlist-tran", netlist_tran_payload);
        ]
    @ [
        ("health", Term.const (fun () -> Api.Request.Health));
        ("stats", Term.const (fun () -> Api.Request.Stats));
      ]
  in
  let op_arg =
    Arg.(value & pos 0 string "ping"
         & info [] ~docv:"OP"
             ~doc:("Operation: " ^ String.concat ", " (List.map fst ops) ^ "."))
  in
  let payloads =
    List.fold_right
      (fun (op, payload) rest ->
        Term.(const (fun p ps -> (op, p) :: ps) $ payload $ rest))
      ops (Term.const [])
  in
  let build id deadline_s op payloads =
    match List.assoc_opt op payloads with
    | Some payload -> { Api.Request.id; deadline_s; payload = payload () }
    | None -> usage_error "oshil: unknown op %S" op
  in
  Term.(const build $ id_arg $ deadline_arg $ op_arg $ payloads)

let parse_addr ~what s =
  match Serve.Addr.of_string s with
  | Ok a -> a
  | Error msg -> usage_error "oshil %s: %s" what msg

let api_cmd =
  let run setup req =
    setup ();
    print_endline
      (Api.response_of_outcome ~id:req.Api.Request.id (Api.handle req))
  in
  let term = Term.(const run $ setup $ request_term) in
  Cmd.v
    (Cmd.info "api"
       ~doc:"Execute one typed request in-process and print the wire \
             response — the reference bytes for the daemon's \
             byte-identity contract.")
    term

let call_cmd =
  let connect_arg =
    Arg.(required & opt (some string) None
         & info [ "connect"; "c" ] ~docv:"ADDR"
             ~doc:"Daemon address: unix:PATH, tcp:HOST:PORT, HOST:PORT \
                   or a bare socket path.")
  in
  let raw_arg =
    Arg.(value & opt (some string) None
         & info [ "raw" ] ~docv:"LINE"
             ~doc:"Send $(docv) verbatim instead of building a request \
                   (protocol testing, e.g. malformed JSON).")
  in
  let run connect raw req =
    let addr = parse_addr ~what:"call" connect in
    let line =
      match raw with Some l -> l | None -> Api.Request.to_string req
    in
    match Serve.Client.call addr line with
    | resp -> print_endline resp
    | exception Resilience.Oshil_error.Error e ->
      Format.eprintf "oshil call: %a@." Resilience.Oshil_error.pp e;
      exit 1
  in
  let term = Term.(const run $ connect_arg $ raw_arg $ request_term) in
  Cmd.v
    (Cmd.info "call"
       ~doc:"Send one request to a running $(b,oshil serve) daemon and \
             print the response line.")
    term

let serve_cmd =
  let listen_arg =
    Arg.(value & opt string "oshil.sock"
         & info [ "listen"; "l" ] ~docv:"ADDR"
             ~doc:"Listen address: unix:PATH, tcp:HOST:PORT, HOST:PORT \
                   or a bare socket path.")
  in
  let capacity_arg =
    Arg.(value & opt int 16
         & info [ "capacity" ] ~docv:"N"
             ~doc:"Job-queue slots. A full queue is explicit \
                   backpressure: requests are rejected immediately \
                   with a typed overload error.")
  in
  let workers_arg =
    Arg.(value & opt int 2
         & info [ "workers" ] ~docv:"N" ~doc:"Worker threads executing requests.")
  in
  let deadline_arg =
    Arg.(value & opt float 30.0
         & info [ "deadline" ] ~docv:"S"
             ~doc:"Default wall-clock budget for requests that carry \
                   no deadline_s of their own; 0 disables.")
  in
  let retries_arg =
    Arg.(value & opt int 2
         & info [ "retries" ] ~docv:"N"
             ~doc:"Extra attempts for transient-class failures \
                   (injected faults, solver divergence), inside the \
                   request's deadline.")
  in
  let backoff_arg =
    Arg.(value & opt float 0.05
         & info [ "backoff" ] ~docv:"S"
             ~doc:"Base retry backoff, doubled per attempt.")
  in
  let run setup listen capacity workers deadline retries backoff =
    setup ();
    let addr = parse_addr ~what:"serve" listen in
    if capacity < 1 || workers < 1 then
      usage_error "oshil serve: --capacity and --workers must be >= 1";
    (* replace the flush-and-exit hygiene handlers installed by
       [apply_obs]: for the daemon, SIGTERM/SIGINT mean graceful drain
       (stop accepting, finish in-flight work, flush, exit 0) *)
    List.iter
      (fun s ->
        try
          Sys.set_signal s
            (Sys.Signal_handle (fun _ -> Serve.Server.request_drain ()))
        with Invalid_argument _ | Sys_error _ -> ())
      [ Sys.sigint; Sys.sigterm ];
    let config =
      {
        Serve.Server.address = addr;
        capacity;
        workers;
        default_deadline_s = (if deadline <= 0.0 then None else Some deadline);
        max_retries = retries;
        retry_backoff_s = backoff;
      }
    in
    Serve.Server.run config
  in
  let term =
    Term.(const run $ setup $ listen_arg $ capacity_arg $ workers_arg
          $ deadline_arg $ retries_arg $ backoff_arg)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the resident analysis daemon: newline-delimited JSON \
             requests over a Unix or TCP socket, bounded job queue \
             with typed overload rejections, per-request deadlines, \
             crash isolation and SIGTERM-drain (exit 0).")
    term

(* ------------------------------------------------------------------ *)
(* experiments *)

let experiments_cmd =
  let fast_arg =
    Arg.(value & flag & info [ "fast" ] ~doc:"Skip the slow transient searches.")
  in
  let dir_arg =
    Arg.(value & opt string "out/figures"
         & info [ "dir" ] ~docv:"DIR" ~doc:"Output directory of the SVG figures.")
  in
  let run setup fast dir =
    setup ();
    Format.printf
      "oshil experiment harness - reproducing the tables and figures of@.\
       'A Rigorous Graphical Technique for Predicting Sub-harmonic Injection@.\
       Locking in LC Oscillators' (DAC 2014)%s@.@."
      (if fast then " [--fast: simulation searches skipped]" else "");
    Experiments.Paper.run ~fast (fun out ->
        Format.printf "%a@." Experiments.Output.print out;
        List.iter (Format.printf "  figure: %s@.")
          (Experiments.Output.write_figures ~dir out);
        Format.printf "@.");
    Format.printf "done.@."
  in
  let term = Term.(const run $ setup $ fast_arg $ dir_arg) in
  Cmd.v
    (Cmd.info "experiments"
       ~doc:"Reproduce the paper's tables and figures: print each result \
             and write its SVG figures under $(b,--dir).")
    term

let () =
  (* route pre-flight warnings (oshil.preflight / oshil.shil sources) to
     stderr; errors surface as Check.Diagnostic.Failed instead *)
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some Logs.Warning);
  let doc =
    "Graphical describing-function analysis of sub-harmonic injection \
     locking in LC oscillators (DAC 2014 reproduction)."
  in
  let info = Cmd.info "oshil" ~version:"1.0.0" ~doc in
  let group =
    Cmd.group info
      [
        natural_cmd; shil_cmd; lockrange_cmd; hb_cmd;
        dcsweep_cmd; transient_cmd; netlist_cmd; lint_cmd; stats_cmd;
        batch_cmd; serve_cmd; call_cmd; api_cmd; experiments_cmd;
      ]
  in
  (* typed solver errors get a rendered diagnostic and a distinct exit
     code instead of an uncaught-exception backtrace *)
  exit
    (try Cmd.eval ~catch:false group with
     | Resilience.Oshil_error.Error e ->
       Format.eprintf "oshil: %a@." Resilience.Oshil_error.pp e;
       3
     | Check.Diagnostic.Failed ds ->
       List.iter (fun d -> Format.eprintf "oshil: %a@." Check.Diagnostic.pp d) ds;
       3)
