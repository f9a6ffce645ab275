(* Tests for the runtime telemetry layer (lib/obs): span recording and
   nesting, metric semantics, sink round-trips, and the contract that
   enabling telemetry never changes numerical results. *)

(* The registry is process-global; every test starts from a clean,
   disabled state and leaves it that way. *)
let fresh f () =
  Obs.set_enabled false;
  Obs.set_events_enabled false;
  Obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.set_events_enabled false;
      Obs.reset ())
    f

let test_disabled_is_noop () =
  let v = Obs.Span.with_ ~name:"t.span" (fun () -> 41 + 1) in
  Alcotest.(check int) "span returns f's value" 42 v;
  Obs.Metrics.incr "t.counter";
  Obs.Metrics.set_gauge "t.gauge" 1.0;
  Obs.Metrics.register_histogram ~name:"t.h0" ~buckets:[| 1.0 |];
  Obs.Metrics.observe "t.h0" 0.5;
  let s = Obs.snapshot () in
  Alcotest.(check int) "no spans recorded" 0 (List.length s.Obs.Registry.spans);
  Alcotest.(check int) "no counters recorded" 0
    (List.length s.Obs.Registry.counters);
  Alcotest.(check int) "no hist samples recorded" 0
    (List.length s.Obs.Registry.hists)

let test_span_nesting_and_ordering () =
  Obs.set_enabled true;
  Obs.Span.with_ ~name:"outer" (fun () ->
      Obs.Span.with_ ~name:"inner_a" (fun () -> ignore (Sys.opaque_identity 1));
      Obs.Span.with_ ~name:"inner_b" (fun () -> ignore (Sys.opaque_identity 2)));
  let s = Obs.snapshot () in
  let spans = s.Obs.Registry.spans in
  Alcotest.(check (list string))
    "timestamp order: outer starts first, then a, then b"
    [ "outer"; "inner_a"; "inner_b" ]
    (List.map (fun (e : Obs.Registry.span_ev) -> e.name) spans);
  let find n =
    List.find (fun (e : Obs.Registry.span_ev) -> e.name = n) spans
  in
  let outer = find "outer" and a = find "inner_a" and b = find "inner_b" in
  Alcotest.(check int) "outer depth" 0 outer.depth;
  Alcotest.(check int) "inner_a depth" 1 a.depth;
  Alcotest.(check int) "inner_b depth" 1 b.depth;
  let ends (e : Obs.Registry.span_ev) = Int64.add e.ts_ns e.dur_ns in
  let contains (o : Obs.Registry.span_ev) (i : Obs.Registry.span_ev) =
    Int64.compare o.ts_ns i.ts_ns <= 0 && Int64.compare (ends i) (ends o) <= 0
  in
  Alcotest.(check bool) "outer contains inner_a" true (contains outer a);
  Alcotest.(check bool) "outer contains inner_b" true (contains outer b);
  Alcotest.(check bool) "inner_a ends before inner_b starts" true
    (Int64.compare (ends a) b.ts_ns <= 0)

let test_span_records_on_exception () =
  Obs.set_enabled true;
  (try Obs.Span.with_ ~name:"raises" (fun () -> failwith "boom")
   with Failure _ -> ());
  let s = Obs.snapshot () in
  Alcotest.(check (list string))
    "span recorded despite the raise" [ "raises" ]
    (List.map (fun (e : Obs.Registry.span_ev) -> e.name) s.Obs.Registry.spans)

let test_counters_across_domains () =
  Obs.set_enabled true;
  let p = Numerics.Pool.create ~size:4 in
  Fun.protect
    ~finally:(fun () -> Numerics.Pool.shutdown p)
    (fun () ->
      Numerics.Pool.parallel_for ~pool:p ~chunk:7 ~n:1000 (fun _ ->
          Obs.Metrics.incr "t.hits"));
  Alcotest.(check int) "increments merge across worker domains" 1000
    (Obs.Metrics.counter_value "t.hits")

let test_histogram_buckets () =
  Obs.set_enabled true;
  Obs.Metrics.register_histogram ~name:"t.hist" ~buckets:[| 1.0; 2.0; 5.0 |];
  List.iter (Obs.Metrics.observe "t.hist") [ 0.5; 1.0; 1.5; 2.0; 5.0; 7.0 ];
  let s = Obs.snapshot () in
  let _, bounds, counts =
    List.find (fun (n, _, _) -> n = "t.hist") s.Obs.Registry.hists
  in
  Alcotest.(check (array (float 0.0))) "bounds" [| 1.0; 2.0; 5.0 |] bounds;
  (* v lands in the first bucket with v <= bound; 7.0 overflows *)
  Alcotest.(check (array int)) "counts" [| 2; 2; 1; 1 |] counts;
  (* re-registration with different buckets is ignored (first wins) *)
  Obs.Metrics.register_histogram ~name:"t.hist" ~buckets:[| 10.0 |];
  Obs.Metrics.observe "t.hist" 0.1;
  let s = Obs.snapshot () in
  let _, bounds, _ =
    List.find (fun (n, _, _) -> n = "t.hist") s.Obs.Registry.hists
  in
  Alcotest.(check int) "bounds unchanged" 3 (Array.length bounds)

let test_histogram_bad_buckets () =
  Alcotest.check_raises "descending bounds rejected"
    (Invalid_argument
       "Obs.Metrics.register_histogram: bounds must be finite and strictly \
        ascending")
    (fun () ->
      Obs.Metrics.register_histogram ~name:"t.bad" ~buckets:[| 2.0; 1.0 |])

let test_gauge_last_write_wins () =
  Obs.set_enabled true;
  Obs.Metrics.set_gauge "t.g" 1.0;
  Obs.Metrics.set_gauge "t.g" 3.5;
  let s = Obs.snapshot () in
  Alcotest.(check (float 0.0))
    "latest value" 3.5
    (List.assoc "t.g" s.Obs.Registry.gauges)

let with_temp_file suffix f =
  let path = Filename.temp_file "oshil_obs_test" suffix in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let populate () =
  Obs.set_enabled true;
  Obs.Metrics.register_histogram ~name:"t.rt_hist" ~buckets:[| 1.0; 10.0 |];
  Obs.Span.with_ ~name:"rt.outer" ~attrs:[ ("k", "v one") ] (fun () ->
      Obs.Span.with_ ~name:"rt.inner" (fun () ->
          Obs.Metrics.incr ~by:7 "t.rt_counter"));
  Obs.Metrics.set_gauge "t.rt_gauge" 2.25;
  Obs.Metrics.observe "t.rt_hist" 0.5;
  Obs.Metrics.observe "t.rt_hist" 100.0;
  Obs.snapshot ()

let test_jsonl_round_trip () =
  (* non-finite gauges travel as null / +-1e999, like event floats *)
  Obs.set_enabled true;
  Obs.Metrics.set_gauge "t.rt_nan" Float.nan;
  Obs.Metrics.set_gauge "t.rt_pinf" Float.infinity;
  Obs.Metrics.set_gauge "t.rt_ninf" Float.neg_infinity;
  let s = populate () in
  with_temp_file ".jsonl" (fun path ->
      Obs.Sink.jsonl ~path s;
      let back = Obs.Trace_read.load_many [ path ] in
      Alcotest.(check int)
        "span count" (List.length s.Obs.Registry.spans)
        (List.length back.Obs.Registry.spans);
      List.iter2
        (fun (a : Obs.Registry.span_ev) (b : Obs.Registry.span_ev) ->
          Alcotest.(check string) "span name" a.name b.name;
          Alcotest.(check int64) "span ts" a.ts_ns b.ts_ns;
          Alcotest.(check int64) "span dur" a.dur_ns b.dur_ns;
          Alcotest.(check int) "span depth" a.depth b.depth;
          Alcotest.(check (list (pair string string))) "span attrs" a.attrs
            b.attrs)
        s.Obs.Registry.spans back.Obs.Registry.spans;
      Alcotest.(check (list (pair string int)))
        "counters" s.Obs.Registry.counters back.Obs.Registry.counters;
      Alcotest.(check (list (pair string (float 0.0))))
        "gauges" s.Obs.Registry.gauges back.Obs.Registry.gauges;
      List.iter2
        (fun (n, bounds, counts) (n', bounds', counts') ->
          Alcotest.(check string) "hist name" n n';
          Alcotest.(check (array (float 0.0))) "hist bounds" bounds bounds';
          Alcotest.(check (array int)) "hist counts" counts counts')
        s.Obs.Registry.hists back.Obs.Registry.hists)

let test_jsonl_merge_sums_counters () =
  let s = populate () in
  with_temp_file ".jsonl" (fun path ->
      Obs.Sink.jsonl ~path s;
      let back = Obs.Trace_read.load_many [ path; path ] in
      Alcotest.(check int)
        "counters sum across files"
        (2 * List.assoc "t.rt_counter" s.Obs.Registry.counters)
        (List.assoc "t.rt_counter" back.Obs.Registry.counters);
      let _, _, counts =
        List.find (fun (n, _, _) -> n = "t.rt_hist") back.Obs.Registry.hists
      in
      Alcotest.(check (array int)) "hist counts doubled" [| 2; 0; 2 |] counts)

(* The complete ("ph":"X") events of a Chrome trace, in order. *)
let chrome_spans s =
  match Json.parse (Obs.Sink.chrome_trace_string s) with
  | Ok (Json.Obj fields) -> (
    match List.assoc_opt "traceEvents" fields with
    | Some (Json.List l) ->
      List.filter_map
        (function
          | Json.Obj ev -> begin
            match List.assoc_opt "ph" ev with
            | Some (Json.Str "X") -> Some ev
            | _ -> None
          end
          | _ -> None)
        l
    | _ -> Alcotest.fail "traceEvents is not an array")
  | Ok _ -> Alcotest.fail "chrome trace is not a JSON object"
  | Error msg -> Alcotest.fail ("chrome trace is not JSON: " ^ msg)

let test_chrome_trace_is_json () =
  let s = populate () in
  let span_names =
    List.filter_map
      (fun ev ->
        match List.assoc_opt "name" ev with
        | Some (Json.Str n) -> Some n
        | _ -> None)
      (chrome_spans s)
  in
  Alcotest.(check (list string))
    "complete events in order" [ "rt.outer"; "rt.inner" ] span_names

(* Every escape class in a span name, an attribute key and an
   attribute value survives both sinks: quote, backslash, the five
   two-character escapes, another control character and multibyte
   UTF-8. *)
let test_sink_escapes_round_trip () =
  let nasty = "q\"b\\n\nr\rt\tb\bf\012c\001u\xc3\xa9\xe2\x82\xac" in
  Obs.set_enabled true;
  Obs.Span.with_ ~name:nasty ~attrs:[ (nasty, nasty) ] (fun () -> ());
  let s = Obs.snapshot () in
  with_temp_file ".jsonl" (fun path ->
      Obs.Sink.jsonl ~path s;
      match (Obs.Trace_read.load_many [ path ]).Obs.Registry.spans with
      | [ e ] ->
        Alcotest.(check string) "jsonl name" nasty e.name;
        Alcotest.(check (list (pair string string)))
          "jsonl attrs" [ (nasty, nasty) ] e.attrs
      | l -> Alcotest.failf "jsonl: %d spans read back" (List.length l));
  match chrome_spans s with
  | [ ev ] ->
    Alcotest.(check (option string))
      "chrome name" (Some nasty)
      (Option.bind (List.assoc_opt "name" ev) Json.get_string);
    Alcotest.(check (option string))
      "chrome arg" (Some nasty)
      (Option.bind (List.assoc_opt "args" ev) (fun a ->
           Option.bind (Json.member nasty a) Json.get_string))
  | l -> Alcotest.failf "chrome: %d spans" (List.length l)

(* The reader is strict RFC-8259: number spellings the sink never
   writes are a located parse error, not a silently accepted value. *)
let test_reader_rejects_non_json_numbers () =
  List.iter
    (fun bad ->
      with_temp_file ".jsonl" (fun path ->
          let lines =
            [
              {|{"type":"meta","version":1,"clock":"monotonic"}|};
              {|{"type":"counter","name":"ok","value":1}|};
              {|{"type":"counter","name":"bad","value":|} ^ bad ^ "}";
            ]
          in
          let oc = open_out path in
          List.iter (fun l -> output_string oc (l ^ "\n")) lines;
          close_out oc;
          match Obs.Trace_read.load_many [ path ] with
          | _ -> Alcotest.failf "value %s was accepted" bad
          | exception Obs.Trace_read.Parse_error msg ->
            let prefix = path ^ ":3:" in
            Alcotest.(check string)
              (Printf.sprintf "value %s: message located" bad)
              prefix
              (String.sub msg 0 (min (String.length msg) (String.length prefix)))))
    [ "+1"; ".5"; "1." ]

let test_summary_headline_counters () =
  let s = Obs.snapshot () in
  let out = Format.asprintf "%a" Obs.Sink.summary s in
  List.iter
    (fun c ->
      let sub_ok =
        let cl = String.length c and ol = String.length out in
        let rec go i = i + cl <= ol && (String.sub out i cl = c || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) (c ^ " always shown") true sub_ok)
    Obs.Sink.headline_counters

let test_stats_accessor () =
  let before = Numerics.Pool.stats () in
  let p = Numerics.Pool.create ~size:3 in
  Fun.protect
    ~finally:(fun () -> Numerics.Pool.shutdown p)
    (fun () ->
      Numerics.Pool.parallel_for ~pool:p ~chunk:10 ~n:200 (fun i ->
          ignore (Sys.opaque_identity (float_of_int i *. 2.0))));
  let after = Numerics.Pool.stats () in
  Alcotest.(check int) "20 chunks recorded" 20
    (after.Numerics.Pool.tasks - before.Numerics.Pool.tasks);
  Alcotest.(check bool) "busy time advanced" true
    (Int64.compare after.Numerics.Pool.busy_ns before.Numerics.Pool.busy_ns
     >= 0);
  Alcotest.(check bool) "per-domain entries exist" true
    (Array.length after.Numerics.Pool.per_domain > 0)

(* ------------------------------------------------------------------ *)
(* Introspection event stream (Obs.Event) *)

let sample_events () =
  let c = Obs.Event.ctx ~cell:(0.1, 1.0) "t.solver" in
  Obs.Event.emit
    (Obs.Event.Newton_iter
       { ctx = c; iter = 1; residual = 0.25; step = 0.5; damping = 1.0 });
  Obs.Event.emit
    (Obs.Event.Newton_done
       { ctx = c; iters = 3; converged = true; residual = 1e-12 });
  Obs.Event.emit
    (Obs.Event.Tran_step { t = 0.0; dt = 1e-9; accepted = true; lte = 1e-8 });
  Obs.Event.emit
    (Obs.Event.Bracket
       { site = "t.site"; lo = 0.0; hi = 1.0; probe = 0.5; hit = true });
  Obs.Event.emit (Obs.Event.Cache_access { kind = "t.kind"; outcome = "miss" });
  Obs.Event.emit
    (Obs.Event.Pool_sample { domains = 2; tasks = 8; busy_ns = 1234L })

let test_events_off_is_noop () =
  (* spans on, events off: the separate gate must hold *)
  Obs.set_enabled true;
  Alcotest.(check bool) "events off by default" false (Obs.Event.enabled ());
  sample_events ();
  Obs.Event.gc_sample ~where:"t.here" ();
  let s = Obs.snapshot () in
  Alcotest.(check int) "no events recorded" 0
    (List.length s.Obs.Registry.events)

let test_events_recorded_and_typed () =
  Obs.set_events_enabled true;
  sample_events ();
  let s = Obs.snapshot () in
  let payloads =
    List.map (fun (e : Obs.Registry.event_ev) -> e.payload) s.Obs.Registry.events
  in
  Alcotest.(check int) "all six events recorded" 6 (List.length payloads);
  let count p = List.length (List.filter p payloads) in
  Alcotest.(check int) "one newton_iter" 1
    (count (function Obs.Registry.Newton_iter _ -> true | _ -> false));
  Alcotest.(check int) "one newton_done" 1
    (count (function Obs.Registry.Newton_done _ -> true | _ -> false));
  (match
     List.find
       (function Obs.Registry.Newton_done _ -> true | _ -> false)
       payloads
   with
  | Obs.Registry.Newton_done { ctx; iters; converged; residual } ->
    Alcotest.(check string) "solver carried" "t.solver" ctx.solver;
    Alcotest.(check (option (pair (float 0.0) (float 0.0))))
      "cell carried" (Some (0.1, 1.0)) ctx.cell;
    Alcotest.(check int) "iters" 3 iters;
    Alcotest.(check bool) "converged" true converged;
    Alcotest.(check (float 0.0)) "residual" 1e-12 residual
  | _ -> Alcotest.fail "unreachable")

let test_events_jsonl_round_trip () =
  Obs.set_events_enabled true;
  sample_events ();
  Obs.Event.gc_sample ~where:"t.rt" ();
  let s = Obs.snapshot () in
  with_temp_file ".jsonl" (fun path ->
      Obs.Sink.jsonl ~path s;
      let back = Obs.Trace_read.load_many [ path ] in
      Alcotest.(check int)
        "event count survives" (List.length s.Obs.Registry.events)
        (List.length back.Obs.Registry.events);
      List.iter2
        (fun (a : Obs.Registry.event_ev) (b : Obs.Registry.event_ev) ->
          Alcotest.(check int64) "event ts" a.ts_ns b.ts_ns;
          Alcotest.(check bool) "payload round-trips" true
            (a.payload = b.payload))
        s.Obs.Registry.events back.Obs.Registry.events)

(* ------------------------------------------------------------------ *)
(* Run-health reports (Obs.Report) *)

let health_fixture = "fixtures/trace_health.jsonl"

let test_report_deterministic () =
  let r1 = Obs.Report.of_snapshot (Obs.Trace_read.load_many [ health_fixture ]) in
  let r2 = Obs.Report.of_snapshot (Obs.Trace_read.load_many [ health_fixture ]) in
  Alcotest.(check string)
    "same trace renders to byte-identical JSON" (Obs.Report.to_json r1)
    (Obs.Report.to_json r2);
  Alcotest.(check string)
    "human table is deterministic too"
    (Format.asprintf "%a" Obs.Report.pp r1)
    (Format.asprintf "%a" Obs.Report.pp r2)

let test_report_solver_facts () =
  let r = Obs.Report.of_snapshot (Obs.Trace_read.load_many [ health_fixture ]) in
  let refine =
    List.find (fun s -> s.Obs.Report.ssolver = "shil.refine") r.Obs.Report.solvers
  in
  Alcotest.(check int) "two refine solves" 2 refine.Obs.Report.solves;
  Alcotest.(check int) "one converged" 1 refine.Obs.Report.converged_n;
  Alcotest.(check int) "max iters from newton_done" 8
    refine.Obs.Report.iters_max;
  (* worst cell ranks the unconverged solve first *)
  (match r.Obs.Report.worst with
  | w :: _ ->
    Alcotest.(check bool) "worst cell is the unconverged one" false
      w.Obs.Report.converged;
    Alcotest.(check (option (pair (float 1e-9) (float 1e-9))))
      "worst cell coordinates" (Some (0.2, 1.1)) w.Obs.Report.cell
  | [] -> Alcotest.fail "no worst cells ranked");
  (match r.Obs.Report.steps with
  | Some st ->
    Alcotest.(check int) "accepted steps" 2 st.Obs.Report.accepted;
    Alcotest.(check int) "rejected steps" 1 st.Obs.Report.rejected
  | None -> Alcotest.fail "no step stats");
  let br =
    List.find
      (fun b -> b.Obs.Report.site = "shil.lockrange.phi_d")
      r.Obs.Report.brackets
  in
  Alcotest.(check int) "bracket probes" 3 br.Obs.Report.probes;
  Alcotest.(check (float 1e-9)) "bracket narrowed" 0.25 br.Obs.Report.width

let test_merge_order_stable () =
  (* two distinct snapshots written to two files: merged report must
     not depend on the order the files are given *)
  Obs.set_enabled true;
  Obs.set_events_enabled true;
  Obs.Span.with_ ~name:"m.a" (fun () -> ignore (Sys.opaque_identity 1));
  Obs.Metrics.incr ~by:3 "m.counter";
  sample_events ();
  let s1 = Obs.snapshot () in
  Obs.reset ();
  Obs.Span.with_ ~name:"m.b" (fun () -> ignore (Sys.opaque_identity 2));
  Obs.Metrics.incr ~by:4 "m.counter";
  Obs.Event.emit
    (Obs.Event.Cache_access { kind = "t.kind"; outcome = "memory" });
  let s2 = Obs.snapshot () in
  with_temp_file ".jsonl" (fun p1 ->
      with_temp_file ".jsonl" (fun p2 ->
          Obs.Sink.jsonl ~path:p1 s1;
          Obs.Sink.jsonl ~path:p2 s2;
          let ab = Obs.Trace_read.load_many [ p1; p2 ] in
          let ba = Obs.Trace_read.load_many [ p2; p1 ] in
          Alcotest.(check string)
            "merged report independent of file order"
            (Obs.Report.to_json (Obs.Report.of_snapshot ab))
            (Obs.Report.to_json (Obs.Report.of_snapshot ba));
          Alcotest.(check int) "counters sum" 7
            (List.assoc "m.counter" ab.Obs.Registry.counters)))

let test_quantile_estimates () =
  let bounds = [| 1.0; 2.0; 4.0; 8.0 |] in
  (* 10 in (..1], 25 in (1..2], 6 in (2..4], 1 in (4..8], 0 overflow *)
  let counts = [| 10; 25; 6; 1; 0 |] in
  Alcotest.(check (float 0.0)) "p50" 2.0 (Obs.Sink.quantile bounds counts 0.50);
  Alcotest.(check (float 0.0)) "p90" 4.0 (Obs.Sink.quantile bounds counts 0.90);
  Alcotest.(check (float 0.0)) "p99" 8.0 (Obs.Sink.quantile bounds counts 0.99);
  (* overflow samples clamp to the last bound *)
  Alcotest.(check (float 0.0)) "overflow clamps" 8.0
    (Obs.Sink.quantile bounds [| 0; 0; 0; 0; 5 |] 0.99);
  Alcotest.(check bool) "empty histogram is nan" true
    (Float.is_nan (Obs.Sink.quantile bounds [| 0; 0; 0; 0; 0 |] 0.5))

(* The load-bearing contract: running the full analysis with telemetry
   on must be bit-identical to running it with telemetry off. *)
let test_tracing_preserves_results () =
  let osc =
    Circuits.Tanh_osc.oscillator Circuits.Tanh_osc.default
  in
  let run () =
    Shil.Analysis.run ~points:128 ~n_phi:31 ~n_amp:21 osc ~n:3 ~vi:0.03
  in
  Obs.set_enabled false;
  let off = run () in
  Obs.set_enabled true;
  let on = run () in
  (* and once more with the per-iteration event stream on top *)
  Obs.set_events_enabled true;
  let ev = run () in
  Obs.set_events_enabled false;
  Obs.set_enabled false;
  Alcotest.(check bool) "grid bit-identical" true
    (off.Shil.Analysis.grid.Shil.Grid.i1 = on.Shil.Analysis.grid.Shil.Grid.i1);
  Alcotest.(check (float 0.0))
    "phi_d_max identical" off.lock_range.Shil.Lock_range.phi_d_max
    on.lock_range.Shil.Lock_range.phi_d_max;
  Alcotest.(check (float 0.0))
    "delta_f_inj identical" off.lock_range.Shil.Lock_range.delta_f_inj
    on.lock_range.Shil.Lock_range.delta_f_inj;
  Alcotest.(check bool) "grid bit-identical with events on" true
    (off.Shil.Analysis.grid.Shil.Grid.i1 = ev.Shil.Analysis.grid.Shil.Grid.i1);
  Alcotest.(check (float 0.0))
    "phi_d_max identical with events on"
    off.lock_range.Shil.Lock_range.phi_d_max
    ev.lock_range.Shil.Lock_range.phi_d_max;
  Alcotest.(check (float 0.0))
    "delta_f_inj identical with events on"
    off.lock_range.Shil.Lock_range.delta_f_inj
    ev.lock_range.Shil.Lock_range.delta_f_inj;
  (* and the traced run actually recorded the expected instrumentation *)
  let s = Obs.snapshot () in
  let names =
    List.sort_uniq String.compare
      (List.map (fun (e : Obs.Registry.span_ev) -> e.name) s.Obs.Registry.spans)
  in
  Alcotest.(check bool) "analysis span present" true
    (List.mem "shil.analysis.run" names);
  Alcotest.(check bool) "grid span present" true
    (List.mem "shil.grid.sample" names);
  Alcotest.(check bool) "f_evals counted" true
    (Obs.Metrics.counter_value "shil.grid.f_evals" > 0);
  Alcotest.(check bool) "events-on run recorded newton introspection" true
    (List.exists
       (fun (e : Obs.Registry.event_ev) ->
         match e.payload with
         | Obs.Registry.Newton_done _ -> true
         | _ -> false)
       s.Obs.Registry.events)

(* Spice.Newton tallies its spice.newton.* counters and histograms in
   the run's workspace and reports them once per transient or operating
   point. The totals must be those one report per solve gives: rebuild
   them from the per-solve [Newton_done] events of a traced transient
   (operating point included, two solves made to diverge) and from the
   figures the per-solve reporting recorded for the same run. *)
let test_newton_tally_per_run () =
  let p = Circuits.Tanh_osc.default in
  let im =
    Shil.Simulate.injection_current ~tank:(Circuits.Tanh_osc.tank p)
      { vi = 0.03; n = 3; f_inj = 3e6; phase = 0.0 }
  in
  let circuit =
    Circuits.Tanh_osc.circuit
      ~injection:(Sine { offset = 0.0; ampl = im; freq = 3e6; phase = 0.0; delay = 0.0 })
      p
  in
  (match Resilience.Fault.configure "newton-singular@30x2" with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "fault plan: %s" msg);
  Obs.set_enabled true;
  Obs.set_events_enabled true;
  let r =
    Fun.protect ~finally:Resilience.Fault.clear (fun () ->
        Spice.Transient.run circuit ~probes:[ Spice.Transient.Node "t" ]
          (Spice.Transient.default_options ~dt:6.25e-9 ~t_stop:10e-6))
  in
  Alcotest.(check bool) "run complete" true (Option.is_none r.failure);
  let s = Obs.snapshot () in
  let dones =
    List.filter_map
      (fun (e : Obs.Registry.event_ev) ->
        match e.payload with
        | Obs.Registry.Newton_done { iters; converged; residual; _ } ->
          Some (iters, converged, residual)
        | _ -> None)
      s.Obs.Registry.events
  in
  let counter = Obs.Metrics.counter_value in
  let hist name =
    match List.find_opt (fun (n, _, _) -> n = name) s.Obs.Registry.hists with
    | Some (_, bounds, counts) -> (bounds, Array.to_list counts)
    | None -> Alcotest.failf "histogram %s missing" name
  in
  let binned bounds vs =
    let counts = Array.make (Array.length bounds + 1) 0 in
    List.iter
      (fun v ->
        let i = ref 0 in
        while !i < Array.length bounds && v > bounds.(!i) do incr i done;
        counts.(!i) <- counts.(!i) + 1)
      vs;
    Array.to_list counts
  in
  let ints = Alcotest.(list int) in
  (* totals rebuilt from the per-solve events *)
  Alcotest.(check int) "solves = Newton_done events" (List.length dones)
    (counter "spice.newton.solves");
  Alcotest.(check int) "iters = sum over solves"
    (List.fold_left (fun a (i, _, _) -> a + i) 0 dones)
    (counter "spice.newton.iters");
  Alcotest.(check int) "diverged = failed solves"
    (List.length (List.filter (fun (_, c, _) -> not c) dones))
    (counter "spice.newton.diverged");
  let ib, ic = hist "spice.newton.iters_per_solve" in
  Alcotest.check ints "iters_per_solve buckets"
    (binned ib (List.map (fun (i, _, _) -> float_of_int i) dones)) ic;
  let rb, rc = hist "spice.newton.residual" in
  Alcotest.check ints "residual buckets"
    (binned rb
       (List.filter_map
          (fun (_, _, r) -> if Float.is_finite r then Some r else None)
          dones))
    rc;
  (* and the figures per-solve reporting gave for this run (recorded
     again when each step's Newton start became an extrapolation of the
     step history: fewer iterations and smaller final residuals) *)
  Alcotest.(check (list int)) "counters as reported per solve"
    [ 1605; 3209; 2 ]
    [ counter "spice.newton.solves"; counter "spice.newton.iters";
      counter "spice.newton.diverged" ];
  Alcotest.check ints "iters_per_solve as reported per solve"
    [ 3; 1600; 2; 0; 0; 0; 0; 0; 0 ] ic;
  Alcotest.check ints "residual as reported per solve" [ 367; 1235; 1; 0; 2; 0; 0 ] rc

let () =
  Alcotest.run "obs"
    [
      ( "core",
        [
          Alcotest.test_case "disabled is a no-op" `Quick
            (fresh test_disabled_is_noop);
          Alcotest.test_case "span nesting and ordering" `Quick
            (fresh test_span_nesting_and_ordering);
          Alcotest.test_case "span recorded on exception" `Quick
            (fresh test_span_records_on_exception);
          Alcotest.test_case "counters merge across domains" `Quick
            (fresh test_counters_across_domains);
          Alcotest.test_case "histogram bucket boundaries" `Quick
            (fresh test_histogram_buckets);
          Alcotest.test_case "histogram rejects bad buckets" `Quick
            (fresh test_histogram_bad_buckets);
          Alcotest.test_case "gauge last-write-wins" `Quick
            (fresh test_gauge_last_write_wins);
        ] );
      ( "sinks",
        [
          Alcotest.test_case "jsonl round-trip" `Quick
            (fresh test_jsonl_round_trip);
          Alcotest.test_case "jsonl multi-file merge" `Quick
            (fresh test_jsonl_merge_sums_counters);
          Alcotest.test_case "chrome trace is well-formed JSON" `Quick
            (fresh test_chrome_trace_is_json);
          Alcotest.test_case "escapes round-trip through both sinks" `Quick
            (fresh test_sink_escapes_round_trip);
          Alcotest.test_case "reader rejects non-JSON numbers" `Quick
            (fresh test_reader_rejects_non_json_numbers);
          Alcotest.test_case "summary shows headline counters" `Quick
            (fresh test_summary_headline_counters);
        ] );
      ( "events",
        [
          Alcotest.test_case "events off is a no-op" `Quick
            (fresh test_events_off_is_noop);
          Alcotest.test_case "events recorded with typed payloads" `Quick
            (fresh test_events_recorded_and_typed);
          Alcotest.test_case "events survive the jsonl round-trip" `Quick
            (fresh test_events_jsonl_round_trip);
        ] );
      ( "report",
        [
          Alcotest.test_case "report is deterministic" `Quick
            (fresh test_report_deterministic);
          Alcotest.test_case "report derives solver facts" `Quick
            (fresh test_report_solver_facts);
          Alcotest.test_case "merged report stable across file order" `Quick
            (fresh test_merge_order_stable);
          Alcotest.test_case "bucketed quantile estimates" `Quick
            (fresh test_quantile_estimates);
        ] );
      ( "integration",
        [
          Alcotest.test_case "Pool.stats accounting" `Quick
            (fresh test_stats_accessor);
          Alcotest.test_case "newton telemetry tallied per run" `Quick
            (fresh test_newton_tally_per_run);
          Alcotest.test_case "tracing preserves results bit-for-bit" `Slow
            (fresh test_tracing_preserves_results);
        ] );
    ]
