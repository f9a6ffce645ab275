(* Per-layer attribution from the program's own telemetry: span self
   time folded by [Obs.Report] and the counters the layers already
   keep, accumulated over the traced units of one run. *)

type t = {
  self_ns : (string, float) Hashtbl.t;
  total_ns : (string, float) Hashtbl.t;
  counters : (string, int) Hashtbl.t;
  mutable top_ns : float;  (** duration of depth-0 spans *)
  mutable gc_mark : Gc.stat;
  mutable minor_words : float;
  mutable major_collections : float;
}

let create () =
  {
    self_ns = Hashtbl.create 32;
    total_ns = Hashtbl.create 32;
    counters = Hashtbl.create 32;
    top_ns = 0.0;
    gc_mark = Gc.quick_stat ();
    minor_words = 0.0;
    major_collections = 0.0;
  }

let bump tbl k v =
  Hashtbl.replace tbl k (v +. Option.value (Hashtbl.find_opt tbl k) ~default:0.0)

(* Fold one snapshot in. Callers reset [Obs] between snapshots, so
   each snapshot covers disjoint work. *)
let add t (snap : Obs.Registry.snapshot) =
  let rep = Obs.Report.of_snapshot snap in
  List.iter
    (fun (s : Obs.Report.span_stat) ->
      bump t.self_ns s.sname (Int64.to_float s.self_ns);
      bump t.total_ns s.sname (Int64.to_float s.total_ns))
    rep.spans;
  List.iter
    (fun (k, v) ->
      Hashtbl.replace t.counters k
        (v + Option.value (Hashtbl.find_opt t.counters k) ~default:0))
    snap.counters;
  List.iter
    (fun (s : Obs.Registry.span_ev) ->
      if s.depth = 0 then t.top_ns <- t.top_ns +. Int64.to_float s.dur_ns)
    snap.spans

(* Snapshot, fold and clear, and charge the allocation since the last
   take: called after every unit of a single-threaded phase (which
   keeps the span buffers small) or once at the end of a concurrent
   one. *)
let take t =
  let snap = Obs.snapshot () in
  Obs.reset ();
  add t snap;
  let g = Gc.quick_stat () in
  t.minor_words <- t.minor_words +. (g.minor_words -. t.gc_mark.minor_words);
  t.major_collections <-
    t.major_collections
    +. float_of_int (g.major_collections - t.gc_mark.major_collections);
  t.gc_mark <- g

let self_ms t names =
  List.fold_left
    (fun acc n -> acc +. Option.value (Hashtbl.find_opt t.self_ns n) ~default:0.0)
    0.0 names
  /. 1e6

let total_ms t name =
  Option.value (Hashtbl.find_opt t.total_ns name) ~default:0.0 /. 1e6

let count t name =
  float_of_int (Option.value (Hashtbl.find_opt t.counters name) ~default:0)

let ratio a b = if b > 0.0 then a /. b else 0.0

(* Everything a workload's traced phase measured beside the trace. *)
type extra = {
  units : int;
  extract_ms : float;  (** diff-pair f(v) extraction, median of set-ups *)
  parse_us : float;  (** mean [Api.parse_request] time per request *)
  ping_rtt_us : float;
  rtt_ms : float;  (** mean client round trip per request *)
  render_ms : float;  (** mean report render time per unit *)
  overhead_share : float;
  verify : (string * (float * float * float)) list;
      (** per engine scenario: median DF, HB and transient ms *)
}

let no_extra =
  {
    units = 0;
    extract_ms = 0.0;
    parse_us = 0.0;
    ping_rtt_us = 0.0;
    rtt_ms = 0.0;
    render_ms = 0.0;
    overhead_share = 0.0;
    verify = [];
  }

let grid_spans = [ "shil.grid.sample" ]

let lockrange_spans =
  [ "shil.lockrange.boundary"; "shil.lockrange.predict"; "shil.solutions.find" ]

let hb_spans = [ "hb.oscprobe"; "hb.injected"; "hb.lockrange" ]

(* The per-layer metrics, in BENCHMARK.json order. Additive figures are
   per unit, so runs of different lengths compare. *)
let metrics t (x : extra) ~scenarios =
  let u = float_of_int (max 1 x.units) in
  let per v = v /. u in
  let f_evals = count t "shil.grid.f_evals" in
  let grid_ms = self_ms t grid_spans in
  let hits = count t "cache.hits" and misses = count t "cache.misses" in
  (* round trip minus the worker's spanned execute time minus an idle
     ping: what a request spent queued or in the protocol *)
  let wait_ms =
    if x.rtt_ms > 0.0 then x.rtt_ms -. per (t.top_ns /. 1e6) -. (x.ping_rtt_us /. 1e3)
    else 0.0
  in
  [
    ("circuits.extract_ms", x.extract_ms, "ms");
    ("kernel.f_evals", per f_evals, "count/unit");
    ("kernel.ns_per_f_eval", ratio (grid_ms *. 1e6) f_evals, "ns");
    ("grid.self_ms", per grid_ms, "ms/unit");
    ("lockrange.self_ms", per (self_ms t lockrange_spans), "ms/unit");
    ("lockrange.probes", per (count t "shil.lockrange.probes"), "count/unit");
    ("transient.self_ms", per (self_ms t [ "spice.transient.run" ]), "ms/unit");
    ("transient.steps_accepted", per (count t "spice.transient.steps_accepted"), "count/unit");
    ("transient.steps_rejected", per (count t "spice.transient.steps_rejected"), "count/unit");
    ("newton.iters", per (count t "spice.newton.iters"), "count/unit");
    ( "newton.iters_per_solve",
      ratio (count t "spice.newton.iters") (count t "spice.newton.solves"),
      "count" );
    ("lock.analyze_ms", per (total_ms t "bench.waveform.lock.analyze"), "ms/unit");
    ("hb.self_ms", per (self_ms t hb_spans), "ms/unit");
    ("hb.newton_iters", per (count t "hb.newton_iters"), "count/unit");
    ("hb.solves", per (count t "hb.solves"), "count/unit");
    ("hb.lockrange.probes", per (count t "hb.lockrange.probes"), "count/unit");
    ("cache.hits", per hits, "count/unit");
    ("cache.misses", per misses, "count/unit");
    ("cache.disk_writes", per (count t "cache.disk_writes"), "count/unit");
    ("cache.hit_ratio", ratio hits (hits +. misses), "share");
    ("api.parse_us", x.parse_us, "us");
    ("api.render_ms", x.render_ms, "ms/unit");
    ("serve.ping_rtt_us", x.ping_rtt_us, "us");
    ("serve.wait_ms", wait_ms, "ms/unit");
    ("serve.rejected_overload", per (count t "serve.rejected_overload"), "count/unit");
    ("serve.retries", per (count t "serve.retries"), "count/unit");
    ("serve.errors", per (count t "serve.errors"), "count/unit");
    ("gc.minor_words_per_unit", per t.minor_words, "words/unit");
    ("gc.major_collections", per t.major_collections, "count/unit");
    ("obs.overhead_share", x.overhead_share, "share");
  ]
  @ List.concat_map
      (fun label ->
        let df, hb, tran =
          Option.value (List.assoc_opt label x.verify) ~default:(0.0, 0.0, 0.0)
        in
        let name k = Printf.sprintf "verify.%s.%s" label k in
        [
          (name "df_ms", df, "ms");
          (name "hb_ms", hb, "ms");
          (name "tran_ms", tran, "ms");
          (name "tran_over_df", ratio tran df, "x");
          (name "tran_over_hb", ratio tran hb, "x");
        ])
      scenarios
