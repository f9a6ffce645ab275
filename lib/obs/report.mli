(** Run-health reports: deterministic aggregation of a telemetry
    snapshot into solver-health facts.

    Consumes a {!Registry.snapshot} — live, or replayed from a JSONL
    trace via {!Trace_read} — and derives:
    - per-solver convergence statistics (solve counts, mean/max
      iterations, mean residual-reduction rate in decades per
      iteration) reconstructed from [Newton_iter]/[Newton_done] events;
    - the worst-converging (phi, A) grid cells, ranked (unconverged
      first, then by iteration count and final residual);
    - self/total span time per span name (self = total minus direct
      children, from interval nesting per domain);
    - transient step-control, bisection-bracket, cache-locality and
      allocation summaries from their event kinds;
    - histogram p50/p90/p99 quantiles and the resilience counters;
    - in the table, the lock-point candidate counters
      ([shil.solutions.candidates], [.skipped], [.refine_fails],
      [.classified]) when the trace has them.

    Aggregation is pure and deterministic: the same snapshot always
    renders to the same bytes ([to_json] uses fixed field order and
    float formats), which is what makes golden tests and trace-vs-trace
    diffs meaningful. *)

type span_stat = {
  sname : string;
  count : int;
  total_ns : int64;
  self_ns : int64;
  max_ns : int64;
}

type solve_rec = {
  solver : string;
  rung : string;
  cell : (float * float) option;
  iters : int;
  converged : bool;
  residual : float;
  rate : float;  (** decades of residual reduction per iteration *)
}

type solver_stat = {
  ssolver : string;
  solves : int;
  converged_n : int;
  iters_total : int;
  iters_max : int;
  mean_iters : float;
  mean_rate : float;
}

type step_stat = {
  accepted : int;
  rejected : int;
  dt_min : float;
  dt_max : float;
  lte_max : float;
}

type bracket_stat = {
  site : string;
  probes : int;
  hits : int;
  width0 : float;  (** bracket width at the first probe *)
  width : float;  (** bracket width at the last probe *)
}

type cache_stat = {
  kind : string;
  memory_hits : int;
  disk_hits : int;
  misses : int;
}

type gc_stat = {
  samples : int;
  minor_words : float;
  promoted_words : float;
  major_words : float;
  minor_gcs : int;
  major_gcs : int;
  heap_peak_words : int;
}

type quantile_stat = {
  hist : string;
  samples : int;
  p50 : float;
  p90 : float;
  p99 : float;
}

type t = {
  spans : span_stat list;  (** by total time desc, then name *)
  solvers : solver_stat list;  (** by solver name *)
  worst : solve_rec list;  (** worst-converging cell solves, ranked *)
  steps : step_stat option;
  brackets : bracket_stat list;  (** by site *)
  cache : cache_stat list;  (** by kind *)
  gc : gc_stat option;
  quantiles : quantile_stat list;  (** by histogram name *)
  counters : (string * int) list;
  resilience : (string * int) list;  (** [resilience.*] counters *)
}

val of_snapshot : Registry.snapshot -> t

val to_json : t -> string
(** Render as a deterministic JSON document (fixed field order, fixed
    float format, nan as null, trailing newline). *)

val pp : Format.formatter -> t -> unit
(** Human-readable run-health table; empty sections are omitted. *)

val pp_compare :
  Format.formatter -> label_a:string -> label_b:string -> t -> t -> unit
(** Side-by-side diff of two reports (counters, span totals,
    quantiles, solver health) with relative deltas. *)
