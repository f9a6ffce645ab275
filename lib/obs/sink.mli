(** Trace and metric sinks over a merged {!Registry.snapshot}.

    Three formats, one data model:
    - {!chrome_trace}: Chrome [trace_event] JSON, loadable in
      [chrome://tracing] or {{:https://ui.perfetto.dev}Perfetto} —
      spans become ["ph":"X"] complete events on one track per domain,
      counters ride along in [otherData].
    - {!jsonl}: one self-describing JSON object per line (spans,
      introspection events, counters, gauges, histograms) — the durable
      format that [oshil stats] replays and tests round-trip via
      {!Trace_read}. Every line is RFC-8259 JSON: non-finite floats
      (event fields and gauges alike) are written as [null] (nan) or
      [±1e999] (infinities).
    - {!summary}: a human table — per-span totals (sorted by total
      time), counters, gauges and histogram buckets with p50/p90/p99
      quantile estimates.

    Strings in both JSON formats are escaped by [Json.escape]. File
    sinks create missing parent directories. *)

val chrome_trace : path:string -> Registry.snapshot -> unit
(* dsa: allow unused-export — test hook: the tests parse the trace without a file *)
val chrome_trace_string : Registry.snapshot -> string

val jsonl : path:string -> Registry.snapshot -> unit
(** The path ["-"] streams the JSONL log to stderr instead of a file,
    so traced runs compose in shell pipelines. *)

val quantile : float array -> int array -> float -> float
(** [quantile bounds counts q] estimates the [q]-quantile of a bucketed
    histogram as the upper bound of the bucket holding the target rank
    — conservative and deterministic. Samples past the last bound clamp
    to it; nan when the histogram is empty. *)

(* dsa: allow unused-export — test hook: the summary test checks every headline counter is printed *)
val headline_counters : string list
(** Counters the summary always prints (as 0 when absent):
    [spice.newton.iters] and [shil.grid.f_evals]. *)

val summary : Format.formatter -> Registry.snapshot -> unit
