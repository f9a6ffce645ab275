(** Runtime telemetry: hierarchical spans, counters/gauges/histograms,
    and trace sinks (Chrome [trace_event], JSONL, human summary).

    Everything is {b off by default}: each instrumentation point in the
    library is a single atomic load and branch until telemetry is
    switched on, and enabling it never changes numerical results (the
    parallel-vs-sequential bit-identity tests run with tracing on).

    Typical wiring, done once near the program entry point:
    {[
      Obs.configure_from_env ();          (* OSHIL_TRACE / OSHIL_METRICS *)
      Obs.trace_to_file "out/trace.json"  (* or explicit --trace flag *)
    ]}
    Sinks are written by an [at_exit] flush (and on demand via
    {!flush}); [.jsonl] paths select the JSONL event log, anything else
    the Chrome trace. *)

module Clock = Clock
module Registry = Registry
module Span = Span
module Metrics = Metrics
module Event = Event
module Sink = Sink
module Trace_read = Trace_read
module Report = Report

val enabled : unit -> bool
(** Whether telemetry recording is currently on. *)

val set_enabled : bool -> unit
(** Turn recording on or off. Cheap and safe at any time; events
    recorded so far are kept. *)

(* dsa: allow unused-export — test hook: the event tests switch the stream on and off around each case *)
val set_events_enabled : bool -> unit
(** Turn the introspection event stream ({!Event}) on or off. Off by
    default even when spans are on — events are per-iteration
    volume. *)

val snapshot : unit -> Registry.snapshot
(** Merge all per-domain buffers into one consistent snapshot
    (non-destructive — recording continues). *)

val reset : unit -> unit
(** Discard all recorded events and metric values. Intended for tests
    and for before/after deltas around a measured region. *)

val configure :
  ?chrome_file:string -> ?jsonl_file:string -> ?summary:bool ->
  ?enabled:bool -> ?events:bool -> unit -> unit
(** Set process-wide sink destinations. The first call that configures
    any sink registers an [at_exit] {!flush}. Each optional argument
    only overrides the corresponding setting when present, so
    [configure_from_env] and explicit CLI flags compose. *)

val trace_to_file : string -> unit
(** [trace_to_file path] enables telemetry and routes the trace to
    [path]: JSONL event log if [path] ends in [.jsonl], Chrome
    [trace_event] JSON otherwise. The path ["-"] streams JSONL to
    stderr, so [oshil … --trace - 2>t.jsonl | …] works in pipelines. *)

val configure_from_env : unit -> unit
(** Read [OSHIL_TRACE] (trace file path, as {!trace_to_file}),
    [OSHIL_EVENTS] ([1]/[true]/[yes] — record introspection events)
    and [OSHIL_METRICS] ([1]/[true]/[yes] — print the summary table to
    stderr at exit). Unset or empty variables change nothing. *)

val flush : unit -> unit
(** Write all configured sinks from a fresh snapshot now. Idempotent;
    also runs automatically at exit once a sink is configured. *)
