(** Typed introspection events: per-iteration solver-health records.

    A second telemetry stream next to spans, {b off by default even
    when spans are on} — one event per Newton iteration or transient
    step adds up fast. Every entry point is a single atomic load and
    branch while the stream is off, and emitting events never changes
    numeric results (bit-identity is covered by tests).

    Events land in the same per-domain buffers as spans, appear in
    {!Registry.snapshot}, are written by {!Sink.jsonl} as
    [{"type":"event",...}] lines, read back by {!Trace_read}, and
    aggregated into run-health reports by {!Report}. *)

type solve_ctx = Registry.solve_ctx = {
  solver : string;
  rung : string;
  cell : (float * float) option;
}

type payload = Registry.event_payload =
  | Newton_iter of {
      ctx : solve_ctx;
      iter : int;
      residual : float;
      step : float;
      damping : float;
    }
  | Newton_done of {
      ctx : solve_ctx;
      iters : int;
      converged : bool;
      residual : float;
    }
  | Tran_step of { t : float; dt : float; accepted : bool; lte : float }
  | Bracket of { site : string; lo : float; hi : float; probe : float; hit : bool }
  | Cache_access of { kind : string; outcome : string }
  | Pool_sample of { domains : int; tasks : int; busy_ns : int64 }
  | Gc_sample of {
      where : string;
      minor_words : float;
      promoted_words : float;
      major_words : float;
      minor_gcs : int;
      major_gcs : int;
      heap_words : int;
    }

val enabled : unit -> bool
(** Whether the event stream is currently recording. *)

val ctx : ?rung:string -> ?cell:float * float -> string -> solve_ctx
(** [ctx ?rung ?cell solver] builds a solve identity; [rung] defaults
    to [""] (direct solve). *)

val emit : payload -> unit
(** Record one event with the current timestamp and domain id. No-op
    (one atomic load) while the stream is off. *)

val gc_sample : where:string -> unit -> unit
(** Sample [Gc.quick_stat] and emit a {!Gc_sample} tagged with the
    span name [where]. Called at span boundaries by {!Span.with_}. *)
