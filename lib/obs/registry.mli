(** Telemetry event storage: per-domain buffers merged on demand.

    Library-internal plumbing shared by {!Span}, {!Metrics} and the
    sinks; user code should go through the [Obs] facade. The design
    contract: hot-path writes touch only the writing domain's buffer
    (one uncontended mutex round-trip), the global [enabled] flag is a
    single atomic load when telemetry is off, and nothing here feeds
    back into numeric results — instrumentation is observation only. *)

val enabled : bool Atomic.t
(** Master switch. Off (the default) means every instrumentation entry
    point is a load-and-branch no-op. *)

val events_enabled : bool Atomic.t
(** Independent switch for the introspection {e event} stream (per
    Newton iteration, per transient step, …). Off by default even when
    [enabled] is on, because events are much higher-volume than spans.
    Same contract: one atomic load when off, observation only. *)

type span_ev = {
  name : string;  (** stable dotted name, e.g. ["shil.grid.sample"] *)
  cat : string;  (** coarse category, e.g. ["shil"] *)
  ts_ns : int64;  (** start, monotonic ns since process start *)
  dur_ns : int64;
  tid : int;  (** domain id that ran the span *)
  depth : int;  (** nesting depth within its domain, 0 = top level *)
  attrs : (string * string) list;
}

type solve_ctx = {
  solver : string;  (** engine, e.g. ["spice.op"], ["shil.refine"] *)
  rung : string;  (** recovery rung label, e.g. ["gmin=1e-4"]; [""] = direct *)
  cell : (float * float) option;  (** (phi, A) grid cell, when applicable *)
}
(** Identity of one nonlinear solve, attached to convergence events. *)

(** One introspection record. Every constructor is pure observation:
    emitting (or not emitting) an event never feeds back into numeric
    results. *)
type event_payload =
  | Newton_iter of {
      ctx : solve_ctx;
      iter : int;  (** 1-based iteration index within the solve *)
      residual : float;  (** residual norm entering the update *)
      step : float;  (** applied update norm (after clamp/damping) *)
      damping : float;  (** applied step fraction; 1.0 = full Newton *)
    }
  | Newton_done of {
      ctx : solve_ctx;
      iters : int;
      converged : bool;
      residual : float;  (** final residual norm *)
    }
  | Tran_step of {
      t : float;  (** time at the start of the step *)
      dt : float;
      accepted : bool;
      lte : float;  (** local truncation error estimate; nan if none *)
    }
  | Bracket of {
      site : string;  (** e.g. ["shil.lockrange.phi_d"] *)
      lo : float;
      hi : float;
      probe : float;
      hit : bool;  (** probe satisfied the bracket predicate *)
    }
  | Cache_access of {
      kind : string;  (** key kind, e.g. ["shil.grid"] *)
      outcome : string;  (** ["memory"], ["disk"] or ["miss"] *)
    }
  | Pool_sample of { domains : int; tasks : int; busy_ns : int64 }
  | Gc_sample of {
      where : string;  (** span name at whose boundary this was taken *)
      minor_words : float;
      promoted_words : float;
      major_words : float;
      minor_gcs : int;
      major_gcs : int;
      heap_words : int;
    }

type event_ev = { ts_ns : int64; tid : int; payload : event_payload }

type dbuf
(** One domain's private buffer. *)

val my_buf : unit -> dbuf
(** The calling domain's buffer, created and registered on first use. *)

val live_depth : dbuf -> int
(** Current span-nesting depth. Owner domain only. *)

val set_live_depth : dbuf -> int -> unit
val buf_dom : dbuf -> int

val add_span : dbuf -> span_ev -> unit

val add_event : dbuf -> event_ev -> unit
(** Buffers an introspection event; beyond a per-domain cap further
    events are dropped and counted under [obs.events_dropped]. *)

val counter_add : dbuf -> string -> int -> unit
val gauge_set : dbuf -> string -> float -> unit

val register_histogram : name:string -> buckets:float array -> unit
(** Idempotent; raises [Invalid_argument] on empty, non-finite or
    non-ascending bounds. A value [v] lands in the first bucket with
    [v <= bound]; values above the last bound land in an overflow
    slot, so counts arrays have [length bounds + 1] entries. *)

val observe : dbuf -> string -> float -> unit
(** Samples against the registered bounds; drops the sample if the
    histogram name was never registered. *)

val bucket_index : float array -> float -> int
(** The slot [observe] counts [v] in: the first [i] with
    [v <= bounds.(i)], else [length bounds] (overflow). *)

val observe_counts : dbuf -> string -> int array -> unit
(** Adds per-slot sample counts (overflow slot included) in one step;
    the same result as one [observe] per sample. Dropped for an
    unregistered name; raises [Invalid_argument] on a length mismatch. *)

(** {1 Merged view} *)

type snapshot = {
  spans : span_ev list;  (** sorted by [ts_ns], then domain id *)
  events : event_ev list;  (** sorted by [ts_ns], then domain id *)
  counters : (string * int) list;  (** summed across domains, sorted *)
  gauges : (string * float) list;  (** last write (by timestamp) wins *)
  hists : (string * float array * int array) list;
      (** name, bucket bounds, per-bucket counts (+ overflow slot) *)
}

val snapshot : unit -> snapshot
(** Non-destructive merge of every domain's buffer. *)

val counter_value : string -> int
(** Current merged value of one counter (0 if never incremented). *)

val reset : unit -> unit
(** Clears all buffered events and metric state (histogram bucket
    {e definitions} survive). *)
