(** The [oshil serve] daemon: a resident analysis server multiplexing
    newline-delimited JSON requests (see {!Request}) over a Unix-domain
    or TCP socket.

    Lifecycle state machine:
    {v
      accepting --request_drain()--> draining --queue empty--> stopped
    v}
    - {b accepting}: one reader thread per connection parses request
      lines; [health]/[stats] are answered inline, work requests go
      through a bounded job queue ({!Bq}) onto a fixed worker pool.
      A full queue is explicit backpressure: the request is rejected
      immediately with a typed [overload] error, never queued blind.
    - {b draining} (entered from a SIGTERM/SIGINT handler calling
      {!request_drain}, or programmatically): the listener closes, new
      requests on live connections get typed [overload] rejections,
      queued and in-flight work finishes (or deadlines out), then
      sinks flush and {!run} returns — the bin wrapper exits 0.

    Robustness invariants, enforced per request:
    - a payload that raises returns a typed error response and the
      worker survives (crash isolation via {!Api.execute});
    - transient failures (injected faults, solver divergence, singular
      systems) retry with exponential backoff inside the request's
      deadline, at most [max_retries] times;
    - every request runs under its [deadline_s] (or the server
      default) through {!Resilience.Deadline}, so a stuck solve
      unwinds into a typed [budget-exhausted] error instead of pinning
      a worker forever;
    - the [serve-request] {!Resilience.Fault} site fires at the top of
      request processing for fault-injection drills.

    {!run} raises {!Resilience.Oshil_error.Error} only for startup
    failures (socket bind/listen). *)

type config = {
  address : Addr.t;
  capacity : int;  (** job-queue slots (excludes in-flight work) *)
  workers : int;  (** worker threads executing requests *)
  default_deadline_s : float option;
      (** budget for requests that carry no [deadline_s] *)
  max_retries : int;  (** extra attempts for transient-class failures *)
  retry_backoff_s : float;  (** base backoff, doubled per attempt *)
}

val default_config : Addr.t -> config
(** capacity 16, 2 workers, 30 s default deadline, 2 retries, 50 ms
    backoff. *)

(** Counter snapshot exposed by the [stats] endpoint. *)
type stats = {
  draining : bool;
  workers : int;
  queue_depth : int;
  queue_capacity : int;
  in_flight : int;
  connections : int;
  received : int;  (** requests parsed off the wire *)
  ok : int;
  errors : int;  (** error responses, including protocol errors *)
  rejected_overload : int;
  rejected_draining : int;
  retries : int;
  deadline_expired : int;
  cache_hits : int;
  cache_misses : int;
  cache_corrupt : int;
}

(* dsa: allow unused-export — test hook: the golden test pins the stats report's byte layout *)
val stats_to_json : ?health:string -> stats -> string
(** Deterministic rendering of the [stats] report; [health] is a raw
    JSON value (default [null]) carrying {!Obs.Report.to_json}
    run-health when telemetry is on. Golden-tested byte layout. *)

val request_drain : unit -> unit
(** Enter drain mode. Async-signal-safe (a single atomic store): this
    is what the daemon's SIGTERM/SIGINT handlers call. Process-global —
    it addresses every {!run} in the process (there is normally one). *)

(* dsa: allow unused-export — test hook: the drain tests observe and reset the drain flag *)
val draining : unit -> bool

val run : config -> unit
(** Serve until drained. Blocks the calling thread (the accept loop
    runs on it); spawns reader and worker threads internally and joins
    them all before returning. Flushes {!Obs} sinks on the way out. *)
