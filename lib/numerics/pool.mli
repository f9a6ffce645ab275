(** Persistent multicore work pool built on OCaml 5 [Domain]s.

    The paper's graphical technique lives on dense, embarrassingly
    parallel sweeps: the [(phi, A)] describing-function grid, per-cell
    Arnold-tongue lock ranges, and transient lock-edge bisections. This
    module gives those hot paths a shared, persistent set of worker
    domains with chunked scheduling, so a sweep costs two mutex
    round-trips instead of a domain spawn per row.

    Guarantees:
    - {b Determinism}: work is split into chunks by index arithmetic
      only (never by timing), every result lands in its own slot, and
      reductions fold partial results in index order — parallel output
      is bit-identical to sequential output for pure work functions.
    - {b Exception propagation}: if tasks raise, the exception from the
      lowest-indexed failing chunk is re-raised in the caller (with its
      backtrace), regardless of scheduling order.
    - {b Nested-call fallback}: a [parallel_*] call made from inside a
      pool task runs sequentially instead of deadlocking or
      oversubscribing, so parallel code can call parallel code freely.
    - {b Sequential degeneration}: with an effective size of 1 (or
      [n] too small to chunk) no domains are involved at all; the work
      runs in the caller exactly as a [for] loop would. *)

type t
(** A pool of worker domains. The caller participates in executing
    chunks, so a pool of size [k] runs work on [k] domains total
    ([k - 1] workers plus the submitting domain). *)

(* dsa: allow unused-export — test hook: the pool tests build and size their own pools *)
val create : size:int -> t
(** [create ~size] spawns [size - 1] worker domains. [size >= 1]
    (raises [Invalid_argument] otherwise); a size-1 pool has no workers
    and runs everything in the caller. Pools not shut down explicitly
    are shut down [at_exit]. *)

(* dsa: allow unused-export — test hook: checks the default pool's size *)
val size : t -> int

(* dsa: allow unused-export — test hook: releases the pools the tests build *)
val shutdown : t -> unit
(** Joins the worker domains. Idempotent. Submitting to a shut-down
    pool falls back to sequential execution. *)

(** {1 Default pool}

    Library code (grid sampling, sweeps…) uses an implicit default pool
    so callers need no plumbing. Its size resolves, in order, from
    {!set_jobs}, the [OSHIL_JOBS] environment variable, then
    [Domain.recommended_domain_count ()]. Size 1 means "stay
    sequential" and no domain is ever spawned. *)

val default_size : unit -> int
(** Effective job count the default pool would use right now. *)

val set_jobs : int -> unit
(** [set_jobs n] forces the default-pool size to [n] (>= 1, raises
    [Invalid_argument] otherwise), shutting down and re-creating the
    default pool if it was already running at a different size. This is
    what [--jobs] flags call. *)

(* dsa: allow unused-export — test hook: checks that set_jobs resizes the default pool *)
val get_default : unit -> t option
(** The default pool, created on first use; [None] when the effective
    size is 1. *)

val in_worker : unit -> bool
(** True while executing inside a pool task (on any domain, including
    the submitting one while it helps drain the queue). Parallel
    entry points use this for the nested-call fallback. *)

(** {1 Execution statistics}

    Lightweight always-on accounting: every executed chunk bumps a
    per-domain task counter and busy-time accumulator (two monotonic
    clock reads per chunk). With telemetry enabled ([Obs.set_enabled]),
    each top-level [parallel_for] additionally records a
    [numerics.pool.parallel_for] span and the [numerics.pool.tasks] /
    [numerics.pool.idle_ns] counters. *)

type domain_stat = {
  dom : int;  (** domain id ([Domain.self] of the executing domain) *)
  tasks : int;  (** chunks executed on that domain *)
  busy_ns : int64;  (** total wall time spent inside chunks *)
}

type stats = {
  tasks : int;  (** total chunks executed, all domains *)
  busy_ns : int64;  (** total busy time, all domains *)
  per_domain : domain_stat array;  (** sorted by [dom] *)
}

(* dsa: allow unused-export — test hook: the pool accounting test reads it *)
val stats : unit -> stats
(** Cumulative since process start (counts work from every pool,
    including retired default pools). Values are exact after a
    completed [parallel_for]; a snapshot taken while work is in flight
    may lag by the currently running chunks. *)

(** {1 Parallel iteration}

    All entry points take [?pool]; when omitted they use
    {!get_default}. [?chunk] overrides the scheduling grain (default:
    enough chunks for ~4 per domain, load-balanced but deterministic
    in result). Raises [Invalid_argument] on a negative element count
    or a [chunk < 1]. *)

(* dsa: allow unused-export — test hook: the primitive the pool tests drive directly *)
val parallel_for : ?pool:t -> ?chunk:int -> n:int -> (int -> unit) -> unit
(** [parallel_for ~n f] runs [f 0 .. f (n-1)], any order, all complete
    (or an exception from the lowest failing chunk) on return. *)

val parallel_init : ?pool:t -> ?chunk:int -> int -> (int -> 'a) -> 'a array
(** Parallel [Array.init]; element order is by index, as sequential. *)

val parallel_map_array : ?pool:t -> ?chunk:int -> ('a -> 'b) -> 'a array -> 'b array
(** Parallel [Array.map]; result order matches the input order. *)

val parallel_try_map_array :
  ?pool:t ->
  ?chunk:int ->
  subsystem:Resilience.Oshil_error.subsystem ->
  phase:string ->
  ('a -> 'b) ->
  'a array ->
  ('b, Resilience.Oshil_error.t) result array
(** Resilient parallel map: a task that raises yields [Error] in its
    slot (typed via {!Resilience.Oshil_error.of_exn}) instead of
    aborting the whole fan-out; each failure bumps
    [resilience.pool.task_failures]. Fault site [pool-task] (by task
    index) injects failures deterministically regardless of pool
    scheduling. *)
