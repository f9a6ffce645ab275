(** Counters, gauges and fixed-bucket histograms with stable dotted
    names.

    Naming convention: [layer.component.quantity], e.g.
    [spice.newton.iters], [shil.grid.f_evals], [numerics.pool.tasks].
    Names are the schema — dashboards, the [oshil stats] summary and
    the bench JSON breakdown key on them — so treat renames as breaking
    changes and document them in the README metric table.

    All entry points are no-ops (one atomic load) while telemetry is
    disabled; [register_histogram] is the exception and always runs so
    modules can declare their buckets at initialisation time. *)

val incr : ?by:int -> string -> unit
(** Add [by] (default 1) to a counter. Negative [by] is permitted for
    symmetry but counters are conventionally monotonic. *)

val set_gauge : string -> float -> unit
(** Record the current value of a quantity; merged last-write-wins
    (by monotonic timestamp) across domains. *)

val register_histogram : name:string -> buckets:float array -> unit
(** Declare a histogram's bucket upper bounds (strictly ascending).
    Idempotent — the first registration of a name wins — so modules can
    register at init without coordination. *)

val observe : string -> float -> unit
(** Sample into a registered histogram; a value [v] lands in the first
    bucket with [v <= bound], above the last bound in the overflow
    slot. Samples for unregistered names are dropped. *)

val bucket : float array -> float -> int
(** [bucket bounds v] is the slot {!observe} counts [v] in: the first [i]
    with [v <= bounds.(i)], else [Array.length bounds] (overflow). *)

val observe_counts : string -> int array -> unit
(** Adds pre-binned samples to a registered histogram: [counts.(i)]
    samples in slot [i] as {!bucket} numbers them, so the array has one
    more entry than the bounds. Same result as one {!observe} per
    sample, for hot loops that bin locally and report once. Raises
    [Invalid_argument] on a length mismatch. *)

val counter_value : string -> int
(** Merged current value of a counter across all domains; 0 if the
    counter was never incremented. Useful for before/after deltas when
    embedding metric snapshots into bench records. *)
