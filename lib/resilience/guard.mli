(** The one hole rule of every fan-out.

    Each work item of a fan-out — a grid row or torus column, a lock
    probe, a tongue cell, a transient lock edge, a batch scenario — runs
    through {!run}, which applies one rule:

    - a spent ambient {!Deadline} raises [budget-exhausted], counted once
      per guard under [resilience.deadline.expired]: a spent budget is
      never a result;
    - a firing fault site, or an item that raises, is a hole; the one
      exception is a raised [Budget_exhausted], which re-raises;
    - under {!Policy.fail_fast} a hole re-raises; otherwise it is
      recorded in {!summary} under the item's label and increments
      [resilience.<phase>.holes].

    A guard is thread-safe: {!Numerics.Pool} tasks share one. ['k] is
    the item key its labels are made from. *)

type 'k t

val make :
  ?fault:string -> ?counter:string -> label:('k -> string) ->
  Oshil_error.subsystem -> phase:string -> 'k t
(** [counter] is bumped by every item that passes the deadline check;
    [fault] is the {!Fault} site that fails items; [label k] names the
    hole of item [k]. *)

val run :
  ?at:int -> 'k t -> 'k -> (unit -> 'a) -> ('a, Oshil_error.t) result
(** [run g k f] is item [k]: [Ok (f ())], or [Error e] for a recorded
    hole. The fault site fires by occurrence ({!Fault.fire}), or by
    work-item index [at] ({!Fault.fire_at}) when given, which keeps a
    plan deterministic under any pool schedule. *)

val summary : 'k t -> Summary.t
(** Items run so far, and the holes: by [at] when items are indexed,
    otherwise in the order the items started. *)
