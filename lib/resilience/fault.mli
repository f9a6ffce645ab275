(** Deterministic fault injection.

    A fault plan is a comma-separated list of [site[@START[xCOUNT]]]
    specs (env [OSHIL_FAULTS], CLI [--inject-fault]):

    - [newton-singular@0] — fail the first Newton solve;
    - [tran-reject@3x2] — reject transient step attempts 3 and 4;
    - [grid-point] — fail every grid row (bare site = always).

    Each site keeps its own occurrence counter, so plans are
    deterministic for serial call sites; index-addressed sites
    ([grid-point], [pool-task], ...) use {!fire_at} with the work-item
    index and are deterministic regardless of pool scheduling.

    With no plan configured every probe is a single atomic load
    returning [false] — zero faults injected means bit-identical
    results. *)

type window = { start : int; count : int }

(* dsa: allow unused-export — test hook: the tests check plan parsing without installing a plan *)
val parse : string -> ((string * window) list, string) result
val configure : string -> (unit, string) result
(** Parse and install a plan; resets all occurrence counters. *)

val configure_from_env : unit -> unit
(** Install the plan from [OSHIL_FAULTS] if set; raises
    {!Oshil_error.Error} ([Parse_failure]) on a malformed plan. *)

(* dsa: allow unused-export — test hook: disarms the plan between test cases *)
val clear : unit -> unit
val armed : unit -> bool

val fire : string -> bool
(** [fire site] — true iff this occurrence (per-site counter, counted
    from 0) falls in the site's window. Counts even when it misses. *)

val fire_at : string -> k:int -> bool
(** [fire_at site ~k] — true iff work-item index [k] falls in the
    window. Does not touch the occurrence counter. *)

val error : site:string -> Oshil_error.subsystem -> phase:string -> Oshil_error.t
(** The typed error describing an injected fault at [site]. *)
