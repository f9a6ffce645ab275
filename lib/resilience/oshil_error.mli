(** Unified error taxonomy for the whole solver stack.

    Every failure mode of the numerical pipeline — Newton divergence,
    singular systems, transient step failure, exhausted retry budgets,
    missing oscillation, parse errors — is a value of {!t} carrying
    structured context (subsystem, phase, operating point, iteration or
    residual at failure) and, where known, a suggested remedy. Values
    render through the {!Check.Diagnostic} machinery so CLI output,
    [oshil lint] and failure summaries share one format.

    Library code raises {!Error}; fan-out layers catch it per work item
    and degrade (see {!Summary}), entry points catch it once and turn it
    into a diagnostic + exit code. *)

type subsystem =
  | Numerics
  | Spice
  | Shil
  | Waveform
  | Circuits
  | Experiments
  | Serve

type kind =
  | Solver_divergence  (** iterative solver failed to converge *)
  | Singular_system  (** linear system singular at the point of use *)
  | Step_failure  (** transient step rejected beyond recovery *)
  | No_oscillation  (** circuit has no (stable) natural oscillation *)
  | Root_failure  (** root finder failed (bracket, Newton 2-D, ...) *)
  | Budget_exhausted  (** retry / rejected-step / wall-clock budget hit *)
  | Measurement_failure  (** waveform measurement ill-posed *)
  | Parse_failure  (** input (netlist, scenario, fault plan) invalid *)
  | Fault_injected  (** deterministic fault from {!Fault} *)
  | Overload  (** server job queue full, or the daemon is draining *)

type t = {
  subsystem : subsystem;
  phase : string;  (** pipeline phase, e.g. ["op"], ["transient"] *)
  kind : kind;
  msg : string;
  context : (string * string) list;
      (** structured details: iteration, residual, t, operating point *)
  remedy : string option;  (** actionable suggestion, if one is known *)
}

exception Error of t

val make :
  ?context:(string * string) list ->
  ?remedy:string ->
  subsystem ->
  phase:string ->
  kind ->
  string ->
  t

val raise_ :
  ?context:(string * string) list ->
  ?remedy:string ->
  subsystem ->
  phase:string ->
  kind ->
  string ->
  'a
(** [raise_ sub ~phase kind msg] builds the error, bumps the
    [resilience.errors] counters and raises {!Error}. *)

val of_exn : subsystem -> phase:string -> exn -> t
(** Wrap an arbitrary exception as a typed error; {!Error} payloads
    pass through unchanged. *)

val subsystem_name : subsystem -> string
val code : t -> string
(** Stable kebab-case code of the kind, e.g. ["solver-divergence"]. *)

(* dsa: allow unused-export — test hook: the tests check where a typed error is anchored *)
val loc : t -> string
(** ["subsystem.phase"] — the diagnostic anchor. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
