(** The one request path: every analysis the CLI subcommands, [oshil
    api], the batch runner and the [oshil serve] daemon expose runs
    through {!run} (or {!execute}, which renders its report), so a
    subcommand's report bytes and a daemon response's are the same by
    construction rather than by test discipline.

    Exception contract: {!run}, the [*_run]/[*_text] renderers,
    [scenario_*], {!lint_file}, {!netlist_of_text} and
    {!resolve_oscillator} propagate solver and validation exceptions —
    {!Resilience.Oshil_error.Error}, [Check.Diagnostic.Failed], and the
    kernels' legacy [failwith] / [invalid_arg] signals — exactly like
    the library calls they wrap. {!execute} and {!handle} catch all of
    these and return a typed outcome instead; they never raise. *)

module Request = Request
module Cells = Cells

(* --- oscillators ---------------------------------------------------- *)

val resolve_oscillator : Request.osc_spec -> Shil.Analysis.oscillator
(** The describing-function model of {!Cells.of_spec}'s row: a builtin
    cell by name, or a custom tanh cell with the [--g0] family's
    defaults. Unknown names raise a typed [parse-failure]. *)

(* --- report renderers (byte-identical to the CLI) ------------------- *)

val shil_run :
  osc:Shil.Analysis.oscillator ->
  n:int ->
  vi:float ->
  reduced:bool ->
  Shil.Analysis.shil_report
(** The analysis behind [oshil shil] ([`Symmetry] quadrature when
    [reduced]), split from its rendering as {!run}'s [Shil_report]
    is. *)

val shil_report_text : Shil.Analysis.shil_report -> finj:float option -> string
(** Render a {!shil_run} report (and, with [finj], its lock section). *)

(* --- harmonic balance ------------------------------------------------ *)

(* dsa: allow unused-export — test hook: the HB cache tests key oscprobe runs by it *)
val hb_ident : Shil.Analysis.oscillator -> string option
(** Canonical cache identity of {!Circuits.Behavioural.circuit}'s
    free-running form — the nonlinearity's cache key joined with the
    bit-exact tank values; [None] (uncacheable) when the nonlinearity
    has no key. *)

type hb_outcome = {
  hb_n : int;
  hb_vi : float;
  free : Hb.Driver.solution;
  hb_mode : hb_mode_result;
}

and hb_mode_result =
  | Hb_free_only
  | Hb_locked of Hb.Driver.verdict
  | Hb_band of { band : Hb.Driver.band; df : Shil.Lock_range.t }

val hb_run :
  osc:Shil.Analysis.oscillator ->
  n:int ->
  vi:float ->
  k_max:int ->
  samples:int ->
  mode:Request.hb_mode ->
  hb_outcome
(** The analysis behind [oshil hb]: oscprobe the free-running steady
    state (seeded from the tank resonance and the describing-function
    amplitude), then per [mode] solve one injected tone or march the
    HB lock band (the DF lock range supplies the guess width and rides
    along in the report). Raises typed [no-oscillation] when the cell
    has no describing-function amplitude to seed from. *)

val hb_text : hb_outcome -> string
(** The [oshil hb] report bytes (also the daemon's [hb] report). *)

val hb_json : hb_outcome -> string
(** The [oshil hb --json] single-line report ([%.17g] floats). *)

(* --- scenarios ------------------------------------------------------ *)

val is_scenario_file : string -> bool
(** [.scn] / [.scenario], case-insensitive. *)

type scenario_outcome =
  | Scn_ok of string  (** rendered JSON body fields of a completed run *)
  | Scn_lint_error of string  (** likewise for a lint rejection *)

val scenario_file_outcome : string -> scenario_outcome
(** Lint then analyze one scenario read from disk ([oshil batch]'s
    path), under its basename, as a [scenario] request does with its
    text. Solver failures propagate (the batch pool and {!execute}
    both convert them to typed errors per scenario). *)

val scenario_entry : file:string -> scenario_outcome -> string
(** The [{"file":…, …}] JSON entry of the batch report. *)

(* --- lint ----------------------------------------------------------- *)

val lint_file : string -> Check.Diagnostic.t list
(** Scenario or netlist pre-flight by extension, of a file read from
    disk and located by its basename; a [lint] request runs the same
    check on its text. *)

(* --- netlists ------------------------------------------------------- *)

val netlist_of_text : name:string -> string -> Spice.Circuit.t
(** Parse an inline netlist; a syntax error raises a typed
    [parse-failure] (phase ["netlist"]) whose message is
    ["name:line: message"]. *)

(* --- request execution ---------------------------------------------- *)

type report =
  | Text of string
  | Natural_report of {
      osc : Shil.Analysis.oscillator;
      solutions : Shil.Natural.solution list;
    }
  | Shil_report of { report : Shil.Analysis.shil_report; finj : float option }
  | Hb_report of hb_outcome
  | Transient_report of {
      times : float array;
      values : float array;
      cycles : float;
    }
(** What an op computed, before rendering: the text itself, or — for
    the ops whose CLI subcommand also draws or re-renders it
    ([--ascii], [hb --json]) — the structured result. *)

val run : ?preflight:Spice.Preflight.mode -> Request.payload -> report
(** The one executor of every payload: the CLI subcommands, [oshil api]
    and the daemon all run their analyses here. Raises like the library
    calls it wraps. [preflight] gates the netlist ops' circuit
    ([`Enforce] by default; [oshil netlist --force] passes [`Warn]) and
    is not a request field. *)

val report_text : report -> string
(** The report bytes: exactly what the op's CLI subcommand prints. *)

type outcome = (string, Resilience.Oshil_error.t) result
(** A finished request: the report text, or a typed error. *)

val parse_request : string -> (Request.t, Resilience.Oshil_error.t) result
(** Decode one wire line; malformed input becomes a typed
    [parse-failure] in the [serve] subsystem (never an exception). *)

val execute : Request.t -> outcome
(** {!run} then {!report_text}, under the ambient deadline (if any).
    Total: every exception — typed errors, diagnostics gates, injected
    faults, programming errors — is caught and folded into the outcome,
    which is what makes one crashing request harmless to the daemon. *)

val handle : ?default_deadline_s:float -> Request.t -> outcome
(** {!execute} under the request's own [deadline_s] (or
    [default_deadline_s] when the request carries none): the whole
    payload runs inside {!Resilience.Deadline.with_deadline}, so
    overrunning work unwinds into a typed [budget-exhausted] error. *)

val run_health_json : unit -> string
(** {!Obs.Report.to_json} of a live snapshot when telemetry is on,
    ["null"] otherwise — the [health] field of the [stats] report. *)

(* --- responses ------------------------------------------------------ *)

val response_of_outcome : id:string -> outcome -> string
(** The single-line wire response:
    [{"id":…,"status":"ok","report":…}] or
    [{"id":…,"status":"error","error":{…}}]. Deterministic bytes — no
    timing fields — so the server and CLI paths diff clean. *)
