(** Pure request → report functions: the one implementation of every
    analysis the CLI, the batch runner and the [oshil serve] daemon
    expose. Each entry point returns the report as a [string] whose
    bytes are exactly what the corresponding CLI subcommand prints, so
    "server-path report == CLI report" holds by construction rather
    than by test discipline.

    Exception contract: the [*_text], [scenario_*], [netlist_*] and
    {!resolve_oscillator} functions propagate solver and validation
    exceptions — {!Resilience.Oshil_error.Error}, [Check.Diagnostic.Failed],
    and the kernels' legacy [failwith] / [invalid_arg] signals —
    exactly like the library calls they wrap. {!execute} and {!handle}
    catch all of these and return a typed outcome instead; they never
    raise. *)

module Request = Request

(* --- oscillators ---------------------------------------------------- *)

val resolve_oscillator : Request.osc_spec -> Shil.Analysis.oscillator
(** The CLI's oscillator table: builtin cells by name, or a custom tanh
    cell with the [--g0] family's defaults. Unknown names raise a typed
    [parse-failure]. *)

(* --- report renderers (byte-identical to the CLI) ------------------- *)

val shil_run :
  osc:Shil.Analysis.oscillator ->
  n:int ->
  vi:float ->
  reduced:bool ->
  Shil.Analysis.shil_report
(** The analysis behind [oshil shil] ([`Symmetry] quadrature when
    [reduced]). Split from the rendering so callers that also need the
    structured report (the CLI's [--ascii] plots) run it once. *)

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

val op_text : circuit:Spice.Circuit.t -> Spice.Op.t -> string
(** [v(node) = …] lines in the circuit's node order. *)

val tran_csv : Spice.Transient.result -> string
(** The [oshil netlist --analysis tran] CSV. *)

(* --- scenarios ------------------------------------------------------ *)

val is_scenario_file : string -> bool
(** [.scn] / [.scenario], case-insensitive. *)

type scenario_outcome =
  | Scn_ok of string  (** rendered JSON body fields of a completed run *)
  | Scn_lint_error of string  (** likewise for a lint rejection *)

val scenario_file_outcome : string -> scenario_outcome
(** Lint then analyze one scenario read from disk ([oshil batch]'s
    path). Solver failures propagate (the batch pool and {!execute}
    both convert them to typed errors per scenario). *)

val scenario_entry : file:string -> scenario_outcome -> string
(** The [{"file":…, …}] JSON entry of the batch report. *)

(* --- lint ----------------------------------------------------------- *)

val lint_file : string -> Check.Diagnostic.t list
(** Scenario or netlist pre-flight by extension, from disk. *)

(* --- request execution ---------------------------------------------- *)

type outcome = (string, Resilience.Oshil_error.t) result
(** A finished request: the report text, or a typed error. *)

val parse_request : string -> (Request.t, Resilience.Oshil_error.t) result
(** Decode one wire line; malformed input becomes a typed
    [parse-failure] in the [serve] subsystem (never an exception). *)

val execute : Request.t -> outcome
(** Run the payload under the ambient deadline (if any). Total: every
    exception — typed errors, diagnostics gates, injected faults,
    programming errors — is caught and folded into the outcome, which
    is what makes one crashing request harmless to the daemon. *)

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
