(** Static pre-flight analysis of a circuit, run by {!Op.run} and
    {!Transient.run} before any matrix is assembled.

    The structural rules live in [Check.Netlist]; this module only
    translates a {!Circuit.t} into the engine-independent device view
    and applies the gate policy. *)

val check : Circuit.t -> Check.Diagnostic.t list

type mode = Check.Diagnostic.gate_mode

val gate : ?mode:mode -> Circuit.t -> unit
(** [`Enforce] (default) raises [Check.Diagnostic.Failed] when the report
    contains errors and logs warnings on the [oshil.preflight] log
    source; [`Warn] logs everything and proceeds; [`Off] skips the
    analysis entirely (used internally for derived circuits that were
    already vetted). *)
