(** Structural pre-flight analysis of a circuit netlist.

    The analyzer works on an engine-independent device view, so it has no
    dependency on the SPICE layer; [Spice.Preflight] translates a
    [Spice.Circuit.t] into this view and every analysis entry point runs
    {!check} before touching the numerics.

    Diagnostic codes emitted here:

    - [dup-name] (error): device name used more than once
    - [no-ground] (error): no device touches node [0]/[gnd]
    - [zero-value] (error): zero or non-finite R/L/C value
    - [negative-value] (warning): negative R/L/C value
    - [floating-node] (error): island of nodes with no connection to ground
    - [vsource-loop] (error): cycle of voltage sources
    - [inductor-loop] (error): DC cycle of inductors/voltage sources
    - [singular-structure] (error): transient MNA zero pattern is
      structurally rank-deficient (maximum-matching test)
    - [dc-singular] (warning): DC zero pattern is rank-deficient (the
      gmin leak regularizes it)
    - [no-dc-path] (warning): node reaches ground only through capacitors
      or current sources
    - [dangling-node] (warning): node attached to a single terminal *)

type kind =
  | Resistor of float
  | Capacitor of float
  | Inductor of float
  | Vsource
  | Isource
  | Nonlinear of {
      conduction : (string * string) list;
          (** terminal pairs joined by a DC conduction stamp *)
      control : (string * string) list;
          (** extra Jacobian pattern entries: (row node, column node),
              e.g. the gm coupling of a MOSFET's gate into its drain row *)
    }

type device = {
  name : string;
  kind : kind;
  nodes : string list;  (** all terminals, in device order *)
}

val resistor : name:string -> n1:string -> n2:string -> float -> device
val capacitor : name:string -> n1:string -> n2:string -> float -> device
val inductor : name:string -> n1:string -> n2:string -> float -> device
val vsource : name:string -> np:string -> nn:string -> device
val isource : name:string -> np:string -> nn:string -> device

val two_terminal : name:string -> np:string -> nn:string -> device
(** A two-terminal nonlinear conductor (diode, tunnel diode,
    behavioural source): conducts DC between its terminals. *)

val multi_terminal :
  name:string -> nodes:string list -> conduction:(string * string) list ->
  control:(string * string) list -> device

val check : device list -> Diagnostic.t list
(** Full pre-flight report, errors first within each category. An empty
    list means the netlist passed every structural check. *)
