(** Modified nodal analysis: compilation of a {!Circuit.t} into an indexed
    form and in-place assembly of the Newton residual/Jacobian.

    Unknown vector layout: node voltages [0 .. n_nodes-1] (ground excluded)
    followed by branch currents (one per voltage source and inductor, in
    device order). Residuals: KCL (sum of currents leaving each node,
    including a [gmin] leak to ground) followed by branch equations. *)

type compiled

val compile : Circuit.t -> compiled
(** Assigns node and branch indices. Raises [Invalid_argument] when the
    circuit has no ground-referenced device at all. *)

val size : compiled -> int
(** Number of unknowns (nodes + branches). *)

val n_nodes : compiled -> int
val node_index : compiled -> string -> int
(** Index of a node voltage in the unknown vector; raises [Not_found] for
    unknown names; ground yields [-1]. *)

val branch_index : compiled -> string -> int
(** Index (into the unknown vector) of the branch current of the named
    voltage source or inductor. Raises [Not_found] otherwise. *)

val node_voltage : compiled -> float array -> string -> float
(** Reads a node voltage from a solution vector ([0.] for ground). *)

type integ = Trap | Backward_euler

type state
(** The stepping state of one transient run, advanced in place: the
    companion-model history of the last accepted step (capacitor
    voltages and currents, inductor voltages and currents) and the
    value of every independent source at the end of the step being
    solved. *)

val init_state : compiled -> use_ic:bool -> x:float array -> state
(** Builds the time-zero state: capacitor voltages and inductor currents
    come from the device [ic] when [use_ic] and one is present, else from
    the solution [x]; capacitor currents start at zero. *)

val set_time : compiled -> state -> float -> unit
(** [set_time c state t] evaluates every source's wave at [t], the end
    of the next step to solve, once for all of that step's Newton
    iterations. *)

val advance_state :
  compiled -> integ:integ -> h:float -> state -> x:float array -> unit
(** Advances the companion-model history in place after an accepted
    step of size [h] to [x]. *)

type mode =
  | Dc of { gmin : float; source_scale : float }
      (** Capacitors open, inductors short; sources scaled by
          [source_scale] (for source stepping); [gmin] leak on every
          node. *)
  | Tran of { h : float; integ : integ; state : state; gmin : float }
      (** Assemble a step of size [h] from the history in [state] to
          the time of its last {!set_time}. *)

val assemble :
  compiled -> mode:mode -> x:float array -> jac:Numerics.Linalg.mat ->
  res:float array -> unit
(** Zeroes and fills [jac] and [res] for the given candidate solution. *)

