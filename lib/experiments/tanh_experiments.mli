(** Reproductions of the paper's §II–III illustration figures, all on the
    negative-tanh LC oscillator (Figs. 3, 6, 7, 9, 10), each validated
    against an MNA transient of the behavioural netlist where
    meaningful. *)

type setup = {
  params : Circuits.Tanh_osc.params;
  vi : float;  (** injection magnitude used by F7/F9/F10 *)
  n : int;  (** sub-harmonic order (3, as in the paper's examples) *)
}

val default_setup : setup

val fig3_natural : ?validate:bool -> setup -> Output.t
(** [T_f(A)] against [y = 1]: predicted natural amplitude, optionally
    cross-checked against a 300-cycle transient (default true). *)

val fig6_tank : setup -> Output.t
(** Tank [|H|] and phase vs frequency; peak and +-45 degree points. *)

val fig7_solutions : setup -> Output.t
(** The [(phi, A)]-plane curves [C_{T_f,1}] and [C_{angle(-I1),-phi_d}]
    with their intersections and stability, at [phi_d = 0.1]. *)

val fig9_states : setup -> Output.t
(** The [n] oscillator states of the stable centre-frequency lock, spaced
    [2 pi / n], drawn as phasors. *)

val fig10_lock_range : ?validate:bool -> setup -> Output.t
(** Isolines of [angle(-I1)] over the [T_f = 1] curve; the lock-range
    boundary [phi_d_max], mapped to the injection-frequency band;
    optionally validated against transient lock edges, 800 cycles per
    probe (slow). *)
