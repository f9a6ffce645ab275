(** Shared §IV experiment drivers, parameterised over a benchmark circuit:
    both the diff-pair (§IV-A) and the tunnel-diode (§IV-B) sections run
    the same five experiments (f(v) extraction, natural-oscillation
    prediction + transient validation, SHIL lock-range prediction +
    simulated table, and the n-states demonstration). *)

type ids = {
  fv : string;  (** F12a / F16b *)
  natural : string;  (** F12b / F16c *)
  transient : string;  (** F13 / F17 *)
  table : string;  (** T1 / T2 *)
  curves : string;  (** F14 / F18 *)
  states : string;  (** F15 / F19 *)
}

type bench = {
  cell : string;  (** the {!Api.Cells} row the experiments run on *)
  name : string;  (** display name *)
  stem : string;  (** figure file-name suffix *)
  ids : ids;
  of_table : float array * float array -> Shil.Nonlinearity.t;
      (** the extracted [f(v)] table as a curve around the operating
          point, for F12a/F16b's rows *)
  natural_target : float;  (** the paper's reported amplitude *)
  n : int;  (** the paper's sub-harmonic order *)
  vi : float;  (** the paper's injection *)
  paper_table : (string * float) list;
      (** the paper's own table rows, for side-by-side printing *)
}
(** One §IV section: the paper's reference numbers, names and figure
    ids. The cell itself (tank, [f(v)], netlists, probe, lock trial and
    state-flip pulse) is its {!Api.Cells} row, and every band is
    {!Shil.Analysis.run}'s at [(n, vi)]. *)

val diff_pair : bench
(** §IV-A on the ["diffpair"] row. *)

val tunnel : bench
(** §IV-B on the ["tunnel"] row. *)

val fig_fv : bench -> Output.t
(** Figs. 12a / 16b: the extracted [i = f(v)] curve. *)

val fig_natural_prediction : bench -> Output.t
(** Figs. 12b / 16c: [T_f(A) = 1] graphical prediction. *)

val fig_transient : bench -> Output.t
(** Figs. 13 / 17: start-up transient on the device netlist; measured
    steady amplitude and frequency (over 400 cycles) against the
    prediction. *)

val table_lock_range : ?predict_only:bool -> bench -> Output.t
(** Tables §IV-A / §IV-B: predicted vs simulated lock limits
    (simulation = {!Api.Cells.validate}, the row's lock trial; skipped
    when [predict_only]). *)

val fig_lock_range_curves : bench -> Output.t
(** Figs. 14 / 18: the isoline picture at the calibrated [V_i]. *)

val fig_states : bench -> Output.t
(** Figs. 15 / 19: phase-flipping pulses move the oscillator between the
    [n] states; reports the relative phase in each of three 800-cycle
    inter-pulse windows. *)
