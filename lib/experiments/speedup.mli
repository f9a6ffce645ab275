(** §IV speed comparison: describing-function prediction vs brute-force
    transient simulation of the lock range (the paper reports 25x for the
    diff-pair and 50x for the tunnel diode). Wall-clock, single run. *)

type result = {
  bench_name : string;
  predict_s : float;  (** {!Shil.Analysis.run}: natural solve, grid, lock range *)
  simulate_s : float;  (** transient binary search of both edges *)
  speedup : float;
}

val run : Osc_experiments.bench -> result
(** The transient side is {!Api.Cells.validate} with the cell row's
    lock trial, as the bench's lock-range table runs it. *)

val output : result -> paper_speedup:float -> Output.t
