(** §IV speed comparison: describing-function prediction vs brute-force
    transient simulation of the lock range (the paper reports 25x for the
    diff-pair and 50x for the tunnel diode). Wall-clock, single run. *)

type result = {
  bench_name : string;
  predict_s : float;  (** grid + boundary bisection + frequency mapping *)
  simulate_s : float;  (** transient binary search of both edges *)
  speedup : float;
}

val run : Osc_experiments.bench -> result
(** The transient side runs [lock_cycles] per lock trial, as the
    bench's lock-range table does. *)

val output : result -> paper_speedup:float -> Output.t
