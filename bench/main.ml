(* Experiment harness: regenerates every table and figure of the paper's
   evaluation, printed as rows, with the figures written as SVG under
   out/figures/. The benchmark is perfbench/ (see BENCHMARK.json); the
   only timing here is the paper's speedup row (S1).

   Flags:
     --fast    skip the transient binary searches (tables print the
               prediction side plus the paper's reference numbers)
     --help    print usage and exit

   The pool size of the parallel kernels comes from OSHIL_JOBS and a
   telemetry trace from OSHIL_TRACE, as for the oshil CLI. *)

let usage_lines =
  [
    "usage: bench/main.exe [--fast] [--help]";
    "  --fast   skip the slow transient lock searches";
    "  (OSHIL_JOBS sets the pool size, OSHIL_TRACE records a trace)";
  ]

let parse_args () =
  let rec go fast = function
    | [] -> fast
    | "--fast" :: rest -> go true rest
    | ("--help" | "-h") :: _ ->
      List.iter print_endline usage_lines;
      exit 0
    | arg :: _ ->
      prerr_endline (Printf.sprintf "bench/main.exe: unknown argument %S" arg);
      List.iter prerr_endline usage_lines;
      exit 2
  in
  go false (List.tl (Array.to_list Sys.argv))

let figures_dir = "out/figures"

let show out =
  Format.printf "%a@." Experiments.Output.print out;
  let paths = Experiments.Output.write_figures ~dir:figures_dir out in
  List.iter (Format.printf "  figure: %s@.") paths;
  Format.printf "@."

let run_experiments ~fast () =
  Format.printf
    "oshil experiment harness - reproducing the tables and figures of@.\
     'A Rigorous Graphical Technique for Predicting Sub-harmonic Injection@.\
     Locking in LC Oscillators' (DAC 2014)%s@.@."
    (if fast then " [--fast: simulation searches skipped]" else "");
  (* ---- section II-III illustrations (tanh oscillator) ---- *)
  let ts = Experiments.Tanh_experiments.default_setup in
  show (Experiments.Tanh_experiments.fig3_natural ts);
  show (Experiments.Tanh_experiments.fig6_tank ts);
  show (Experiments.Tanh_experiments.fig7_solutions ts);
  show (Experiments.Tanh_experiments.fig9_states ts);
  show (Experiments.Tanh_experiments.fig10_lock_range ~validate:(not fast) ts);
  (* ---- ablation: rigorous vs PPV baseline (paper SI comparison) ---- *)
  let tanh_osc = Circuits.Tanh_osc.oscillator ts.params in
  show
    (Experiments.Baseline_cmp.output
       (Experiments.Baseline_cmp.sweep ~simulate:(not fast) tanh_osc.nl
          ~tank:tanh_osc.tank ~n:3));
  (* ---- section IV-A: cross-coupled BJT differential pair ---- *)
  let dp = Experiments.Osc_experiments.diff_pair () in
  show (Experiments.Osc_experiments.fig_fv dp);
  show (Experiments.Osc_experiments.fig_natural_prediction dp);
  show (Experiments.Osc_experiments.fig_transient dp);
  let t1, _ = Experiments.Osc_experiments.table_lock_range ~predict_only:fast dp in
  show t1;
  show (Experiments.Osc_experiments.fig_lock_range_curves dp);
  if not fast then show (Experiments.Osc_experiments.fig_states dp);
  (* ---- section IV-B: tunnel diode ---- *)
  let td = Experiments.Osc_experiments.tunnel () in
  show (Experiments.Osc_experiments.fig_fv td);
  show (Experiments.Osc_experiments.fig_natural_prediction td);
  show (Experiments.Osc_experiments.fig_transient td);
  let t2, _ = Experiments.Osc_experiments.table_lock_range ~predict_only:fast td in
  show t2;
  show (Experiments.Osc_experiments.fig_lock_range_curves td);
  if not fast then show (Experiments.Osc_experiments.fig_states td);
  (* ---- ablation A2: asymmetric cell, filtering assumption ---- *)
  show (Experiments.Asym_ablation.run ~simulate:(not fast) ());
  (* ---- ablation A3: FHIL vs Adler ---- *)
  show (Experiments.Fhil_experiment.run ());
  (* ---- extension X3: Arnold tongue ---- *)
  show (Experiments.Tongue_experiment.run ());
  (* ---- extension X2: injection pulling outside the band ---- *)
  show (Experiments.Pulling_experiment.run ~simulate:(not fast) ());
  (* ---- extension X1: CMOS cross-coupled VCO ---- *)
  show (Experiments.Cmos_experiment.run ~validate:(not fast) ());
  (* ---- speedup (section IV: 25x and 50x) ---- *)
  if not fast then begin
    let s_dp = Experiments.Speedup.run dp in
    show (Experiments.Speedup.output s_dp ~paper_speedup:25.0);
    let s_td = Experiments.Speedup.run td in
    show (Experiments.Speedup.output s_td ~paper_speedup:50.0)
  end

let () =
  let fast = parse_args () in
  Obs.configure_from_env ();
  run_experiments ~fast ();
  print_endline "done."
