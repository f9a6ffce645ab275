let run ~fast yield =
  let simulate = not fast in
  (* ---- section II-III illustrations (tanh oscillator) ---- *)
  let ts = Tanh_experiments.default_setup in
  yield (Tanh_experiments.fig3_natural ts);
  yield (Tanh_experiments.fig6_tank ts);
  yield (Tanh_experiments.fig7_solutions ts);
  yield (Tanh_experiments.fig9_states ts);
  yield (Tanh_experiments.fig10_lock_range ~validate:simulate ts);
  (* ---- ablation A1: rigorous vs PPV baseline (paper SI comparison) ---- *)
  yield (Baseline_cmp.run ~simulate);
  (* ---- section IV-A: cross-coupled BJT differential pair ---- *)
  let dp = Osc_experiments.diff_pair in
  yield (Osc_experiments.fig_fv dp);
  yield (Osc_experiments.fig_natural_prediction dp);
  yield (Osc_experiments.fig_transient dp);
  yield (Osc_experiments.table_lock_range ~predict_only:fast dp);
  yield (Osc_experiments.fig_lock_range_curves dp);
  if simulate then yield (Osc_experiments.fig_states dp);
  (* ---- section IV-B: tunnel diode ---- *)
  let td = Osc_experiments.tunnel in
  yield (Osc_experiments.fig_fv td);
  yield (Osc_experiments.fig_natural_prediction td);
  yield (Osc_experiments.fig_transient td);
  yield (Osc_experiments.table_lock_range ~predict_only:fast td);
  yield (Osc_experiments.fig_lock_range_curves td);
  if simulate then yield (Osc_experiments.fig_states td);
  (* ---- ablation A2: asymmetric cell, filtering assumption ---- *)
  yield (Asym_ablation.run ~simulate);
  (* ---- ablation A3: FHIL vs Adler ---- *)
  yield (Fhil_experiment.run ());
  (* ---- extension X3: Arnold tongue ---- *)
  yield (Tongue_experiment.run ());
  (* ---- extension X2: injection pulling outside the band ---- *)
  yield (Pulling_experiment.run ~simulate);
  (* ---- extension X1: CMOS cross-coupled VCO ---- *)
  yield (Cmos_experiment.run ~validate:simulate);
  (* ---- speedup (section IV: 25x and 50x) ---- *)
  if simulate then begin
    yield (Speedup.output (Speedup.run dp) ~paper_speedup:25.0);
    yield (Speedup.output (Speedup.run td) ~paper_speedup:50.0)
  end
