(* Experiment harness: regenerates every table and figure of the paper's
   evaluation (printed as rows; figures written as SVG under
   out/figures/), then runs the tracked perf benches (emitting
   BENCH_*.json) and Bechamel timing benches - one Test.make per
   experiment family.

   Flags:
     --fast          skip the transient binary searches (tables print the
                     prediction side plus the paper's reference numbers)
     --skip-bench    skip all benchmarks
     --only-bench    run only the benchmarks
     --skip-slow     small perf-bench problem sizes and no transient
                     micro-benchmarks (the CI smoke configuration)
     --jobs N        worker-pool size for the parallel kernels
                     (overrides OSHIL_JOBS)
     --trace FILE    record telemetry: Chrome trace_event JSON, or the
                     JSONL event log when FILE ends in .jsonl
     --check-json F...  parse previously emitted BENCH_*.json files and
                     exit non-zero if any is malformed *)

type opts = {
  fast : bool;
  skip_bench : bool;
  only_bench : bool;
  skip_slow : bool;
  jobs : int option;
  trace : string option;
  check_json : string list;
  compare : string list;
  fresh_dir : string;
}

let usage_lines =
  [
    "usage: bench/main.exe [OPTIONS]";
    "  --fast             skip the slow transient lock searches";
    "  --skip-bench       run experiments only, no benchmarks";
    "  --only-bench       run benchmarks only, no experiments";
    "  --skip-slow        small bench sizes, no transient micro-benches";
    "  --jobs N           pool size for parallel kernels (>= 1)";
    "  --trace FILE       write a telemetry trace (.jsonl = event log)";
    "  --check-json F...  validate emitted bench JSON files and exit";
    "  --fresh-dir DIR    directory holding fresh records for --compare";
    "                     (default: current directory; give it before";
    "                     --compare)";
    "  --compare F...     regression sentinel: compare each baseline";
    "                     record F against the same-named fresh record";
    "                     in --fresh-dir; exit 1 on any regression";
  ]

let usage_error msg =
  prerr_endline ("bench/main.exe: " ^ msg);
  List.iter prerr_endline usage_lines;
  exit 2

let parse_args () =
  let rec go o = function
    | [] -> o
    | "--fast" :: rest -> go { o with fast = true } rest
    | "--skip-bench" :: rest -> go { o with skip_bench = true } rest
    | "--only-bench" :: rest -> go { o with only_bench = true } rest
    | "--skip-slow" :: rest -> go { o with skip_slow = true } rest
    | "--jobs" :: v :: rest -> begin
      match int_of_string_opt v with
      | Some n when n >= 1 -> go { o with jobs = Some n } rest
      | _ -> usage_error (Printf.sprintf "--jobs expects a positive integer, got %S" v)
    end
    | [ "--jobs" ] -> usage_error "--jobs expects an argument"
    | "--trace" :: v :: rest -> go { o with trace = Some v } rest
    | [ "--trace" ] -> usage_error "--trace expects a file argument"
    | "--check-json" :: rest ->
      if rest = [] then usage_error "--check-json expects at least one file"
      else { o with check_json = rest }
    | "--fresh-dir" :: v :: rest -> go { o with fresh_dir = v } rest
    | [ "--fresh-dir" ] -> usage_error "--fresh-dir expects a directory"
    | "--compare" :: rest ->
      if rest = [] then usage_error "--compare expects at least one baseline"
      else { o with compare = rest }
    | ("--help" | "-h") :: _ ->
      List.iter print_endline usage_lines;
      exit 0
    | arg :: _ -> usage_error (Printf.sprintf "unknown argument %S" arg)
  in
  go
    { fast = false; skip_bench = false; only_bench = false; skip_slow = false;
      jobs = None; trace = None; check_json = []; compare = [];
      fresh_dir = Filename.current_dir_name }
    (List.tl (Array.to_list Sys.argv))

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
  show
    (Experiments.Asym_ablation.run ~simulate:(not fast)
       ~self_consistent:(not fast) ());
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

(* ------------------------------------------------------------------ *)
(* Tracked perf benches: the parallel kernels, timed sequential vs
   pooled and written as machine-readable JSON so the perf trajectory
   is comparable across PRs. *)

let time_best ~repeats f =
  let best = ref infinity and result = ref None in
  for _ = 1 to repeats do
    let t0 = Obs.Clock.wall_s () in
    let r = f () in
    let dt = Obs.Clock.wall_s () -. t0 in
    if dt < !best then best := dt;
    result := Some r
  done;
  (Option.get !result, !best)

(* Run [f] once with telemetry forced on and return the deltas of the
   named counters as bench-JSON extra fields (metric dots become
   underscores). Used outside the timed repeats so the timing numbers
   never include recording overhead. *)
let metered_counters names f =
  let was = Obs.enabled () in
  let before = List.map (fun n -> (n, Obs.Metrics.counter_value n)) names in
  Obs.set_enabled true;
  let finish () =
    Obs.set_enabled was;
    List.map
      (fun (n, v0) ->
        ( String.map (fun c -> if c = '.' then '_' else c) n,
          float_of_int (Obs.Metrics.counter_value n - v0) ))
      before
  in
  match f () with
  | _ -> finish ()
  | exception e ->
    ignore (finish ());
    raise e

(* Allocation footprint of one representative run, measured outside the
   timed repeats (a quick_stat pair brackets the run, so the timing
   numbers never include it). Word counts are per-run deltas of the
   calling domain; the explicit minor collections flush the allocation
   counter, which on OCaml 5.1 only updates at minor-GC boundaries.
   The regression sentinel tracks these with a 25% band. *)
let gc_fields f =
  Gc.minor ();
  let g0 = Gc.quick_stat () in
  ignore (f ());
  Gc.minor ();
  let g1 = Gc.quick_stat () in
  [
    ("gc_minor_words", g1.Gc.minor_words -. g0.Gc.minor_words);
    ("gc_promoted_words", g1.Gc.promoted_words -. g0.Gc.promoted_words);
    ("gc_major_words", g1.Gc.major_words -. g0.Gc.major_words);
    ( "gc_minor_collections",
      float_of_int (g1.Gc.minor_collections - g0.Gc.minor_collections) );
    ( "gc_major_collections",
      float_of_int (g1.Gc.major_collections - g0.Gc.major_collections) );
  ]

let emit_entry ~path (entry : Experiments.Bench_json.entry) =
  Experiments.Bench_json.write ~path entry;
  (* self-check: the file we just wrote must round-trip *)
  let back = Experiments.Bench_json.read ~path in
  assert (back.name = entry.name && back.jobs = entry.jobs);
  Printf.printf "  wrote %s (jobs=%d, wall=%.4fs, speedup_vs_seq=%.2fx)\n%!"
    path entry.jobs entry.wall_s entry.speedup_vs_seq

(* max relative disagreement between two grids, for pinning the
   symmetry-reduced quadrature against the exact one *)
let grid_max_rel_err (a : Shil.Grid.t) (b : Shil.Grid.t) =
  let err = ref 0.0 in
  Array.iteri
    (fun i row ->
      Array.iteri
        (fun j za ->
          let zb = b.Shil.Grid.i1.(i).(j) in
          let d = Numerics.Cx.abs (Numerics.Cx.sub za zb) in
          let scale = Numerics.Cx.abs za +. 1e-18 in
          if d /. scale > !err then err := d /. scale)
        row)
    a.Shil.Grid.i1;
  !err

let run_perf_benches ~skip_slow ~jobs () =
  Printf.printf "=== tracked perf benches (parallel kernels; jobs=%d)\n%!" jobs;
  let tanh_nl = Shil.Nonlinearity.neg_tanh ~g0:2e-3 ~isat:1e-3 in
  let n_phi, n_amp, points, repeats =
    if skip_slow then (31, 21, 256, 2) else (121, 101, 512, 3)
  in
  let sample () =
    Shil.Grid.sample ~points ~n_phi ~n_amp tanh_nl ~n:3 ~r:1e3 ~vi:0.2
      ~a_range:(0.3, 1.45) ()
  in
  let sample_red () =
    Shil.Grid.sample ~reduction:`Symmetry ~points ~n_phi ~n_amp tanh_nl ~n:3
      ~r:1e3 ~vi:0.2 ~a_range:(0.3, 1.45) ()
  in
  (* warm the trig-table cache so no timed side pays table construction *)
  ignore (sample ());
  (* three tiers, slowest to fastest: the scalar closure fallback (the
     pre-batch-kernel code path), the bit-identical batch kernels, and
     the opt-in symmetry-reduced quadrature (tracked wall_s) *)
  Numerics.Kernel.set_batch_enabled false;
  let g_scalar, scalar_s = time_best ~repeats sample in
  Numerics.Kernel.set_batch_enabled true;
  let g_batch, batch_s = time_best ~repeats sample in
  let batch_identical = g_scalar.Shil.Grid.i1 = g_batch.Shil.Grid.i1 in
  if not batch_identical then
    failwith "perf bench: batch Grid.sample differs from the scalar fallback";
  ignore (sample_red ());
  Numerics.Pool.set_jobs 1;
  let g_seq, seq_s = time_best ~repeats sample_red in
  Numerics.Pool.set_jobs jobs;
  let g_par, par_s = time_best ~repeats sample_red in
  let identical = g_seq.Shil.Grid.i1 = g_par.Shil.Grid.i1 in
  if not identical then
    failwith "perf bench: parallel Grid.sample differs from sequential";
  let red_err = grid_max_rel_err g_batch g_par in
  if not (red_err < 1e-6) then
    failwith "perf bench: symmetry-reduced grid drifted from the exact grid";
  let grid_counters = metered_counters [ "shil.grid.f_evals" ] sample_red in
  let grid_gc = gc_fields sample_red in
  emit_entry ~path:"BENCH_grid.json"
    {
      name = Printf.sprintf "grid_sample_%dx%dx%d" n_phi n_amp points;
      jobs;
      wall_s = par_s;
      speedup_vs_seq = seq_s /. par_s;
      extra =
        [
          ("seq_wall_s", seq_s);
          ("n_phi", float_of_int n_phi);
          ("n_amp", float_of_int n_amp);
          ("points", float_of_int points);
          ("bit_identical_to_seq", if identical then 1.0 else 0.0);
          ("scalar_wall_s", scalar_s);
          ("batch_wall_s", batch_s);
          ("batch_bit_identical_to_scalar", if batch_identical then 1.0 else 0.0);
          ("speedup_batch_vs_scalar", scalar_s /. batch_s);
          ("speedup_vs_scalar", scalar_s /. par_s);
          ("reduced_max_rel_err", red_err);
          ("vec_tanh", if Numerics.Kernel.vec_tanh_available () then 1.0 else 0.0);
        ]
        @ grid_counters @ grid_gc;
      meta = Experiments.Bench_json.host_meta ();
    };
  (* lock-range boundary search: Solutions.find stability scans dominate;
     the quadratures inherit the grid's reduction mode *)
  let lr_grid_exact =
    if skip_slow then g_batch
    else
      Shil.Grid.sample ~points:256 ~n_phi:61 ~n_amp:51 tanh_nl ~n:3 ~r:1e3
        ~vi:0.2 ~a_range:(0.3, 1.45) ()
  in
  let lr_grid_red =
    if skip_slow then g_par
    else
      Shil.Grid.sample ~reduction:`Symmetry ~points:256 ~n_phi:61 ~n_amp:51
        tanh_nl ~n:3 ~r:1e3 ~vi:0.2 ~a_range:(0.3, 1.45) ()
  in
  let boundary g () = Shil.Lock_range.phi_d_boundary ~tol:1e-3 g in
  ignore (boundary lr_grid_exact ());
  Numerics.Kernel.set_batch_enabled false;
  let b_scalar, scalar_s = time_best ~repeats (boundary lr_grid_exact) in
  Numerics.Kernel.set_batch_enabled true;
  let b_batch, batch_s = time_best ~repeats (boundary lr_grid_exact) in
  if b_scalar <> b_batch then
    failwith "perf bench: batch phi_d_boundary differs from the scalar fallback";
  ignore (boundary lr_grid_red ());
  Numerics.Pool.set_jobs 1;
  let b_seq, seq_s = time_best ~repeats (boundary lr_grid_red) in
  Numerics.Pool.set_jobs jobs;
  let b_par, par_s = time_best ~repeats (boundary lr_grid_red) in
  if b_seq <> b_par then
    failwith "perf bench: parallel phi_d_boundary differs from sequential";
  if Float.abs (b_par -. b_batch) > 0.02 then
    failwith "perf bench: reduced-mode lock boundary drifted from exact";
  emit_entry ~path:"BENCH_lockrange.json"
    {
      name = "lock_range_phi_d_boundary";
      jobs;
      wall_s = par_s;
      speedup_vs_seq = seq_s /. par_s;
      extra =
        [
          ("seq_wall_s", seq_s);
          ("phi_d_max", b_par);
          ("tol", 1e-3);
          ("scalar_wall_s", scalar_s);
          ("batch_wall_s", batch_s);
          ("exact_phi_d_max", b_batch);
          ("speedup_batch_vs_scalar", scalar_s /. batch_s);
          ("speedup_vs_scalar", scalar_s /. par_s);
        ]
        @ gc_fields (boundary lr_grid_red);
      meta = Experiments.Bench_json.host_meta ();
    };
  (* spice transient on the behavioural tanh oscillator: sequential (the
     MNA inner loops don't use the pool), tracked for the solver-counter
     trajectory as much as for wall time *)
  let tanh_params = Circuits.Tanh_osc.default in
  let tanh_circuit = Circuits.Tanh_osc.circuit tanh_params in
  let fc = Shil.Tank.f_c (Circuits.Tanh_osc.tank tanh_params) in
  let cycles = if skip_slow then 5 else 20 in
  let dt = 1.0 /. (fc *. 120.0) in
  let t_stop = float_of_int cycles /. fc in
  let tran () =
    Spice.Transient.run tanh_circuit
      ~probes:[ Spice.Transient.Node "t" ]
      (Spice.Transient.default_options ~dt ~t_stop)
  in
  ignore (tran ());
  let tran_counters =
    metered_counters
      [
        "spice.newton.iters"; "spice.newton.solves";
        "spice.transient.steps_accepted";
      ]
      tran
  in
  let _, tran_s = time_best ~repeats tran in
  emit_entry ~path:"BENCH_transient.json"
    {
      name = Printf.sprintf "transient_tanh_%dcyc" cycles;
      jobs;
      wall_s = tran_s;
      speedup_vs_seq = 1.0;
      extra = [ ("dt", dt); ("t_stop", t_stop) ] @ tran_counters
              @ gc_fields tran;
      meta = Experiments.Bench_json.host_meta ();
    };
  (* harmonic balance vs transient SHIL verification: the full HB
     injected-tone lock range (free-running oscprobe, outward march,
     edge bisection) against the cost of verifying the same band with
     transient lock probes. Each HB probe is a warm Newton solve on the
     spectral residual; each transient probe must integrate hundreds of
     tank cycles before the lock detector is trustworthy, so the
     paper's headline speedup shows up here as wall clock. The
     transient-equivalent cost is one measured probe times the number
     of probes the HB search actually spent, with the probe integrated
     over the settling length the differential oracle requires for a
     trustworthy lock verdict (260 cycles at 80 steps/cycle) — a
     conservative costing, since probes near a bisected edge would
     need far longer to resolve the beat. K = 3 is the production
     lock-range truncation: the band edges match the K = 7 ones to
     under 5e-4 relative on this cell (the accuracy tests pin higher
     truncations separately). *)
  let tanh_p = Circuits.Tanh_osc.default in
  let osc = Circuits.Tanh_osc.oscillator tanh_p in
  let tank = Circuits.Tanh_osc.tank tanh_p in
  let n_sub = 3 and vi = 0.03 in
  let hb_k, hb_samples = (3, 128) in
  let a_guess =
    match
      Shil.Natural.predicted_amplitude ~points osc.Shil.Analysis.nl
        ~r:tank.Shil.Tank.r
    with
    | Some a -> a
    | None -> failwith "perf bench: tanh cell must oscillate"
  in
  let guess_width =
    (Shil.Analysis.run osc ~n:n_sub ~vi).Shil.Analysis.lock_range
      .Shil.Lock_range.delta_f_inj
  in
  let inject ~f_inj =
    Api.hb_circuit
      ~injection:(Api.hb_injection_wave ~tank ~n:n_sub ~vi ~f_inj)
      osc
  in
  let hb () =
    let free =
      Hb.Driver.oscprobe ~k_max:hb_k ~samples:hb_samples
        ~f_guess:(Shil.Tank.f_c tank) ~a_guess (Api.hb_circuit osc)
    in
    Hb.Driver.lock_range ~free ~n:n_sub ~guess_width ~inject ()
  in
  let band = hb () in
  if band.Hb.Driver.holes <> 0 then
    failwith "perf bench: HB lock range has probe holes";
  let band_rerun, hb_s = time_best ~repeats hb in
  if band_rerun <> band then
    failwith "perf bench: HB lock range is not deterministic";
  let hb_counters =
    metered_counters
      [ "hb.newton_iters"; "hb.solves"; "hb.lockrange.probes" ]
      hb
  in
  let hb_gc = gc_fields hb in
  let tr_cycles, steps_per_cycle = (260.0, 80) in
  let fc = Shil.Tank.f_c tank in
  let f_center = band.Hb.Driver.f_center in
  let im =
    Shil.Simulate.injection_current ~tank
      { Shil.Simulate.vi; n = n_sub; f_inj = f_center; phase = 0.0 }
  in
  let inj_wave =
    Spice.Wave.Sine
      { offset = 0.0; ampl = im; freq = f_center; phase = 0.0; delay = 0.0 }
  in
  let inj_circuit = Circuits.Tanh_osc.circuit ~injection:inj_wave tanh_p in
  let tr_probe = Spice.Transient.Node "t" in
  let tran_probe () =
    let res =
      Spice.Transient.run inj_circuit ~probes:[ tr_probe ]
        (Spice.Transient.default_options
           ~dt:(1.0 /. (float_of_int steps_per_cycle *. fc))
           ~t_stop:(tr_cycles /. fc))
    in
    (match res.Spice.Transient.failure with
    | Some e -> failwith (Resilience.Oshil_error.to_string e)
    | None -> ());
    let s =
      Waveform.Signal.make ~times:res.Spice.Transient.times
        ~values:(Spice.Transient.signal res tr_probe)
    in
    (Waveform.Lock.analyze s ~f_target:(f_center /. float_of_int n_sub))
      .Waveform.Lock.locked
  in
  ignore (tran_probe ());
  let center_locked, tran_probe_s = time_best ~repeats tran_probe in
  if not center_locked then
    failwith "perf bench: transient probe at the HB band center did not lock";
  let tran_equiv_s = tran_probe_s *. float_of_int band.Hb.Driver.probes in
  emit_entry ~path:"BENCH_hb.json"
    {
      name = Printf.sprintf "hb_lockrange_n%d_k%d" n_sub hb_k;
      jobs;
      wall_s = hb_s;
      speedup_vs_seq = tran_equiv_s /. hb_s;
      extra =
        [
          ("tran_probe_wall_s", tran_probe_s);
          ("tran_equiv_wall_s", tran_equiv_s);
          ("speedup_vs_transient", tran_equiv_s /. hb_s);
          ("band_probes", float_of_int band.Hb.Driver.probes);
          ("band_holes", float_of_int band.Hb.Driver.holes);
          ("band_width_hz", band.Hb.Driver.f_hi -. band.Hb.Driver.f_lo);
          ("k_max", float_of_int hb_k);
          ("hb_samples", float_of_int hb_samples);
          ("n_sub", float_of_int n_sub);
          ("vi", vi);
          ("tran_cycles", tr_cycles);
        ]
        @ hb_counters @ hb_gc;
      meta = Experiments.Bench_json.host_meta ();
    };
  (* content-addressed cache: one cold populate of the grid against warm
     replays from the store. The cold run pays the full quadrature plus
     encode/disk-write; the warm runs are pure lookups, read from the
     disk tier because grid tiles skip the memory tier. The cache is
     scoped to a throwaway directory and switched off again afterwards
     so no other bench sees it. *)
  let cache_dir = Filename.temp_dir "oshil-bench-cache" "" in
  Cache.Store.set_dir cache_dir;
  Cache.Store.clear_memory ();
  Cache.Store.set_enabled true;
  let t0 = Obs.Clock.wall_s () in
  let g_cold = sample () in
  let cold_s = Obs.Clock.wall_s () -. t0 in
  let g_warm, warm_s = time_best ~repeats sample in
  let identical = g_cold.Shil.Grid.i1 = g_warm.Shil.Grid.i1 in
  if not identical then
    failwith "perf bench: cached Grid.sample differs from cold computation";
  let cache_counters =
    metered_counters [ "cache.hits"; "cache.misses" ] sample
  in
  let cache_gc = gc_fields sample in
  Cache.Store.set_enabled false;
  Cache.Store.clear_memory ();
  let rec rm_rf path =
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  (try rm_rf cache_dir with Sys_error _ -> ());
  emit_entry ~path:"BENCH_cache.json"
    {
      name = Printf.sprintf "grid_sample_cached_%dx%dx%d" n_phi n_amp points;
      jobs;
      wall_s = warm_s;
      speedup_vs_seq = cold_s /. warm_s;
      extra =
        [
          ("cold_wall_s", cold_s);
          ("bit_identical_to_cold", if identical then 1.0 else 0.0);
        ]
        @ cache_counters @ cache_gc;
      meta = Experiments.Bench_json.host_meta ();
    }

(* Bechamel's full analysis pipeline is heavyweight; we use its sampler
   and report the OLS time-per-run estimate per test. *)
let run_benchmarks ~skip_slow () =
  let open Bechamel in
  print_endline "=== Bechamel micro-benchmarks (one per experiment family)";
  let tanh_nl = Shil.Nonlinearity.neg_tanh ~g0:2e-3 ~isat:1e-3 in
  let tanh_tank =
    let wc = 2.0 *. Float.pi *. 1e6 in
    Shil.Tank.make ~r:1e3 ~l:(100.0 /. wc) ~c:(1.0 /. (100.0 *. wc))
  in
  ignore tanh_tank;
  let grid =
    Shil.Grid.sample ~points:256 ~n_phi:61 ~n_amp:51 tanh_nl ~n:3 ~r:1e3
      ~vi:0.2 ~a_range:(0.3, 1.45) ()
  in
  let dp_params = Circuits.Diff_pair.default in
  let dp_circuit = Circuits.Diff_pair.circuit dp_params in
  let dp_fc = Shil.Tank.f_c (Circuits.Diff_pair.tank dp_params) in
  let td_params = Circuits.Tunnel_osc.default in
  let td_circuit = Circuits.Tunnel_osc.circuit td_params in
  let td_fc = Shil.Tank.f_c (Circuits.Tunnel_osc.tank td_params) in
  let synth_signal =
    let times = Array.init 20000 (fun k -> float_of_int k /. 2e6) in
    let values = Array.map (fun t -> cos (2.0 *. Float.pi *. 5.033e5 *. t)) times in
    Waveform.Signal.make ~times ~values
  in
  let fast_tests =
    [
      Test.make ~name:"fig3_natural_solve"
        (Staged.stage (fun () ->
             ignore (Shil.Natural.solve ~points:512 tanh_nl ~r:1e3)));
      Test.make ~name:"fig6_tank_sweep_500pts"
        (Staged.stage (fun () ->
             let acc = ref 0.0 in
             for k = 0 to 499 do
               let f = 0.5e6 +. (2e3 *. float_of_int k) in
               acc := !acc +. Shil.Tank.mag tanh_tank ~omega:(2.0 *. Float.pi *. f)
             done;
             ignore !acc));
      Test.make ~name:"fig7_two_tone_i1"
        (Staged.stage (fun () ->
             ignore
               (Shil.Describing_function.i1_two_tone ~points:512 tanh_nl ~n:3
                  ~a:1.0 ~vi:0.2 ~phi:1.0)));
      Test.make ~name:"fig7_lock_solutions"
        (Staged.stage (fun () -> ignore (Shil.Solutions.find grid ~phi_d:0.05)));
      Test.make ~name:"fig9_n_states"
        (Staged.stage (fun () ->
             let p =
               { Shil.Solutions.phi = 1.0; a = 1.0; stable = true;
                 trace = -1.0; det = 1.0 }
             in
             ignore (Shil.Solutions.n_states p ~n:3)));
      Test.make ~name:"fig10_contours"
        (Staged.stage (fun () -> ignore (Shil.Grid.t_f_curve grid)));
      Test.make ~name:"fig10_phi_d_boundary"
        (Staged.stage (fun () ->
             ignore (Shil.Lock_range.phi_d_boundary ~tol:1e-3 grid)));
    ]
  in
  let slow_tests =
    [
      Test.make ~name:"fig12a_diffpair_op"
        (Staged.stage (fun () -> ignore (Spice.Op.run dp_circuit)));
      Test.make ~name:"fig13_diffpair_tran_10cyc"
        (Staged.stage (fun () ->
             let dt = 1.0 /. (dp_fc *. 120.0) in
             ignore
               (Spice.Transient.run dp_circuit
                  ~probes:[ Circuits.Diff_pair.osc_probe ]
                  (Spice.Transient.default_options ~dt ~t_stop:(10.0 /. dp_fc)))));
      Test.make ~name:"fig13_diffpair_tran_adaptive"
        (Staged.stage (fun () ->
             let dt = 1.0 /. (dp_fc *. 120.0) in
             ignore
               (Spice.Transient.run dp_circuit
                  ~probes:[ Circuits.Diff_pair.osc_probe ]
                  (Spice.Transient.adaptive ~lte_tol:1e-4
                     (Spice.Transient.default_options ~dt
                        ~t_stop:(10.0 /. dp_fc))))));
      Test.make ~name:"fig16b_tunnel_op"
        (Staged.stage (fun () -> ignore (Spice.Op.run td_circuit)));
      Test.make ~name:"fig17_tunnel_tran_10cyc"
        (Staged.stage (fun () ->
             let dt = 1.0 /. (td_fc *. 120.0) in
             ignore
               (Spice.Transient.run td_circuit
                  ~probes:[ Circuits.Tunnel_osc.osc_probe ]
                  (Spice.Transient.default_options ~dt ~t_stop:(10.0 /. td_fc)))));
      Test.make ~name:"fig15_lock_detection"
        (Staged.stage (fun () ->
             ignore (Waveform.Lock.analyze synth_signal ~f_target:5.033e5)));
    ]
  in
  let tests =
    Test.make_grouped ~name:"oshil"
      (if skip_slow then fast_tests else fast_tests @ slow_tests)
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let quota = if skip_slow then Time.second 0.1 else Time.second 0.5 in
  let cfg = Benchmark.cfg ~limit:2000 ~quota () in
  let raw_results = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw_results in
  let names = Hashtbl.fold (fun k _ acc -> k :: acc) results [] in
  List.iter
    (fun name ->
      match Hashtbl.find_opt results name with
      | Some r -> begin
        match Bechamel.Analyze.OLS.estimates r with
        | Some [ est ] ->
          Printf.printf "  %-32s %14.1f ns/run\n" name est
        | _ -> Printf.printf "  %-32s (no estimate)\n" name
      end
      | None -> ())
    (List.sort compare names)

(* Regression sentinel entry point: each baseline record is compared to
   the same-named record in [fresh_dir]. Exit 1 on any gated finding or
   unreadable record. *)
let run_compare ~fresh_dir baselines =
  Printf.printf "=== bench regression sentinel (fresh records from %s)\n%!"
    fresh_dir;
  let io_ok = ref true in
  let read_record path =
    match Experiments.Bench_json.read ~path with
    | e -> Some e
    | exception Experiments.Bench_json.Parse_error msg ->
      Printf.eprintf "%s: PARSE ERROR: %s\n" path msg;
      io_ok := false;
      None
    | exception Sys_error msg ->
      Printf.eprintf "%s: %s\n" path msg;
      io_ok := false;
      None
  in
  let findings =
    List.concat_map
      (fun bpath ->
        let fpath = Filename.concat fresh_dir (Filename.basename bpath) in
        match read_record bpath with
        | None -> []
        | Some baseline -> begin
          match read_record fpath with
          | None -> []
          | Some fresh ->
            if baseline.Experiments.Bench_json.name <> fresh.name then
              Printf.printf
                "  note: %s: baseline bench %S vs fresh %S (problem size \
                 changed; comparing anyway)\n"
                (Filename.basename bpath)
                baseline.Experiments.Bench_json.name fresh.name;
            Experiments.Bench_compare.compare_entries ~baseline ~fresh
        end)
      baselines
  in
  Format.printf "%a@." Experiments.Bench_compare.pp findings;
  if not (Experiments.Bench_compare.gate findings && !io_ok) then exit 1

let check_json files =
  let ok = ref true in
  List.iter
    (fun path ->
      match Experiments.Bench_json.read ~path with
      | e ->
        Printf.printf "%s: ok (name=%s jobs=%d wall_s=%g speedup_vs_seq=%g)\n"
          path e.Experiments.Bench_json.name e.jobs e.wall_s e.speedup_vs_seq
      | exception Experiments.Bench_json.Parse_error msg ->
        Printf.eprintf "%s: PARSE ERROR: %s\n" path msg;
        ok := false
      | exception Sys_error msg ->
        if not (Sys.file_exists path) then
          Printf.eprintf
            "%s: MISSING BASELINE: the tracked bench record does not \
             exist. Generate it with `dune exec bench/main.exe -- \
             --only-bench --skip-slow` and commit the file.\n"
            path
        else Printf.eprintf "%s: %s\n" path msg;
        ok := false)
    files;
  if not !ok then exit 1

let () =
  let o = parse_args () in
  if o.check_json <> [] then check_json o.check_json
  else if o.compare <> [] then run_compare ~fresh_dir:o.fresh_dir o.compare
  else begin
    Obs.configure_from_env ();
    Option.iter Obs.trace_to_file o.trace;
    Option.iter Numerics.Pool.set_jobs o.jobs;
    let jobs =
      match o.jobs with Some n -> n | None -> Numerics.Pool.default_size ()
    in
    if not o.only_bench then run_experiments ~fast:o.fast ();
    if not o.skip_bench then begin
      run_perf_benches ~skip_slow:o.skip_slow ~jobs ();
      run_benchmarks ~skip_slow:o.skip_slow ()
    end;
    print_endline "done."
  end
