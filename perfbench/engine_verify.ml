(* engine-verify: the paper's own comparison, measured. One in-process
   caller runs one unit per scenario: the DF band (Api.shil_run), the
   HB band (Api.hb_run, lock-range mode), then four transient lock
   probes on the device netlist (Spice.Transient) judged by
   Waveform.Lock — two inside the DF band, two outside it. Loads
   Spice.Transient/Newton and Hb.Solve/Driver; DF is a small share;
   the cache is off and no Serve code runs. *)

type scenario = {
  label : string;
  osc : string;
  n : int;
  vi : float;
  cycles : float;  (** probe length in oscillator periods *)
  spc : int;  (** time steps per oscillator period *)
}

(* The three-way oracle's tanh cells and the paper's section IV-A
   diff-pair. Probe lengths let the narrowest band (n = 5) settle, and
   the step counts keep the trapezoidal frequency warp well inside
   the probes' distance from the band edges. The tunnel diode
   (Q = 317, ~1500 settling periods per probe) is left out: one unit
   would take minutes. *)
let scenarios =
  [|
    { label = "tanh-n3-vi0.03"; osc = "tanh"; n = 3; vi = 0.03; cycles = 600.0; spc = 160 };
    { label = "tanh-n3-vi0.08"; osc = "tanh"; n = 3; vi = 0.08; cycles = 300.0; spc = 160 };
    { label = "tanh-n5-vi0.02"; osc = "tanh"; n = 5; vi = 0.02; cycles = 800.0; spc = 240 };
    { label = "diffpair-n3-vi0.03"; osc = "diffpair"; n = 3; vi = 0.03; cycles = 300.0; spc = 120 };
  |]

let labels = Array.to_list (Array.map (fun s -> s.label) scenarios)

(* HB needs a harmonic for every source: K = 3 unless the injected
   tone sits higher. *)
let k_max s = max 3 s.n
let hb_samples = 128

let netlist s (osc : Shil.Analysis.oscillator) ~f_inj =
  match s.osc with
  | "tanh" ->
    let im =
      Shil.Simulate.injection_current ~tank:osc.tank
        { vi = s.vi; n = s.n; f_inj; phase = 0.0 }
    in
    ( Circuits.Tanh_osc.circuit
        ~injection:(Sine { offset = 0.0; ampl = im; freq = f_inj; phase = 0.0; delay = 0.0 })
        Circuits.Tanh_osc.default,
      Spice.Transient.Node "t" )
  | _ ->
    ( Circuits.Diff_pair.circuit
        ~injection:{ vi = s.vi; n = s.n; f_inj; phase = 0.0 }
        Circuits.Diff_pair.default,
      Circuits.Diff_pair.osc_probe )

type probe = { f_inj : float; expect_lock : bool }

(* Seeded probe inputs: a point 35-45% of the DF band inside each edge,
   one 60-80% of the band outside each edge. The injection starts at
   phase 0 with the oscillator: a start near the separatrix between
   the n lock states can take far longer to settle than a probe
   runs. *)
let probes rng (lr : Shil.Lock_range.t) =
  let d = lr.delta_f_inj in
  let inside () = Util.uniform rng 0.35 0.45 *. d in
  let outside () = Util.uniform rng 0.6 0.8 *. d in
  let lo_in = lr.f_inj_low +. inside () in
  let hi_in = lr.f_inj_high -. inside () in
  let lo_out = lr.f_inj_low -. outside () in
  let hi_out = lr.f_inj_high +. outside () in
  List.map
    (fun (f_inj, expect_lock) -> { f_inj; expect_lock })
    [ (lo_in, true); (hi_in, true); (lo_out, false); (hi_out, false) ]

type unit_times = { df_ms : float; hb_ms : float; tran_ms : float }

let timed name f =
  let r, t = Util.time (fun () -> Run.span name f) in
  (r, t *. 1e3)

(* One unit; returns its step times and whether every check held. *)
let run_unit rng s =
  let (osc, report), df_ms =
    timed "bench.api.shil_run" (fun () ->
        let osc = Api.resolve_oscillator (Builtin s.osc) in
        (osc, Api.shil_run ~osc ~n:s.n ~vi:s.vi ~reduced:false))
  in
  let lr = report.Shil.Analysis.lock_range in
  let hb, hb_ms =
    timed "bench.api.hb_run" (fun () ->
        Api.hb_run ~osc ~n:s.n ~vi:s.vi ~k_max:(k_max s) ~samples:hb_samples
          ~mode:Hb_lockrange)
  in
  let close a b = Float.abs (a -. b) <= 0.01 *. Float.abs b in
  let hb_ok =
    match hb.hb_mode with
    | Hb_band { band; _ } ->
      band.holes = 0
      && close band.f_lo lr.f_inj_low
      && close band.f_hi lr.f_inj_high
      && close (band.f_hi -. band.f_lo) lr.delta_f_inj
    | Hb_free_only | Hb_locked _ -> false
  in
  let tran_ms = ref 0.0 in
  let verdicts_ok =
    List.for_all
      (fun p ->
        let circuit, probe = netlist s osc ~f_inj:p.f_inj in
        let f_osc = p.f_inj /. float_of_int s.n in
        let dt = 1.0 /. (float_of_int s.spc *. f_osc) in
        let opts = Spice.Transient.default_options ~dt ~t_stop:(s.cycles /. f_osc) in
        let res, t_run =
          timed "bench.spice.transient.run" (fun () ->
              Spice.Transient.run circuit ~probes:[ probe ] opts)
        in
        let verdict, t_lock =
          timed "bench.waveform.lock.analyze" (fun () ->
              let sg =
                Waveform.Signal.make ~times:res.times
                  ~values:(Spice.Transient.signal res probe)
              in
              let sg = Waveform.Signal.shift_values sg (-.Waveform.Signal.mean sg) in
              Waveform.Lock.analyze sg ~f_target:f_osc)
        in
        tran_ms := !tran_ms +. t_run +. t_lock;
        res.failure = None && verdict.locked = p.expect_lock)
      (probes rng lr)
  in
  ({ df_ms; hb_ms; tran_ms = !tran_ms }, hb_ok && verdicts_ok)

(* A round runs every scenario once, in a seeded order. *)
let run_phase ~seed ~seconds ~trace =
  let rng = Random.State.make [| seed |] in
  let lat = ref [] and units = ref 0 and failed = ref 0 and per = ref [] in
  let rounds = ref 0 in
  let t_start = Util.now () in
  while Run.another_round ~seconds ~t_start ~rounds:!rounds do
    Array.iter
      (fun s ->
        let outcome, dt =
          Util.time (fun () ->
              match run_unit rng s with r -> Some r | exception _ -> None)
        in
        Option.iter Trace.take trace;
        incr units;
        lat := (dt *. 1e3) :: !lat;
        match outcome with
        | Some (times, ok) ->
          per := (s.label, times) :: !per;
          if not ok then incr failed
        | None -> incr failed)
      (Util.shuffle rng scenarios);
    incr rounds
  done;
  {
    Run.lat = List.rev !lat;
    units = !units;
    rounds = !rounds;
    failed = !failed;
    mismatches = !failed;
    elapsed = Util.now () -. t_start;
    data = !per;
  }

let medians per =
  List.map
    (fun label ->
      let ts = List.filter_map (fun (l, t) -> if l = label then Some t else None) per in
      let m f = Util.median (List.map f ts) in
      (label, (m (fun t -> t.df_ms), m (fun t -> t.hb_ms), m (fun t -> t.tran_ms))))
    labels

let run ~seconds ~seed ~traced =
  Cache.Store.set_enabled false;
  let setup_s, extract_ms, () =
    Run.repeat_setup ~setup:(fun () -> ((), Run.warm_up ())) ~teardown:ignore
  in
  Run.measure ~seconds ~traced ~setup_s ~extract_ms
    ~run_phase:(run_phase ~seed)
    ~extra:(fun _ p x -> { x with verify = medians p.data })
    ~notes:
      [
        "verify.* base: per scenario, the median over its traced units of \
         one Api.shil_run with the cell's resolve (df_ms), one Api.hb_run \
         lock range, which runs its own DF guess (hb_ms), and four \
         transient probes with their Waveform.Lock verdicts (tran_ms); \
         tran_over_df = tran_ms / df_ms, tran_over_hb = tran_ms / hb_ms";
      ]
