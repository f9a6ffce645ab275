(* Tests for the waveform measurement library. *)

let check_float ?(eps = 1e-9) msg expected got =
  Alcotest.(check (float eps)) msg expected got

let qtest ?(count = 100) name gen prop = Qseed.qtest ~count name gen prop

let sine ?(n = 4000) ?(t1 = 1.0) ?(freq = 10.0) ?(ampl = 1.0) ?(phase = 0.0)
    ?(offset = 0.0) () =
  let times = Array.init n (fun k -> t1 *. float_of_int k /. float_of_int (n - 1)) in
  let values =
    Array.map (fun t -> offset +. (ampl *. cos ((2.0 *. Float.pi *. freq *. t) +. phase))) times
  in
  Waveform.Signal.make ~times ~values

(* Signal *)

let test_signal_validation () =
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Signal.make: length mismatch") (fun () ->
      ignore (Waveform.Signal.make ~times:[| 0.0; 1.0 |] ~values:[| 1.0 |]));
  Alcotest.check_raises "non-monotone"
    (Invalid_argument "Signal.make: times must be strictly increasing") (fun () ->
      ignore (Waveform.Signal.make ~times:[| 0.0; 0.0 |] ~values:[| 1.0; 2.0 |]))

let test_signal_slice () =
  let s = sine () in
  let w = Waveform.Signal.slice s ~t_min:0.25 ~t_max:0.75 in
  Alcotest.(check bool) "bounds" true
    (w.times.(0) >= 0.25 && w.times.(Waveform.Signal.length w - 1) <= 0.75);
  check_float ~eps:1e-3 "duration" 0.5 (Waveform.Signal.duration w);
  List.iter
    (fun (t_min, t_max) ->
      Alcotest.check_raises "NaN bound keeps nothing"
        (Invalid_argument "Signal.slice: empty window") (fun () ->
          ignore (Waveform.Signal.slice s ~t_min ~t_max)))
    [ (Float.nan, 0.75); (0.25, Float.nan) ]

(* the linear scan slice ran before it bisected the increasing times,
   kept longhand; [None] for an empty window *)
let slice_longhand (s : Waveform.Signal.t) ~t_min ~t_max =
  let keep = ref [] in
  for i = Array.length s.times - 1 downto 0 do
    if s.times.(i) >= t_min && s.times.(i) <= t_max then keep := i :: !keep
  done;
  match Array.of_list !keep with
  | [||] -> None
  | idx -> Some (Array.map (fun i -> s.times.(i)) idx, Array.map (fun i -> s.values.(i)) idx)

(* random irregular times and windows, a bound sometimes on a sample
   time, sometimes reversed or outside the signal *)
let prop_slice_matches_scan =
  qtest ~count:300 "signal: slice equals the linear scan"
    QCheck.(
      triple
        (list_of_size Gen.(1 -- 200) (float_range 1e-3 1.0))
        (pair (float_range (-1.0) 101.0) (float_range (-1.0) 101.0))
        (pair bool bool))
    (fun (steps, (a, b), (snap_a, snap_b)) ->
      let times = Array.of_list steps in
      for i = 1 to Array.length times - 1 do
        times.(i) <- times.(i - 1) +. times.(i)
      done;
      let n = Array.length times in
      let s =
        Waveform.Signal.make ~times ~values:(Array.mapi (fun i t -> float_of_int i -. t) times)
      in
      let bound snap v = if snap then times.(int_of_float (Float.abs v) mod n) else v in
      let t_min = bound snap_a a and t_max = bound snap_b b in
      let sliced =
        match Waveform.Signal.slice s ~t_min ~t_max with
        | w -> Some (w.times, w.values)
        | exception Invalid_argument _ -> None
      in
      sliced = slice_longhand s ~t_min ~t_max)

let test_signal_value_at () =
  let s =
    Waveform.Signal.make ~times:[| 0.0; 1.0; 2.0 |] ~values:[| 0.0; 2.0; 0.0 |]
  in
  check_float "interp" 1.0 (Waveform.Signal.value_at s 0.5);
  check_float "clamp low" 0.0 (Waveform.Signal.value_at s (-1.0));
  check_float "clamp high" 0.0 (Waveform.Signal.value_at s 5.0)

let test_signal_mean () =
  let s = sine ~offset:0.7 () in
  check_float ~eps:1e-3 "sine mean = offset" 0.7 (Waveform.Signal.mean s)

let test_tail_fraction () =
  let s = sine ~t1:2.0 () in
  let t = Waveform.Signal.tail_fraction s 0.25 in
  check_float ~eps:1e-3 "tail span" 0.5 (Waveform.Signal.duration t)

(* Measure *)

let test_crossings_count () =
  let s = sine ~freq:10.0 ~t1:1.0 () in
  let c = Waveform.Measure.rising_crossings s in
  Alcotest.(check int) "10 rising crossings" 10 (Array.length c)

let prop_frequency_estimate =
  qtest "measure: frequency of pure sine"
    QCheck.(pair (float_range 3.0 50.0) (float_range 0.0 6.0))
    (fun (freq, phase) ->
      let s = sine ~freq ~phase ~n:20000 () in
      match Waveform.Measure.frequency_opt s with
      | None -> false
      | Some f -> Float.abs (f -. freq) /. freq < 1e-4)

let prop_amplitude_estimate =
  qtest "measure: amplitude of pure sine"
    QCheck.(float_range 0.1 10.0)
    (fun ampl ->
      let s = sine ~ampl ~n:20000 () in
      Float.abs (Waveform.Measure.amplitude s -. ampl) /. ampl < 1e-3)

let test_no_oscillation () =
  let times = Array.init 10 float_of_int in
  let values = Array.make 10 1.0 in
  let s = Waveform.Signal.make ~times ~values in
  Alcotest.(check (option (float 0.1))) "flat has no frequency" None
    (Waveform.Measure.frequency_opt s)

let prop_fundamental_phasor =
  qtest ~count:50 "measure: fundamental recovers amplitude and phase"
    QCheck.(pair (float_range 0.2 3.0) (float_range (-3.0) 3.0))
    (fun (ampl, phase) ->
      let s = sine ~freq:8.0 ~ampl ~phase ~n:16000 () in
      let x = Waveform.Measure.fundamental s ~freq:8.0 in
      (* waveform a cos(wt + p) has one-sided phasor (a/2) e^{jp} *)
      Float.abs (Numerics.Cx.abs x -. (ampl /. 2.0)) < 1e-3 *. ampl
      && Numerics.Angle.dist (Numerics.Cx.arg x) phase < 1e-2)

let test_phase_profile_flat_for_locked () =
  let s = sine ~freq:10.0 ~t1:4.0 ~n:40000 ~phase:0.7 () in
  let profile = Waveform.Measure.phase_vs_reference s ~freq:10.0 ~windows:8 in
  Array.iter (fun p -> check_float ~eps:1e-3 "flat profile" 0.7 p) profile

let test_phase_profile_drifts_when_detuned () =
  (* a 10.2 Hz tone against a 10 Hz reference drifts 2 pi * 0.2 rad/s *)
  let s = sine ~freq:10.2 ~t1:4.0 ~n:40000 () in
  let profile = Waveform.Measure.phase_vs_reference s ~freq:10.0 ~windows:16 in
  let span = profile.(15) -. profile.(0) in
  check_float ~eps:0.3 "drift slope" (2.0 *. Float.pi *. 0.2 *. 4.0 *. 15.0 /. 16.0) span

(* Spectrum: single-bin projections pick one tone out of a mixture *)

let two_tone () =
  let times = Array.init 8192 (fun k -> float_of_int k /. 8191.0) in
  let values =
    Array.map
      (fun t ->
        cos (2.0 *. Float.pi *. 40.0 *. t)
        +. (0.3 *. cos ((2.0 *. Float.pi *. 120.0 *. t) +. 0.4)))
      times
  in
  Waveform.Signal.make ~times ~values

let test_two_tone_phasors () =
  let s = two_tone () in
  let x40 = Waveform.Measure.fundamental s ~freq:40.0 in
  let x120 = Waveform.Measure.fundamental s ~freq:120.0 in
  check_float ~eps:1e-3 "40 Hz magnitude" 0.5 (Numerics.Cx.abs x40);
  check_float ~eps:1e-2 "40 Hz phase" 0.0 (Numerics.Cx.arg x40);
  check_float ~eps:1e-3 "120 Hz magnitude" 0.15 (Numerics.Cx.abs x120);
  check_float ~eps:1e-2 "120 Hz phase" 0.4 (Numerics.Cx.arg x120)

let test_absent_tone () =
  let x = Waveform.Measure.fundamental (two_tone ()) ~freq:80.0 in
  Alcotest.(check bool) "80 Hz empty" true (Numerics.Cx.abs x < 1e-3)

(* Lock *)

let test_lock_detects_locked () =
  let s = sine ~freq:10.0 ~t1:10.0 ~n:100000 () in
  let v = Waveform.Lock.analyze s ~f_target:10.0 in
  Alcotest.(check bool) "locked" true v.locked;
  check_float ~eps:1e-2 "freq measured" 10.0 v.freq_measured

let test_lock_detects_unlocked () =
  (* 0.5% detuned: drifting phase *)
  let s = sine ~freq:10.05 ~t1:10.0 ~n:100000 () in
  let v = Waveform.Lock.analyze s ~f_target:10.0 in
  Alcotest.(check bool) "unlocked" false v.locked;
  Alcotest.(check bool) "drift detected" true (Float.abs v.phase_drift > 0.1)

let () =
  Alcotest.run "waveform"
    [
      ( "signal",
        [
          Alcotest.test_case "validation" `Quick test_signal_validation;
          Alcotest.test_case "slice" `Quick test_signal_slice;
          prop_slice_matches_scan;
          Alcotest.test_case "value_at" `Quick test_signal_value_at;
          Alcotest.test_case "mean" `Quick test_signal_mean;
          Alcotest.test_case "tail fraction" `Quick test_tail_fraction;
        ] );
      ( "measure",
        [
          Alcotest.test_case "crossings count" `Quick test_crossings_count;
          prop_frequency_estimate;
          prop_amplitude_estimate;
          Alcotest.test_case "no oscillation" `Quick test_no_oscillation;
          prop_fundamental_phasor;
          Alcotest.test_case "phase flat when locked" `Quick test_phase_profile_flat_for_locked;
          Alcotest.test_case "phase drifts when detuned" `Quick test_phase_profile_drifts_when_detuned;
        ] );
      ( "spectrum",
        [
          Alcotest.test_case "two-tone phasors" `Quick test_two_tone_phasors;
          Alcotest.test_case "absent tone reads zero" `Quick test_absent_tone;
        ] );
      ( "lock",
        [
          Alcotest.test_case "locked" `Quick test_lock_detects_locked;
          Alcotest.test_case "unlocked" `Quick test_lock_detects_unlocked;
        ] );
    ]
