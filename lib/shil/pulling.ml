let beat_frequency ~(lock_range : Lock_range.t) ~n ~f_inj =
  let nf = float_of_int n in
  let f_centre = 0.5 *. (lock_range.f_inj_low +. lock_range.f_inj_high) /. nf in
  let half = 0.5 *. lock_range.delta_f_inj /. nf in
  let delta = (f_inj /. nf) -. f_centre in
  if Float.abs delta <= half then 0.0
  else sqrt ((delta *. delta) -. (half *. half))

let measure_beat signal ~n ~f_inj =
  let tail = Waveform.Signal.tail_fraction signal 0.6 in
  let f_target = f_inj /. float_of_int n in
  (* many short windows keep each inter-window phase step below pi so the
     unwrap cannot alias even for fast beats *)
  let windows = 400 in
  let phases = Waveform.Measure.phase_vs_reference tail ~freq:f_target ~windows in
  let span = Waveform.Signal.duration tail in
  let ts =
    Array.init windows (fun k ->
        (float_of_int k +. 0.5) *. span /. float_of_int windows)
  in
  let slope, _ = Numerics.Stats.linear_fit ~xs:ts ~ys:phases in
  Float.abs slope /. (2.0 *. Float.pi)
