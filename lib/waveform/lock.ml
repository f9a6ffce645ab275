type verdict = {
  locked : bool;
  freq_measured : float;
  phase_drift : float;
  phase_sigma : float;
  amplitude : float;
}

let analyze ?(steady_fraction = 0.5) ?(windows = 16) ?drift_tol s ~f_target =
  let tail = Signal.tail_fraction s steady_fraction in
  let drift_tol =
    match drift_tol with
    | Some d -> d
    | None -> 2.0 *. Float.pi *. 1e-4 *. f_target
  in
  let phases = Measure.phase_vs_reference tail ~freq:f_target ~windows in
  let span = Signal.duration tail in
  let ts =
    Array.init windows (fun k ->
        (float_of_int k +. 0.5) *. span /. float_of_int windows)
  in
  let slope, _ = Numerics.Stats.linear_fit ~xs:ts ~ys:phases in
  let detrended =
    Array.mapi (fun k p -> p -. (slope *. ts.(k))) phases
  in
  let sigma = Numerics.Stats.stddev detrended in
  let freq_measured =
    match Measure.frequency_opt tail with Some f -> f | None -> 0.0
  in
  let freq_ok =
    freq_measured > 0.0 && Float.abs (freq_measured -. f_target) /. f_target < 2e-3
  in
  {
    locked = Float.abs slope < drift_tol && freq_ok;
    freq_measured;
    phase_drift = slope;
    phase_sigma = sigma;
    amplitude = Measure.amplitude tail;
  }
