module Cx = Numerics.Cx

let rising_crossings ?level (s : Signal.t) =
  let level = match level with Some l -> l | None -> Signal.mean s in
  let out = ref [] in
  let n = Signal.length s in
  for i = 0 to n - 2 do
    let a = s.values.(i) -. level and b = s.values.(i + 1) -. level in
    if a < 0.0 && b >= 0.0 then begin
      let ta = s.times.(i) and tb = s.times.(i + 1) in
      let t = ta +. ((tb -. ta) *. (-.a /. (b -. a))) in
      out := t :: !out
    end
  done;
  Array.of_list (List.rev !out)

let frequency_opt ?level s =
  let c = rising_crossings ?level s in
  let n = Array.length c in
  if n < 2 then None
  else Some (float_of_int (n - 1) /. (c.(n - 1) -. c.(0)))

let frequency ?level s =
  match frequency_opt ?level s with
  | Some f -> f
  | None ->
    Resilience.Oshil_error.raise_ Waveform ~phase:"measure"
      Measurement_failure "fewer than two rising crossings"
      ~context:[ ("samples", string_of_int (Signal.length s)) ]
      ~remedy:"record a longer waveform or use frequency_opt"

let amplitude (s : Signal.t) =
  let lo, hi = Numerics.Stats.min_max s.values in
  0.5 *. (hi -. lo)

let fundamental (s : Signal.t) ~freq =
  (* trim the tail to an integer number of periods for a clean projection *)
  let period = 1.0 /. freq in
  let t1 = s.times.(Signal.length s - 1) in
  let span = Signal.duration s in
  let periods = Float.floor (span /. period) in
  if periods < 1.0 then invalid_arg "Measure.fundamental: signal shorter than one period";
  let t0 = t1 -. (periods *. period) in
  let w = Signal.slice s ~t_min:t0 ~t_max:t1 in
  Numerics.Fourier.of_time_series ~t:w.times ~x:w.values ~freq ~k:1

let phase_vs_reference (s : Signal.t) ~freq ~windows =
  if windows < 1 then invalid_arg "Measure.phase_vs_reference";
  let t0 = s.times.(0) and t1 = s.times.(Signal.length s - 1) in
  let span = (t1 -. t0) /. float_of_int windows in
  let phases =
    Array.init windows (fun k ->
        let a = t0 +. (float_of_int k *. span) in
        let b = a +. span in
        let w = Signal.slice s ~t_min:a ~t_max:b in
        let x = Numerics.Fourier.of_time_series ~t:w.times ~x:w.values ~freq ~k:1 in
        Cx.arg x)
  in
  Numerics.Angle.unwrap phases
