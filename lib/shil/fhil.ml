(* Adler's half lock range, oscillator-referred: f_c/(2Q) * (2 V_i / A),
   with 2 V_i the injected waveform amplitude in this paper's phasor
   convention *)
let adler_range ~tank ~a ~vi =
  let half = Tank.f_c tank /. (2.0 *. Tank.q tank) *. (2.0 *. vi /. a) in
  let fc = Tank.f_c tank in
  (fc -. half, fc +. half)
