type params = { g0 : float; isat : float; r : float; l : float; c : float }

let default =
  let fc = 1e6 in
  let wc = 2.0 *. Float.pi *. fc in
  let z0 = 100.0 in
  { g0 = 2e-3; isat = 1e-3; r = 1e3; l = z0 /. wc; c = 1.0 /. (z0 *. wc) }

let nonlinearity p = Shil.Nonlinearity.neg_tanh ~g0:p.g0 ~isat:p.isat
let tank p = Shil.Tank.make ~r:p.r ~l:p.l ~c:p.c

let oscillator p : Shil.Analysis.oscillator =
  { nl = nonlinearity p; tank = tank p }

let circuit ?injection ?(kick = Behavioural.kick) p =
  Behavioural.circuit ?injection ~kick (oscillator p)
