type injection = { vi : float; n : int; f_inj : float; phase : float }

let injection_current ~tank inj =
  2.0 *. inj.vi /. Tank.mag tank ~omega:(2.0 *. Float.pi *. inj.f_inj)
