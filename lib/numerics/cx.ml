type t = Complex.t = { re : float; im : float }

let zero = Complex.zero
let make re im = { re; im }
let of_float re = { re; im = 0.0 }
let polar r theta = Complex.polar r theta
let re z = z.re
let im z = z.im
let abs = Complex.norm
let arg = Complex.arg
let conj = Complex.conj
let neg = Complex.neg
let add = Complex.add
let sub = Complex.sub
let mul = Complex.mul
let div = Complex.div
let scale k z = { re = k *. z.re; im = k *. z.im }
let exp_j theta = { re = cos theta; im = sin theta }
