type t = { times : float array; values : float array }

let make ~times ~values =
  let n = Array.length times in
  if n <> Array.length values then invalid_arg "Signal.make: length mismatch";
  if n = 0 then invalid_arg "Signal.make: empty signal";
  for i = 0 to n - 2 do
    if not (times.(i) < times.(i + 1)) then
      invalid_arg "Signal.make: times must be strictly increasing"
  done;
  { times; values }

let length s = Array.length s.times
let duration s = s.times.(length s - 1) -. s.times.(0)

(* the first index whose time satisfies [p], for [p] false then true
   along the increasing times *)
let first_index s p =
  let lo = ref 0 and hi = ref (length s) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if p s.times.(mid) then hi := mid else lo := mid + 1
  done;
  !lo

let slice s ~t_min ~t_max =
  (* written so that a NaN bound keeps nothing *)
  let a = first_index s (fun t -> t >= t_min) in
  let b = first_index s (fun t -> not (t <= t_max)) in
  if b <= a then invalid_arg "Signal.slice: empty window";
  { times = Array.sub s.times a (b - a); values = Array.sub s.values a (b - a) }

let tail_fraction s frac =
  let t1 = s.times.(length s - 1) in
  let t0 = t1 -. (frac *. duration s) in
  slice s ~t_min:t0 ~t_max:t1

let value_at s t =
  let n = length s in
  if t <= s.times.(0) then s.values.(0)
  else if t >= s.times.(n - 1) then s.values.(n - 1)
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if s.times.(mid) <= t then lo := mid else hi := mid
    done;
    let ta = s.times.(!lo) and tb = s.times.(!hi) in
    let va = s.values.(!lo) and vb = s.values.(!hi) in
    va +. ((vb -. va) *. (t -. ta) /. (tb -. ta))
  end

let map f s = { s with values = Array.map f s.values }
let shift_values s c = map (fun v -> v +. c) s

let mean s =
  let n = length s in
  if n = 1 then s.values.(0)
  else begin
    let acc = ref 0.0 in
    for i = 0 to n - 2 do
      let dt = s.times.(i + 1) -. s.times.(i) in
      acc := !acc +. (0.5 *. dt *. (s.values.(i) +. s.values.(i + 1)))
    done;
    !acc /. duration s
  end
