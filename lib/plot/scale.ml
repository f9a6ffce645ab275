type t = { d0 : float; d1 : float; r0 : float; r1 : float }

let widen (d0, d1) =
  if d0 <> d1 then (d0, d1)
  else begin
    let pad = if d0 = 0.0 then 1.0 else 0.1 *. Float.abs d0 in
    (d0 -. pad, d1 +. pad)
  end

let make ~domain ~range =
  let d0, d1 = widen domain in
  let r0, r1 = range in
  { d0; d1; r0; r1 }

let apply { d0; d1; r0; r1 } x = r0 +. ((x -. d0) /. (d1 -. d0) *. (r1 -. r0))

let nice_step raw =
  (* snap to 1/2/5 x 10^k *)
  let mag = Float.pow 10.0 (Float.floor (Float.log10 raw)) in
  let frac = raw /. mag in
  let snapped =
    if frac <= 1.0 then 1.0
    else if frac <= 2.0 then 2.0
    else if frac <= 5.0 then 5.0
    else 10.0
  in
  snapped *. mag

let nice_ticks ~lo ~hi ~count =
  if lo = hi || count < 1 then [ lo ]
  else begin
    let lo, hi = if lo < hi then (lo, hi) else (hi, lo) in
    let step = nice_step ((hi -. lo) /. float_of_int count) in
    let first = Float.ceil (lo /. step) *. step in
    let rec go x acc =
      if x > hi +. (step *. 1e-9) then List.rev acc
      else go (x +. step) ((if Float.abs x < step *. 1e-9 then 0.0 else x) :: acc)
    in
    go first []
  end

let tick_label v =
  let a = Float.abs v in
  if v = 0.0 then "0"
  else if a >= 1e6 || a < 1e-4 then Printf.sprintf "%.2e" v
  else begin
    let s = Printf.sprintf "%.6g" v in
    s
  end
