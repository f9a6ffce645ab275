let check x = if Array.length x = 0 then invalid_arg "Stats: empty array"

let mean x =
  check x;
  Array.fold_left ( +. ) 0.0 x /. float_of_int (Array.length x)

let variance x =
  check x;
  let m = mean x in
  let s = Array.fold_left (fun acc v -> acc +. ((v -. m) *. (v -. m))) 0.0 x in
  s /. float_of_int (Array.length x)

let stddev x = sqrt (variance x)

let min_max x =
  check x;
  Array.fold_left
    (fun (lo, hi) v -> (Float.min lo v, Float.max hi v))
    (x.(0), x.(0)) x

let linear_fit ~xs ~ys =
  check xs;
  if Array.length xs <> Array.length ys then
    invalid_arg "Stats.linear_fit: length mismatch";
  let n = float_of_int (Array.length xs) in
  let sx = Array.fold_left ( +. ) 0.0 xs in
  let sy = Array.fold_left ( +. ) 0.0 ys in
  let sxx = Array.fold_left (fun a x -> a +. (x *. x)) 0.0 xs in
  let sxy = ref 0.0 in
  Array.iteri (fun i x -> sxy := !sxy +. (x *. ys.(i))) xs;
  let denom = (n *. sxx) -. (sx *. sx) in
  if denom = 0.0 then (0.0, sy /. n)
  else begin
    let slope = ((n *. !sxy) -. (sx *. sy)) /. denom in
    let intercept = (sy -. (slope *. sx)) /. n in
    (slope, intercept)
  end
