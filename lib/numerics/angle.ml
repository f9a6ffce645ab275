let pi = Float.pi
let two_pi = 2.0 *. Float.pi

let wrap_two_pi a =
  let r = Float.rem a two_pi in
  if r < 0.0 then r +. two_pi else r

let wrap_pi a =
  let r = wrap_two_pi a in
  if r > pi then r -. two_pi else r

let unwrap a =
  let n = Array.length a in
  if n = 0 then [||]
  else begin
    let out = Array.make n a.(0) in
    let offset = ref 0.0 in
    for i = 1 to n - 1 do
      let d = a.(i) -. a.(i - 1) in
      if d > pi then offset := !offset -. two_pi
      else if d < -.pi then offset := !offset +. two_pi;
      out.(i) <- a.(i) +. !offset
    done;
    out
  end

let dist a b = Float.abs (wrap_pi (a -. b))
