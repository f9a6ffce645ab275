type system = float -> float array -> float array

let axpy acc s x =
  Array.mapi (fun i a -> a +. (s *. x.(i))) acc

let rk4_step f ~t ~dt y =
  let k1 = f t y in
  let k2 = f (t +. (dt /. 2.0)) (axpy y (dt /. 2.0) k1) in
  let k3 = f (t +. (dt /. 2.0)) (axpy y (dt /. 2.0) k2) in
  let k4 = f (t +. dt) (axpy y dt k3) in
  Array.mapi
    (fun i yi ->
      yi +. (dt /. 6.0 *. (k1.(i) +. (2.0 *. k2.(i)) +. (2.0 *. k3.(i)) +. k4.(i))))
    y

let rk4 f ~t0 ~t1 ~dt ~y0 =
  assert (dt > 0.0 && t1 > t0);
  let times = ref [ t0 ] and states = ref [ Array.copy y0 ] in
  let t = ref t0 and y = ref (Array.copy y0) in
  while !t < t1 -. 1e-15 *. Float.max 1.0 (Float.abs t1) do
    let step = Float.min dt (t1 -. !t) in
    y := rk4_step f ~t:!t ~dt:step !y;
    t := !t +. step;
    times := !t :: !times;
    states := !y :: !states
  done;
  ( Array.of_list (List.rev !times),
    Array.of_list (List.rev !states) )

let rk4_final f ~t0 ~t1 ~dt ~y0 =
  assert (dt > 0.0 && t1 > t0);
  let t = ref t0 and y = ref (Array.copy y0) in
  while !t < t1 -. 1e-15 *. Float.max 1.0 (Float.abs t1) do
    let step = Float.min dt (t1 -. !t) in
    y := rk4_step f ~t:!t ~dt:step !y;
    t := !t +. step
  done;
  !y
