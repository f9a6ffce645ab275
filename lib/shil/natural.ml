module Df = Describing_function
module Roots = Numerics.Roots

type solution = { a : float; slope : float; stable : bool }

(* [?points] is accepted for signature uniformity with the other
   describing-function entry points; the small-signal limit is analytic
   and needs no quadrature. *)
let small_signal_gain ?points:_ nl ~r = -.r *. Nonlinearity.deriv nl 0.0

(* Content address of one natural-oscillation solve: the whole scan's
   inputs, with [points] resolved to the quadrature default so an
   omitted argument and an explicit 1024 share one entry. The result is
   a short solution list, so it lives in both tiers. *)
let cache_key ~nl_key ~r ~points ~a_min ~a_max ~scan =
  let open Cache.Key in
  v ~kind:"shil.natural" ~version:1
    [
      str "nl" nl_key;
      float "r" r;
      int "points" points;
      float "a_min" a_min;
      float "a_max" a_max;
      int "scan" scan;
    ]

let solve ?(points = Df.default_points) ?(a_min = 1e-4) ?(a_max = 10.0)
    ?(scan = 400) nl ~r =
  let compute () =
    let g a = Df.t_f_free ~points nl ~r ~a -. 1.0 in
    let roots = Roots.find_all ~f:g ~a:a_min ~b:a_max ~n:scan () in
    List.map
      (fun a ->
        let h = 1e-5 *. (1.0 +. a) in
        let slope = (g (a +. h) -. g (a -. h)) /. (2.0 *. h) in
        { a; slope; stable = slope < 0.0 })
      roots
  in
  (* key construction is a handful of sprintfs: skip it while the store
     is off, every analysis starts here *)
  match
    if Cache.Store.enabled () then Nonlinearity.cache_key nl else None
  with
  | None -> compute ()
  | Some nl_key ->
    (Cache.Store.find_or_compute
       ~key:(cache_key ~nl_key ~r ~points ~a_min ~a_max ~scan)
       ~encode:Cache.Store.to_marshal ~decode:Cache.Store.of_marshal compute
      : solution list)

let predicted_amplitude ?points ?a_min ?a_max ?scan nl ~r =
  let sols = solve ?points ?a_min ?a_max ?scan nl ~r in
  List.fold_left
    (fun acc s -> if s.stable then Some s.a else acc)
    None sols

let oscillates ?points nl ~r = small_signal_gain ?points nl ~r > 1.0
