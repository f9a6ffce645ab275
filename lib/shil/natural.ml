module Df = Describing_function
module Roots = Numerics.Roots

type solution = { a : float; slope : float; stable : bool }

(* the small-signal limit is analytic and needs no quadrature *)
let small_signal_gain nl ~r = -.r *. Nonlinearity.deriv nl 0.0

(* Content address of one natural-oscillation solve: the whole scan's
   inputs, with [points] resolved to the quadrature default so an
   omitted argument and an explicit 1024 share one entry. A solve sized
   by stated error carries [points=stated] and its tolerance instead,
   which no fixed-count key has. The result is a short solution list,
   so it lives in both tiers. *)
let key ~nl_key ~r ~quad ~a_min ~a_max ~scan =
  let open Cache.Key in
  v ~kind:"shil.natural" ~version:1
    ([ str "nl" nl_key; float "r" r ]
    @ quad
    @ [ float "a_min" a_min; float "a_max" a_max; int "scan" scan ])

let cache_key ~nl_key ~r ~points ~a_min ~a_max ~scan =
  key ~nl_key ~r ~quad:[ Cache.Key.int "points" points ] ~a_min ~a_max ~scan

(* key construction is a handful of sprintfs: skip it while the store
   is off, every analysis starts here *)
let cached ~quad ~a_min ~a_max ~scan nl ~r compute =
  match
    if Cache.Store.enabled () then Nonlinearity.cache_key nl else None
  with
  | None -> compute ()
  | Some nl_key ->
    (Cache.Store.find_or_compute
       ~key:(key ~nl_key ~r ~quad ~a_min ~a_max ~scan)
       ~encode:Cache.Store.to_marshal ~decode:Cache.Store.of_marshal compute
      : solution list)

let default_a_min = 1e-4
let default_a_max = 10.0
let default_scan = 400

let residual ~points nl ~r a = Df.t_f_free ~points nl ~r ~a -. 1.0

let classify g roots =
  List.map
    (fun a ->
      let h = 1e-5 *. (1.0 +. a) in
      let slope = (g (a +. h) -. g (a -. h)) /. (2.0 *. h) in
      { a; slope; stable = slope < 0.0 })
    roots

let solve ?(points = Df.default_points) ?(a_min = default_a_min)
    ?(a_max = default_a_max) ?(scan = default_scan) nl ~r =
  cached ~quad:[ Cache.Key.int "points" points ] ~a_min ~a_max ~scan nl ~r
  @@ fun () ->
  let g = residual ~points nl ~r in
  classify g (Roots.find_all ~f:g ~a:a_min ~b:a_max ~n:scan ())

(* The solve by stated error. The scan brackets the roots at the coarse
   count; the pilot measures the I1 change from N/2 to N at the bracket
   ends, where the roots are; Brent then refines each bracket at the
   accepted N, which re-evaluates its ends there and so confirms the
   sign change. A bracket that loses it sends the solve to a full
   rescan at N. *)
let coarse_points = 128

let solve_within ~tol nl ~r =
  let a_min = default_a_min and a_max = default_a_max and scan = default_scan in
  cached
    ~quad:[ Cache.Key.str "points" "stated"; Cache.Key.float "tol" tol ]
    ~a_min ~a_max ~scan nl ~r
  @@ fun () ->
  let brackets =
    Roots.bracket_roots ~f:(residual ~points:coarse_points nl ~r) ~a:a_min
      ~b:a_max ~n:scan
  in
  let ends =
    Array.of_list (List.concat_map (fun (lo, hi) -> [ lo; hi ]) brackets)
  in
  let points, _ =
    Df.stated_points ~tol (fun points ->
        Array.map (fun a -> Numerics.Cx.of_float (Df.i1 ~points nl ~a)) ends)
  in
  let g = residual ~points nl ~r in
  let roots =
    match
      List.map (fun (lo, hi) -> Roots.brent ~f:g ~a:lo ~b:hi ()) brackets
    with
    | roots -> roots
    | exception Roots.No_bracket ->
      Roots.find_all ~f:g ~a:a_min ~b:a_max ~n:scan ()
  in
  classify g roots

let predicted_amplitude ?points ?a_min ?a_max ?scan nl ~r =
  let sols = solve ?points ?a_min ?a_max ?scan nl ~r in
  List.fold_left
    (fun acc s -> if s.stable then Some s.a else acc)
    None sols

let oscillates nl ~r = small_signal_gain nl ~r > 1.0
