(* Unit and property tests for the numerics substrate. *)

open Numerics

let check_float ?(eps = 1e-9) msg expected got =
  Alcotest.(check (float eps)) msg expected got

let qtest ?(count = 200) name gen prop = Qseed.qtest ~count name gen prop

(* ------------------------------------------------------------------ *)
(* Angle *)

let test_wrap_ranges () =
  List.iter
    (fun a ->
      let w2 = Angle.wrap_two_pi a in
      Alcotest.(check bool) "wrap_two_pi in [0, 2pi)" true (w2 >= 0.0 && w2 < Angle.two_pi);
      let wp = Angle.wrap_pi a in
      Alcotest.(check bool) "wrap_pi in (-pi, pi]" true (wp > -.Float.pi -. 1e-12 && wp <= Float.pi +. 1e-12))
    [ 0.0; 1.0; -1.0; 7.0; -7.0; 100.0; -100.0; Float.pi; -.Float.pi; 2.0 *. Float.pi ]

let test_wrap_identity () =
  check_float "wrap of 0.3" 0.3 (Angle.wrap_pi 0.3);
  check_float "wrap of 0.3 + 2pi" 0.3 (Angle.wrap_pi (0.3 +. Angle.two_pi));
  check_float "wrap of 0.3 - 4pi" 0.3 (Angle.wrap_pi (0.3 -. (2.0 *. Angle.two_pi)))

let test_unwrap () =
  (* a steadily increasing phase, wrapped, must unwrap to itself *)
  let truth = Array.init 50 (fun k -> 0.3 *. float_of_int k) in
  let wrapped = Array.map Angle.wrap_pi truth in
  let un = Angle.unwrap wrapped in
  Array.iteri
    (fun k v -> check_float ~eps:1e-9 "unwrap" (truth.(k) -. truth.(0) +. un.(0)) v)
    un

let test_dist () =
  check_float "dist symmetric wrap" 0.2 (Angle.dist 0.1 (-0.1));
  check_float "dist across seam" 0.2 (Angle.dist (Float.pi -. 0.1) (-.Float.pi +. 0.1))

let prop_wrap_dist_bounded =
  qtest "wrap: dist <= pi" QCheck.(pair (float_bound_exclusive 100.0) (float_bound_exclusive 100.0))
    (fun (a, b) -> Angle.dist a b <= Float.pi +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Cx *)

let test_cx_polar () =
  let z = Cx.polar 2.0 0.7 in
  check_float "polar abs" 2.0 (Cx.abs z);
  check_float "polar arg" 0.7 (Cx.arg z)

let test_cx_exp_j () =
  let z = Cx.exp_j (Float.pi /. 2.0) in
  check_float ~eps:1e-12 "exp_j re" 0.0 (Cx.re z);
  check_float ~eps:1e-12 "exp_j im" 1.0 (Cx.im z)

let prop_cx_mul_abs =
  qtest "cx: |ab| = |a||b|"
    QCheck.(quad (float_bound_exclusive 10.0) (float_bound_exclusive 6.0)
              (float_bound_exclusive 10.0) (float_bound_exclusive 6.0))
    (fun (r1, t1, r2, t2) ->
      let a = Cx.polar r1 t1 and b = Cx.polar r2 t2 in
      Float.abs (Cx.abs (Cx.mul a b) -. (r1 *. r2)) < 1e-9 *. (1.0 +. (r1 *. r2)))

let prop_cx_conj_involution =
  qtest "cx: conj (conj z) = z"
    QCheck.(pair (float_range (-100.) 100.) (float_range (-100.) 100.))
    (fun (re, im) ->
      let z = Cx.make re im in
      Cx.conj (Cx.conj z) = z)

(* ------------------------------------------------------------------ *)
(* Linalg *)

let random_system rng n =
  let a =
    Array.init n (fun _ ->
        Array.init n (fun _ -> QCheck.Gen.float_range (-5.0) 5.0 rng))
  in
  (* diagonal dominance keeps it well conditioned *)
  for k = 0 to n - 1 do
    a.(k).(k) <- a.(k).(k) +. (10.0 *. float_of_int n)
  done;
  let x = Array.init n (fun _ -> QCheck.Gen.float_range (-5.0) 5.0 rng) in
  (a, x)

let prop_lu_solve =
  let gen =
    QCheck.make
      ~print:(fun (n, _) -> Printf.sprintf "n=%d" n)
      (fun st ->
        let n = QCheck.Gen.int_range 1 12 st in
        (n, random_system st n))
  in
  qtest ~count:100 "linalg: solve recovers x" gen (fun (_, (a, x)) ->
      let b =
        Array.map (fun row -> Array.fold_left ( +. ) 0.0 (Array.map2 ( *. ) row x)) a
      in
      let x' = Linalg.solve a b in
      Linalg.norm_inf (Array.map2 ( -. ) x x') < 1e-8)

(* A random n x n matrix that pivots (no diagonal dominance), with
   exact zeros, and a 1-in-4 chance of exact singularity (a repeated
   row or a zero column), plus a right-hand side. *)
let random_pivoting st n =
  let open QCheck.Gen in
  let a =
    Array.init n (fun _ ->
        Array.init n (fun _ ->
            if int_bound 4 st = 0 then 0.0 else float_range (-5.0) 5.0 st))
  in
  (match int_bound 7 st with
  | 0 when n > 1 -> a.(1 + int_bound (n - 2) st) <- Array.copy a.(0)
  | 1 ->
    let c = int_bound (n - 1) st in
    Array.iter (fun row -> row.(c) <- 0.0) a
  | _ -> ());
  (a, Array.init n (fun _ -> float_range (-5.0) 5.0 st))

let prop_lu_in_place =
  let gen =
    QCheck.make
      ~print:(fun (n, systems) ->
        Printf.sprintf "n=%d, %d systems" n (List.length systems))
      (fun st ->
        let n = QCheck.Gen.int_range 1 9 st in
        let k = QCheck.Gen.int_range 1 4 st in
        (n, List.init k (fun _ -> random_pivoting st n)))
  in
  let bits = Array.map Int64.bits_of_float in
  (* factors and solution of one in-place run, or None when singular *)
  let in_place m perm x b =
    match Linalg.lu_factor_in_place m perm with
    | exception Linalg.Singular -> None
    | () ->
      Linalg.lu_solve_into m perm b x;
      Some (Array.map bits m, Array.copy perm, bits x)
  in
  qtest ~count:300 "linalg: in-place LU = allocating LU, bit for bit" gen
    (fun (n, systems) ->
      (* one workspace across every system, starting from junk: rows
         left swapped, factors and a permutation left over from the
         previous system must not leak into the next *)
      let ws = Array.init n (fun r -> Array.make n (float_of_int r)) in
      let perm = Array.init n (fun k -> n - 1 - k) in
      let x = Array.make n Float.nan in
      List.for_all
        (fun (a, b) ->
          let allocating =
            match Linalg.solve a b with
            | exception Linalg.Singular -> None
            | x -> Some (bits x)
          in
          let fresh =
            in_place (Array.map Array.copy a) (Array.make n 0) (Array.make n 0.0) b
          in
          Array.iteri (fun r row -> Array.blit row 0 ws.(r) 0 n) a;
          let reused = in_place ws perm x b in
          let strip = Option.map (fun (_, _, x) -> x) in
          fresh = reused && strip fresh = allocating)
        systems)

let test_singular () =
  let a = [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |] in
  Alcotest.check_raises "singular raises" Linalg.Singular (fun () ->
      ignore (Linalg.solve a [| 1.0; 1.0 |]))

let test_identity_solve () =
  let identity = Array.init 4 (fun r -> Array.init 4 (fun c -> if r = c then 1.0 else 0.0)) in
  let x = Linalg.solve identity [| 1.0; 2.0; 3.0; 4.0 |] in
  Array.iteri (fun k v -> check_float "identity" (float_of_int (k + 1)) v) x

(* ------------------------------------------------------------------ *)
(* Fourier *)

let test_fourier_cos () =
  (* x = cos theta -> X_1 = 1/2 *)
  let c = Fourier.coeff ~f:cos ~k:1 () in
  check_float ~eps:1e-12 "X1 re" 0.5 (Cx.re c);
  check_float ~eps:1e-12 "X1 im" 0.0 (Cx.im c)

let test_fourier_odd_function () =
  (* tanh(cos theta) has no even harmonics *)
  let f theta = tanh (2.0 *. cos theta) in
  let c2 = Fourier.coeff ~f ~k:2 () in
  check_float ~eps:1e-12 "even harmonic vanishes" 0.0 (Cx.abs c2);
  let c3 = Fourier.coeff ~f ~k:3 () in
  Alcotest.(check bool) "odd harmonic present" true (Cx.abs c3 > 1e-4)

let test_fourier_coeffs_consistent () =
  (* the projection of f's own 1024 samples is [coeff] of f *)
  let f theta = exp (cos theta) in
  let samples =
    Array.init 1024 (fun s -> f (2.0 *. Float.pi *. float_of_int s /. 1024.0))
  in
  for k = 0 to 5 do
    let d = Cx.sub (Fourier.coeff_sampled samples ~k) (Fourier.coeff ~f ~k ()) in
    Alcotest.(check bool) "coeff_sampled = coeff" true (Cx.abs d < 1e-10)
  done

let test_fourier_reconstruct () =
  let f theta = 1.0 +. (2.0 *. cos theta) +. (0.5 *. cos (3.0 *. theta)) in
  let cs = Array.init 5 (fun k -> Fourier.coeff ~f ~k ()) in
  List.iter
    (fun theta ->
      check_float ~eps:1e-9 "reconstruct" (f theta) (Fourier.reconstruct cs ~theta))
    [ 0.0; 0.7; 2.0; 4.5 ]

let test_fourier_time_series () =
  let freq = 3.0 in
  let n = 3000 in
  let t = Array.init n (fun k -> float_of_int k /. float_of_int (n - 1)) in
  (* exactly 3 periods over [0, 1]; phasor of 2*0.4*cos(2 pi f t + 0.9) is
     0.4 e^{j 0.9} *)
  let x = Array.map (fun ti -> 0.8 *. cos ((2.0 *. Float.pi *. freq *. ti) +. 0.9)) t in
  let c = Fourier.of_time_series ~t ~x ~freq ~k:1 in
  check_float ~eps:1e-4 "ts abs" 0.4 (Cx.abs c);
  check_float ~eps:1e-3 "ts arg" 0.9 (Cx.arg c)

(* the trapezoid loop of_time_series ran before it carried each
   sample's phasor to the next trapezoid, kept longhand *)
let time_series_longhand ~t ~x ~freq ~k =
  let n = Array.length t in
  let w = 2.0 *. Float.pi *. freq *. float_of_int k in
  let g i = Cx.scale x.(i) (Cx.exp_j (-.(w *. t.(i)))) in
  let acc = ref Cx.zero in
  for i = 0 to n - 2 do
    let dt = t.(i + 1) -. t.(i) in
    acc := Cx.add !acc (Cx.scale (0.5 *. dt) (Cx.add (g i) (g (i + 1))))
  done;
  Cx.scale (1.0 /. (t.(n - 1) -. t.(0))) !acc

let prop_fourier_time_series_bits =
  qtest ~count:100 "fourier: time series as the longhand loop, same bits"
    QCheck.(
      triple
        (list_of_size Gen.(2 -- 300) (pair (float_range 1e-4 1e-2) (float_range (-2.0) 2.0)))
        (float_range 1.0 500.0) (int_range 1 5))
    (fun (samples, freq, k) ->
      let t = Array.of_list (List.map fst samples) in
      for i = 1 to Array.length t - 1 do
        t.(i) <- t.(i - 1) +. t.(i)
      done;
      let x = Array.of_list (List.map snd samples) in
      let bits z = (Int64.bits_of_float (Cx.re z), Int64.bits_of_float (Cx.im z)) in
      bits (Fourier.of_time_series ~t ~x ~freq ~k)
      = bits (time_series_longhand ~t ~x ~freq ~k))

let prop_fourier_linearity =
  qtest ~count:50 "fourier: coeff is linear"
    QCheck.(pair (float_range (-3.0) 3.0) (float_range (-3.0) 3.0))
    (fun (a, b) ->
      let f1 theta = cos theta and f2 theta = cos (2.0 *. theta) in
      let combo theta = (a *. f1 theta) +. (b *. f2 theta) in
      let c = Fourier.coeff ~f:combo ~k:1 () in
      let c1 = Fourier.coeff ~f:f1 ~k:1 () in
      let d = Cx.sub c (Cx.scale a c1) in
      Float.abs (Cx.re d) <= 1e-9 && Float.abs (Cx.im d) <= 1e-9)

(* ------------------------------------------------------------------ *)
(* Roots *)

let test_bisect_sqrt2 () =
  let r = Roots.bisect ~f:(fun x -> (x *. x) -. 2.0) ~a:0.0 ~b:2.0 () in
  check_float ~eps:1e-9 "bisect sqrt2" (sqrt 2.0) r

let test_brent_cos () =
  let r = Roots.brent ~f:cos ~a:1.0 ~b:2.0 () in
  check_float ~eps:1e-9 "brent pi/2" (Float.pi /. 2.0) r

let test_no_bracket () =
  Alcotest.check_raises "no bracket" Roots.No_bracket (fun () ->
      ignore (Roots.bisect ~f:(fun x -> (x *. x) +. 1.0) ~a:(-1.0) ~b:1.0 ()))

let test_find_all_sin () =
  let roots = Roots.find_all ~f:sin ~a:0.5 ~b:10.0 ~n:200 () in
  Alcotest.(check int) "sin roots in (0.5, 10)" 3 (List.length roots);
  List.iteri
    (fun k r -> check_float ~eps:1e-9 "k pi" (float_of_int (k + 1) *. Float.pi) r)
    roots

(* The lock-edge locator on threshold predicates [x < t], from 0 over
   the outward points h, 2h, .., 1 (h = 2^-a) at tol = 2^-p. Dyadic
   points keep every midpoint exact, so the probe count is exact too:
   the march probes up to the first k h >= t, then the bracket of width
   w = h takes ceil (log2 (w / tol)) = max 0 (p - a) halvings. A
   threshold past 1 is never bracketed. *)
let prop_edge_threshold =
  qtest "edge: straddles a threshold in march + log2 (w / tol) probes"
    QCheck.(triple (float_range 1e-6 1.2) (int_range 1 4) (int_range 1 40))
    (fun (t, a, p) ->
      let h = ldexp 1.0 (-a) and tol = ldexp 1.0 (-p) in
      let outward = List.init (1 lsl a) (fun k -> float_of_int (k + 1) *. h) in
      let probes = ref 0 in
      let probe x =
        incr probes;
        x < t
      in
      let g =
        Resilience.Guard.make ~label:string_of_float Numerics ~phase:"edgeprop"
      in
      let counted () = (Resilience.Guard.summary g).attempted = !probes in
      match Roots.edge ~site:"edgeprop" g ~probe ~inside:0.0 ~outward ~tol with
      | Not_bracketed last -> t > 1.0 && last = 1.0 && !probes = 1 lsl a && counted ()
      | Bracketed (i, o) ->
        let march = int_of_float (Float.ceil (t /. h)) in
        i < t && t <= o && o -. i <= tol
        && !probes = march + max 0 (p - a)
        && counted ())

(* Numerics.Newton *)
(* Numerics.Newton *)

(* intersection of the circle x^2+y^2=4 and the line y=x *)
let circle ~x ~res =
  res.(0) <- (x.(0) *. x.(0)) +. (x.(1) *. x.(1)) -. 4.0;
  res.(1) <- x.(1) -. x.(0)

(* the circle with its analytic Jacobian, by the LU; [log] sees every
   evaluated iterate *)
let solve_circle ~update ~stop ~log x =
  Newton.solve ~ws:(Newton.workspace 2) ~update
    ~eval:(fun ~x ~jac ~res ->
      log x;
      circle ~x ~res;
      jac.(0).(0) <- 2.0 *. x.(0);
      jac.(0).(1) <- 2.0 *. x.(1);
      jac.(1).(0) <- -1.0;
      jac.(1).(1) <- 1.0)
    ~stop x

let test_newton_line_search () =
  let evals = ref 0 in
  let stop ~iter ~residual ~stalled ~x:_ =
    if residual < 1e-10 then Newton.Converged
    else if stalled then Newton.Failed "line search stalled"
    else if iter < 60 then Newton.Continue
    else Newton.Failed "no convergence"
  in
  let x = [| 1.0; 1.2 |] in
  let o =
    solve_circle ~update:Line_search ~stop:(Before_step stop)
      ~log:(fun _ -> incr evals)
      x
  in
  Alcotest.(check bool) "converged" true o.converged;
  check_float ~eps:1e-8 "2d x" (sqrt 2.0) x.(0);
  check_float ~eps:1e-8 "2d y" (sqrt 2.0) x.(1);
  (* every full step is accepted here: the start is evaluated once,
     then one trial per step, and each accepted trial opens the next
     step without a second evaluation *)
  Alcotest.(check int) "one evaluation per step, plus the start"
    (o.iters + 1) !evals

(* (x^2 + 1, y) has no root: the line search runs into x = 0, where
   no halving of the overshooting Newton step descends. The core says
   so to the stop test, and the attempt fails at the first stall. *)
let test_newton_stall () =
  let evals = ref 0 and at_stop = ref [] in
  let stop ~iter:_ ~residual:_ ~stalled ~x:_ =
    at_stop := (stalled, !evals) :: !at_stop;
    if stalled then Newton.Failed "line search stalled" else Newton.Continue
  in
  let o =
    Newton.solve ~ws:(Newton.workspace 2) ~update:Line_search
      ~eval:(fun ~x ~jac ~res ->
        incr evals;
        res.(0) <- (x.(0) *. x.(0)) +. 1.0;
        res.(1) <- x.(1);
        jac.(0).(0) <- 2.0 *. x.(0);
        jac.(0).(1) <- 0.0;
        jac.(1).(0) <- 0.0;
        jac.(1).(1) <- 1.0)
      ~stop:(Before_step stop) [| 2.0; 1.0 |]
  in
  Alcotest.(check bool) "not converged" false o.converged;
  Alcotest.(check string) "failure" "line search stalled" o.failure;
  match !at_stop with
  | (true, last) :: (false, before) :: earlier ->
    Alcotest.(check int) "the stalled step tried 9 trials" 9 (last - before);
    Alcotest.(check bool) "no earlier stall" true
      (List.for_all (fun (s, _) -> not s) earlier);
    if o.iters > 30 then Alcotest.failf "stalled only after %d steps" o.iters
  | _ -> Alcotest.fail "no stall reported"

let test_newton_clamp () =
  (* from far away: no clamped step converges, and the clamp holds
     each component's move to the limit *)
  let x = [| 40.0; -30.0 |] in
  let moves = ref [] in
  let stop = Newton.Small_step { abs = 1e-12; rel = 1e-9; residual = 1e-9; cap = 200 } in
  let o =
    solve_circle ~update:(Clamp { limit = 1.0; upto = 2 }) ~stop
      ~log:(fun x -> moves := Array.copy x :: !moves)
      x
  in
  Alcotest.(check bool) "converged" true o.converged;
  check_float ~eps:1e-9 "x on the circle" (sqrt 2.0) (Float.abs x.(0));
  check_float ~eps:1e-9 "x on the line" x.(0) x.(1);
  let path = List.rev !moves in
  List.iteri
    (fun i p ->
      if i > 0 then
        let q = List.nth path (i - 1) in
        Array.iteri
          (fun k v ->
            if Float.abs (v -. q.(k)) > 1.0 +. 1e-12 then
              Alcotest.failf "step %d moved x.(%d) by %g" i k (v -. q.(k)))
          p)
    path;
  Alcotest.(check bool) "clamped more than once" true (o.iters > 30)

let test_newton_singular () =
  (* a constant residual has a zero Jacobian *)
  let o =
    Newton.solve ~ws:(Newton.workspace 2) ~update:Plain
      ~eval:(fun ~x:_ ~jac ~res ->
        Array.iter (fun row -> Array.fill row 0 2 0.0) jac;
        Array.fill res 0 2 1.0)
      ~stop:(Before_step (fun ~iter:_ ~residual:_ ~stalled:_ ~x:_ -> Newton.Continue))
      [| 0.0; 0.0 |]
  in
  Alcotest.(check bool) "not converged" false o.converged;
  Alcotest.(check string) "failure" "singular Jacobian" o.failure;
  Alcotest.(check int) "one step attempted" 1 o.iters

let prop_brent_polynomial =
  qtest ~count:100 "brent: root of (x-r)(x+r+1)"
    QCheck.(float_range 0.1 5.0)
    (fun r ->
      let f x = (x -. r) *. (x +. r +. 1.0) in
      let found = Roots.brent ~f ~a:0.0 ~b:6.0 () in
      Float.abs (found -. r) < 1e-8)

(* ------------------------------------------------------------------ *)
(* Interp *)

let test_linear_exact () =
  (* collinear knots: the Fritsch-Carlson slopes all equal the line's *)
  let itp = Interp.pchip ~xs:[| 0.0; 1.0; 2.0 |] ~ys:[| 0.0; 2.0; 4.0 |] in
  check_float "linear mid" 1.0 (Interp.eval itp 0.5);
  check_float "linear deriv" 2.0 (Interp.eval_deriv itp 0.5);
  check_float "linear extrapolate" 6.0 (Interp.eval itp 3.0)

let test_pchip_knots () =
  let xs = [| 0.0; 1.0; 2.0; 3.0 |] in
  let ys = [| 0.0; 1.0; 1.0; 2.0 |] in
  let itp = Interp.pchip ~xs ~ys in
  Array.iteri (fun k x -> check_float ~eps:1e-12 "pchip knot" ys.(k) (Interp.eval itp x)) xs

let prop_pchip_monotone =
  (* pchip must preserve monotonicity of the data *)
  let gen =
    QCheck.make
      ~print:(fun a -> String.concat "," (List.map string_of_float (Array.to_list a)))
      QCheck.Gen.(
        array_size (int_range 3 12) (float_range 0.01 2.0) >|= fun steps ->
        let acc = ref 0.0 in
        Array.map
          (fun s ->
            acc := !acc +. s;
            !acc)
          steps)
  in
  qtest ~count:100 "pchip: monotone data -> monotone interpolant" gen (fun ys ->
      let n = Array.length ys in
      let xs = Array.init n float_of_int in
      let itp = Interp.pchip ~xs ~ys in
      let ok = ref true in
      for k = 0 to (10 * (n - 1)) - 1 do
        let x1 = float_of_int k /. 10.0 in
        let x2 = x1 +. 0.1 in
        if Interp.eval itp x2 < Interp.eval itp x1 -. 1e-9 then ok := false
      done;
      !ok)

let test_interp_deriv_fd () =
  let xs = Array.init 20 (fun k -> float_of_int k /. 5.0) in
  let ys = Array.map (fun x -> (x *. x) +. x) xs in
  let itp = Interp.pchip ~xs ~ys in
  let x = 1.37 in
  let h = 1e-6 in
  let fd = (Interp.eval itp (x +. h) -. Interp.eval itp (x -. h)) /. (2.0 *. h) in
  check_float ~eps:1e-5 "deriv vs fd" fd (Interp.eval_deriv itp x)

let test_interp_invalid () =
  Alcotest.check_raises "non-monotone knots"
    (Invalid_argument "Interp: abscissae must be strictly increasing") (fun () ->
      ignore (Interp.pchip ~xs:[| 0.0; 0.0 |] ~ys:[| 1.0; 2.0 |]))

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_stats_basic () =
  let x = [| 1.0; 2.0; 3.0; 4.0 |] in
  check_float "stddev" (sqrt 1.25) (Stats.stddev x);
  let lo, hi = Stats.min_max x in
  check_float "min" 1.0 lo;
  check_float "max" 4.0 hi

let prop_linear_fit_exact =
  qtest ~count:100 "stats: fit recovers line"
    QCheck.(pair (float_range (-10.0) 10.0) (float_range (-10.0) 10.0))
    (fun (m, b) ->
      let xs = Array.init 10 float_of_int in
      let ys = Array.map (fun x -> (m *. x) +. b) xs in
      let m', b' = Stats.linear_fit ~xs ~ys in
      Float.abs (m -. m') < 1e-9 && Float.abs (b -. b') < 1e-8)

let () =
  Alcotest.run "numerics"
    [
      ( "angle",
        [
          Alcotest.test_case "wrap ranges" `Quick test_wrap_ranges;
          Alcotest.test_case "wrap identity" `Quick test_wrap_identity;
          Alcotest.test_case "unwrap" `Quick test_unwrap;
          Alcotest.test_case "dist" `Quick test_dist;
          prop_wrap_dist_bounded;
        ] );
      ( "cx",
        [
          Alcotest.test_case "polar" `Quick test_cx_polar;
          Alcotest.test_case "exp_j" `Quick test_cx_exp_j;
          prop_cx_mul_abs;
          prop_cx_conj_involution;
        ] );
      ( "linalg",
        [
          prop_lu_solve;
          prop_lu_in_place;
          Alcotest.test_case "singular" `Quick test_singular;
          Alcotest.test_case "identity" `Quick test_identity_solve;
        ] );
      ( "fourier",
        [
          Alcotest.test_case "cos coefficient" `Quick test_fourier_cos;
          Alcotest.test_case "odd function" `Quick test_fourier_odd_function;
          Alcotest.test_case "coeffs consistent" `Quick test_fourier_coeffs_consistent;
          Alcotest.test_case "reconstruct" `Quick test_fourier_reconstruct;
          Alcotest.test_case "time series" `Quick test_fourier_time_series;
          prop_fourier_time_series_bits;
          prop_fourier_linearity;
        ] );
      ( "roots",
        [
          Alcotest.test_case "bisect" `Quick test_bisect_sqrt2;
          Alcotest.test_case "brent" `Quick test_brent_cos;
          Alcotest.test_case "no bracket" `Quick test_no_bracket;
          Alcotest.test_case "find_all sin" `Quick test_find_all_sin;
          prop_brent_polynomial;
          prop_edge_threshold;
        ] );
      ( "newton",
        [
          Alcotest.test_case "2-d line search" `Quick test_newton_line_search;
          Alcotest.test_case "componentwise clamp" `Quick test_newton_clamp;
          Alcotest.test_case "singular Jacobian" `Quick test_newton_singular;
          Alcotest.test_case "line search stall" `Quick test_newton_stall;
        ] );
      ( "interp",
        [
          Alcotest.test_case "linear" `Quick test_linear_exact;
          Alcotest.test_case "pchip knots" `Quick test_pchip_knots;
          prop_pchip_monotone;
          Alcotest.test_case "deriv vs fd" `Quick test_interp_deriv_fd;
          Alcotest.test_case "invalid knots" `Quick test_interp_invalid;
        ] );
      ( "stats",
        [
          Alcotest.test_case "basic" `Quick test_stats_basic;
          prop_linear_fit_exact;
        ] );
    ]
