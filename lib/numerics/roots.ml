exception No_bracket
exception No_convergence of string

let bisect ?(tol = 1e-12) ?(max_iter = 200) ~f ~a ~b () =
  let fa = f a and fb = f b in
  if fa = 0.0 then a
  else if fb = 0.0 then b
  else if fa *. fb > 0.0 then raise No_bracket
  else begin
    let a = ref a and b = ref b and fa = ref fa in
    let result = ref None in
    let k = ref 0 in
    while !result = None && !k < max_iter do
      incr k;
      let m = 0.5 *. (!a +. !b) in
      let fm = f m in
      if fm = 0.0 || !b -. !a < tol then result := Some m
      else if !fa *. fm < 0.0 then b := m
      else begin
        a := m;
        fa := fm
      end
    done;
    match !result with
    | Some r -> r
    | None -> 0.5 *. (!a +. !b)
  end

let brent ?(tol = 1e-12) ?(max_iter = 200) ~f ~a ~b () =
  let fa = f a and fb = f b in
  if fa = 0.0 then a
  else if fb = 0.0 then b
  else if fa *. fb > 0.0 then raise No_bracket
  else begin
    (* classic Brent: keep [b] the best iterate, [a] its counterpoint *)
    let a = ref a and b = ref b and fa = ref fa and fb = ref fb in
    if Float.abs !fa < Float.abs !fb then begin
      let t = !a in
      a := !b;
      b := t;
      let ft = !fa in
      fa := !fb;
      fb := ft
    end;
    let c = ref !a and fc = ref !fa in
    let d = ref (!b -. !a) and e = ref (!b -. !a) in
    let result = ref None in
    let k = ref 0 in
    while !result = None && !k < max_iter do
      incr k;
      if !fb *. !fc > 0.0 then begin
        c := !a;
        fc := !fa;
        d := !b -. !a;
        e := !d
      end;
      if Float.abs !fc < Float.abs !fb then begin
        a := !b;
        b := !c;
        c := !a;
        fa := !fb;
        fb := !fc;
        fc := !fa
      end;
      let tol1 = (2.0 *. epsilon_float *. Float.abs !b) +. (0.5 *. tol) in
      let xm = 0.5 *. (!c -. !b) in
      if Float.abs xm <= tol1 || !fb = 0.0 then result := Some !b
      else begin
        if Float.abs !e >= tol1 && Float.abs !fa > Float.abs !fb then begin
          let s = !fb /. !fa in
          let p, q =
            if !a = !c then
              let p = 2.0 *. xm *. s in
              (p, 1.0 -. s)
            else begin
              let q = !fa /. !fc and r = !fb /. !fc in
              let p = s *. ((2.0 *. xm *. q *. (q -. r)) -. ((!b -. !a) *. (r -. 1.0))) in
              (p, (q -. 1.0) *. (r -. 1.0) *. (s -. 1.0))
            end
          in
          let p, q = if p > 0.0 then (p, -.q) else (-.p, q) in
          let min1 = (3.0 *. xm *. q) -. Float.abs (tol1 *. q) in
          let min2 = Float.abs (!e *. q) in
          if 2.0 *. p < Float.min min1 min2 then begin
            e := !d;
            d := p /. q
          end
          else begin
            d := xm;
            e := !d
          end
        end
        else begin
          d := xm;
          e := !d
        end;
        a := !b;
        fa := !fb;
        if Float.abs !d > tol1 then b := !b +. !d
        else b := !b +. Float.copy_sign tol1 xm;
        fb := f !b
      end
    done;
    match !result with
    | Some r -> r
    | None -> raise (No_convergence "brent")
  end

let bracket_roots ~f ~a ~b ~n =
  assert (n >= 1);
  let h = (b -. a) /. float_of_int n in
  let brackets = ref [] in
  let x_prev = ref a and f_prev = ref (f a) in
  for k = 1 to n do
    let x = a +. (float_of_int k *. h) in
    let fx = f x in
    if (!f_prev <= 0.0 && fx >= 0.0) || (!f_prev >= 0.0 && fx <= 0.0) then
      if not (!f_prev = 0.0 && fx = 0.0) then
        brackets := (!x_prev, x) :: !brackets;
    x_prev := x;
    f_prev := fx
  done;
  List.rev !brackets

let find_all ?(tol = 1e-12) ~f ~a ~b ~n () =
  let refine (lo, hi) =
    try Some (brent ~tol ~f ~a:lo ~b:hi ()) with No_bracket -> None
  in
  List.filter_map refine (bracket_roots ~f ~a ~b ~n)

let newton2d ?(tol = 1e-10) ?(max_iter = 60) ?ectx ~f ~x0 () =
  if Resilience.Fault.fire "roots-fail" then
    raise (No_convergence "newton2d: injected fault (roots-fail)");
  (* solver-health events: one atomic load when the stream is off *)
  let ectx = if Obs.Event.enabled () then ectx else None in
  let emit_iter k residual step damping =
    match ectx with
    | Some ctx ->
      Obs.Event.emit
        (Obs.Event.Newton_iter { ctx; iter = k; residual; step; damping })
    | None -> ()
  in
  let emit_done k converged residual =
    match ectx with
    | Some ctx ->
      Obs.Event.emit
        (Obs.Event.Newton_done { ctx; iters = k; converged; residual })
    | None -> ()
  in
  let x = ref (fst x0) and y = ref (snd x0) in
  let result = ref None in
  let k = ref 0 in
  let last_res = ref infinity in
  let res_norm (r1, r2) = Float.max (Float.abs r1) (Float.abs r2) in
  while !result = None && !k < max_iter do
    incr k;
    let r1, r2 = f (!x, !y) in
    last_res := res_norm (r1, r2);
    if res_norm (r1, r2) < tol then begin
      emit_iter !k (res_norm (r1, r2)) 0.0 1.0;
      result := Some (!x, !y)
    end
    else begin
      let hx = 1e-7 *. (1.0 +. Float.abs !x) in
      let hy = 1e-7 *. (1.0 +. Float.abs !y) in
      let r1x, r2x = f (!x +. hx, !y) in
      let r1y, r2y = f (!x, !y +. hy) in
      let j11 = (r1x -. r1) /. hx
      and j12 = (r1y -. r1) /. hy
      and j21 = (r2x -. r2) /. hx
      and j22 = (r2y -. r2) /. hy in
      let det = (j11 *. j22) -. (j12 *. j21) in
      if Float.abs det < 1e-300 then begin
        emit_done !k false !last_res;
        raise (No_convergence "newton2d: singular Jacobian")
      end;
      let dx = ((j22 *. r1) -. (j12 *. r2)) /. det in
      let dy = ((j11 *. r2) -. (j21 *. r1)) /. det in
      (* damped update: halve the step until the residual decreases *)
      let base = res_norm (r1, r2) in
      let rec damp lambda tries =
        let xn = !x -. (lambda *. dx) and yn = !y -. (lambda *. dy) in
        let rn = res_norm (f (xn, yn)) in
        if rn < base || tries >= 8 then (xn, yn, lambda)
        else damp (lambda /. 2.0) (tries + 1)
      in
      let xn, yn, lambda = damp 1.0 0 in
      emit_iter !k base
        (Float.max (Float.abs (lambda *. dx)) (Float.abs (lambda *. dy)))
        lambda;
      x := xn;
      y := yn
    end
  done;
  match !result with
  | Some r ->
    emit_done !k true !last_res;
    r
  | None ->
    let r1, r2 = f (!x, !y) in
    if res_norm (r1, r2) < sqrt tol then begin
      emit_done !k true (res_norm (r1, r2));
      (!x, !y)
    end
    else begin
      emit_done !k false (res_norm (r1, r2));
      raise (No_convergence "newton2d")
    end
