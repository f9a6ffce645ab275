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

(* --- the one lock-edge locator --------------------------------------- *)

type guard = {
  guarded : float -> (unit -> bool) -> bool;
  summary : unit -> Resilience.Summary.t;
}

let guard ?fault ?counter subsystem ~phase ~label =
  (* the creator's deadline, by value: pool domains do not inherit it *)
  let deadline = Resilience.Deadline.save () in
  let attempts = Atomic.make 0 and mu = Mutex.create () and holes = ref [] in
  let fail e = raise (Resilience.Oshil_error.Error e) in
  let guarded x verdict =
    Atomic.incr attempts;
    if Resilience.Deadline.expired_abs deadline then
      fail (Resilience.Deadline.error subsystem ~phase);
    Option.iter (fun c -> Obs.Metrics.incr c) counter;
    match
      match fault with
      | Some site when Resilience.Fault.fire site ->
        fail (Resilience.Fault.error ~site subsystem ~phase)
      | _ -> (
        match deadline with
        | None -> verdict ()
        | Some abs ->
          (* lent to the verdict, which may poll it on a pool domain *)
          Resilience.Deadline.with_deadline
            ~seconds:(abs -. Obs.Clock.wall_s ()) verdict)
    with
    | v -> v
    | exception e ->
      (* a deadline is never a verdict; any other failure is a hole,
         read as unlocked, so a search can only shrink the band *)
      let err = Resilience.Oshil_error.of_exn subsystem ~phase e in
      if err.kind = Budget_exhausted || Resilience.Policy.fail_fast () then
        fail err;
      Obs.Metrics.incr ("resilience." ^ phase ^ ".holes");
      Mutex.protect mu (fun () ->
          holes := { Resilience.Summary.site = label x; error = err } :: !holes);
      false
  in
  let summary () =
    Mutex.protect mu (fun () ->
        Resilience.Summary.make ~attempted:(Atomic.get attempts)
          (List.rev !holes))
  in
  { guarded; summary }

type edge = Bracketed of float * float | Not_bracketed of float

let edge ~site g ~probe ~inside ~outward ~tol =
  let test ~inside ~outside x =
    let hit = g.guarded x (fun () -> probe x) in
    if Obs.Event.enabled () then
      Obs.Event.emit
        (Obs.Event.Bracket
           { site; lo = Float.min inside outside;
             hi = Float.max inside outside; probe = x; hit });
    hit
  in
  let rec march inside = function
    | [] -> Not_bracketed inside
    | x :: rest ->
      if test ~inside ~outside:x x then march x rest else bisect inside x 0
  and bisect inside outside k =
    if Float.abs (outside -. inside) <= tol || k >= 64 then
      Bracketed (inside, outside)
    else
      let mid = 0.5 *. (inside +. outside) in
      if test ~inside ~outside mid then bisect mid outside (k + 1)
      else bisect inside mid (k + 1)
  in
  march inside outward
