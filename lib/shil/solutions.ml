module Cx = Numerics.Cx
module Df = Describing_function
module Angle = Numerics.Angle
module Roots = Numerics.Roots

type point = {
  phi : float;
  a : float;
  stable : bool;
  trace : float;
  det : float;
}

let residuals ?points ?reduction nl ~n ~r ~vi ~phi_d (phi, a) =
  if a <= 0.0 then (1e6, 1e6)
  else begin
    let i1 = Df.i1_two_tone ?points ?reduction nl ~n ~a ~vi ~phi in
    let m = Cx.neg i1 in
    let mag = Cx.abs m in
    let r1 = (r *. Cx.re m /. (a /. 2.0)) -. 1.0 in
    let r2 =
      if mag = 0.0 then 1e6
      else ((Cx.im m *. cos phi_d) +. (Cx.re m *. sin phi_d)) /. mag
    in
    (r1, r2)
  end

(* Reduced restoring flow (§VI-B3): dA/dt = F1 = T_F - 1, dphi/dt = F2 =
   -(angle(-I1) + phi_d). Stability = eigenvalues of d(F1,F2)/d(A,phi) in
   the left half plane <=> trace < 0 and det > 0. *)
let flow ?points ?reduction nl ~n ~r ~vi ~phi_d ~phi ~a =
  let i1 = Df.i1_two_tone ?points ?reduction nl ~n ~a ~vi ~phi in
  let m = Cx.neg i1 in
  let f1 = (2.0 *. r *. Cx.abs m *. cos phi_d /. a) -. 1.0 in
  let f2 = -.Angle.wrap_pi (Cx.arg m +. phi_d) in
  (f1, f2)

let classify ?points ?reduction nl ~n ~r ~vi ~phi_d ~phi ~a =
  let ha = 1e-5 *. (1.0 +. Float.abs a) in
  let hp = 1e-5 in
  let flow = flow ?points ?reduction nl ~n ~r ~vi ~phi_d in
  let f1_pa, f2_pa = flow ~phi ~a:(a +. ha) in
  let f1_ma, f2_ma = flow ~phi ~a:(a -. ha) in
  let f1_pp, f2_pp = flow ~phi:(phi +. hp) ~a in
  let f1_mp, f2_mp = flow ~phi:(phi -. hp) ~a in
  let j11 = (f1_pa -. f1_ma) /. (2.0 *. ha) in
  let j12 = (f1_pp -. f1_mp) /. (2.0 *. hp) in
  let j21 = (f2_pa -. f2_ma) /. (2.0 *. ha) in
  let j22 = (f2_pp -. f2_mp) /. (2.0 *. hp) in
  let trace = j11 +. j22 in
  let det = (j11 *. j22) -. (j12 *. j21) in
  { phi; a; stable = trace < 0.0 && det > 0.0; trace; det }

(* One-entry memo on a bit-equal argument pair. [Roots.newton2d]
   evaluates the residual at the accepted damped point, then again at
   the same point to open the next iteration; the memo answers the
   second call, saving one exact quadrature per iteration. *)
let memo_last f =
  let last = ref None in
  let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
  fun ((x, y) as arg) ->
    match !last with
    | Some ((x', y'), r) when same x x' && same y y' -> r
    | _ ->
      let r = f arg in
      last := Some (arg, r);
      r

let refine ?points ?reduction nl ~n ~r ~vi ~phi_d ~phi0 ~a0 =
  let f = memo_last (residuals ?points ?reduction nl ~n ~r ~vi ~phi_d) in
  let ectx =
    if Obs.Event.enabled () then
      Some (Obs.Event.ctx ~cell:(phi0, a0) "shil.refine")
    else None
  in
  try Some (Roots.newton2d ~tol:1e-12 ?ectx ~f ~x0:(phi0, a0) ())
  with Roots.No_convergence _ -> None

let find ?points (g : Grid.t) ~phi_d =
  Obs.Span.with_ ~cat:"shil" ~name:"shil.solutions.find"
    ~attrs:[ ("phi_d", Printf.sprintf "%g" phi_d) ]
  @@ fun () ->
  let nl = g.nl and n = g.n and r = g.r and vi = g.vi in
  (* downstream probes quadrate in the same mode the grid was built in *)
  let reduction = g.reduction in
  let curves = Grid.t_f_curve g in
  (* residual of eq. 4 along the T_f = 1 curve, wrapped *)
  let phase_res phi a =
    let i1 = Grid.interp_i1 g ~phi ~a in
    Angle.wrap_pi (Cx.arg (Cx.neg i1) +. phi_d)
  in
  let candidates = ref [] in
  List.iter
    (fun (xs, ys) ->
      let m = Array.length xs in
      let prev = ref None in
      for k = 0 to m - 1 do
        let gk = phase_res xs.(k) ys.(k) in
        (match !prev with
        | Some (gp, kp) ->
          (* bracket only genuine crossings (avoid the +-pi wrap seam) *)
          if gp *. gk <= 0.0 && Float.abs (gp -. gk) < Float.pi /. 2.0 then begin
            let t = if gp = gk then 0.5 else gp /. (gp -. gk) in
            let phi0 = xs.(kp) +. (t *. (xs.(k) -. xs.(kp))) in
            let a0 = ys.(kp) +. (t *. (ys.(k) -. ys.(kp))) in
            if Obs.Event.enabled () then
              Obs.Event.emit
                (Obs.Event.Bracket
                   {
                     site = "shil.solutions.crossing";
                     lo = xs.(kp);
                     hi = xs.(k);
                     probe = phi0;
                     hit = true;
                   });
            candidates := (phi0, a0) :: !candidates
          end
        | None -> ());
        prev := Some (gk, k)
      done)
    curves;
  (* each candidate refines independently (a 2-D Newton iteration full of
     describing-function quadratures): fan them out, keeping candidate
     order so the downstream dedup sees the sequential ordering *)
  Obs.Metrics.incr ~by:(List.length !candidates) "shil.solutions.candidates";
  let refined =
    Numerics.Pool.parallel_map_array ~chunk:1
      (fun (phi0, a0) ->
        match refine ?points ~reduction nl ~n ~r ~vi ~phi_d ~phi0 ~a0 with
        | Some (phi, a) when a > 0.0 ->
          (* reject the spurious cos <= 0 branch *)
          let i1 = Df.i1_two_tone ?points ~reduction nl ~n ~a ~vi ~phi in
          let m = Cx.neg i1 in
          if Float.abs (Angle.wrap_pi (Cx.arg m +. phi_d)) < Float.pi /. 2.0
          then Some (Angle.wrap_two_pi phi, a)
          else None
        | Some _ | None -> None)
      (Array.of_list !candidates)
    |> Array.to_list
    |> List.filter_map Fun.id
  in
  Obs.Metrics.incr
    ~by:(List.length !candidates - List.length refined)
    "shil.solutions.refine_fails";
  (* deduplicate: two solutions are the same within small tolerances *)
  let dedup =
    List.fold_left
      (fun acc (phi, a) ->
        if
          List.exists
            (fun (phi', a') ->
              Angle.dist phi phi' < 1e-5 && Float.abs (a -. a') < 1e-7 *. (1.0 +. a))
            acc
        then acc
        else (phi, a) :: acc)
      [] refined
  in
  (* stability scan: 8 flow evaluations per point, independent per point *)
  let pts =
    Numerics.Pool.parallel_map_array ~chunk:1
      (fun (phi, a) -> classify ?points ~reduction nl ~n ~r ~vi ~phi_d ~phi ~a)
      (Array.of_list dedup)
    |> Array.to_list
  in
  Obs.Metrics.incr ~by:(List.length pts) "shil.solutions.classified";
  List.sort (fun p q -> Float.compare p.phi q.phi) pts

let stable_exists ?points g ~phi_d =
  List.exists (fun p -> p.stable) (find ?points g ~phi_d)

let n_states p ~n =
  List.init n (fun k ->
      let psi =
        Angle.wrap_two_pi
          ((-.p.phi /. float_of_int n)
          +. (2.0 *. Float.pi *. float_of_int k /. float_of_int n))
      in
      (psi, p.a))
