module Cx = Numerics.Cx
module Df = Describing_function
module Angle = Numerics.Angle
module Newton = Numerics.Newton

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

(* Stability from the reduced phase/amplitude flow
   dA/dt ∝ T_F - 1, dphi/dt ∝ -(angle(-I_1) + phi_d): stable iff the
   Jacobian has negative trace and positive determinant — the rigorous
   form of the paper's slope-comparison rule (§VI-B3). *)
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

let refine ?points ?reduction nl ~n ~r ~vi ~phi_d ~phi0 ~a0 =
  if Resilience.Fault.fire "roots-fail" then None
  else begin
    let f ~x ~res =
      let r1, r2 = residuals ?points ?reduction nl ~n ~r ~vi ~phi_d (x.(0), x.(1)) in
      res.(0) <- r1;
      res.(1) <- r2
    in
    let x = [| phi0; a0 |] in
    let o =
      Newton.solve_2d ~ectx:(Obs.Event.ctx ~cell:(phi0, a0) "shil.refine")
        ~tol:1e-12 ~max_iter:60 f x
    in
    if o.converged then Some (x.(0), x.(1)) else None
  end

(* Start points for [refine]: the brackets of the (wrapped) phase
   residual's sign changes along the gridded [T_f = 1] polylines, most
   recently found first — the order both [find] and [stable_exists]
   process them in. *)
let candidates (g : Grid.t) ~phi_d =
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
  Array.of_list !candidates

(* A lock point symmetric about phi = 0 converges to +-1e-17, which
   wraps to 0 or to 2 pi depending on the last ulp. Snapping it to 0
   keeps its printed phase and its place in the phi-sorted list from
   hanging on rounding. *)
let canonical_phi phi =
  let w = Angle.wrap_two_pi phi in
  if w < 1e-9 || Angle.two_pi -. w < 1e-9 then 0.0 else w

(* One candidate to a lock point, or [None] when Newton fails or lands
   on the spurious cos <= 0 branch. The refinement quadratures run in
   the grid's own [reduction] mode. *)
let refine_candidate ?points (g : Grid.t) ~phi_d (phi0, a0) =
  let nl = g.nl and n = g.n and r = g.r and vi = g.vi in
  let reduction = g.reduction in
  match refine ?points ~reduction nl ~n ~r ~vi ~phi_d ~phi0 ~a0 with
  | Some (phi, a) when a > 0.0 ->
    let i1 = Df.i1_two_tone ?points ~reduction nl ~n ~a ~vi ~phi in
    let m = Cx.neg i1 in
    if Float.abs (Angle.wrap_pi (Cx.arg m +. phi_d)) < Float.pi /. 2.0 then
      Some (canonical_phi phi, a)
    else None
  | Some _ | None -> None

(* two solutions are the same within small tolerances *)
let duplicate kept (phi, a) =
  List.exists
    (fun (phi', a') ->
      Angle.dist phi phi' < 1e-5 && Float.abs (a -. a') < 1e-7 *. (1.0 +. a))
    kept

(* Folds refined candidates, in order, into the kept set (newest
   first): a point joins unless it duplicates one kept before it.
   Returns the new kept set and the points that joined, in order. *)
let dedup kept refined =
  List.fold_left
    (fun (kept, fresh) -> function
      | Some p when not (duplicate kept p) -> (p :: kept, p :: fresh)
      | Some _ | None -> (kept, fresh))
    (kept, []) refined
  |> fun (kept, fresh) -> (kept, List.rev fresh)

let classify_all ?points (g : Grid.t) ~phi_d pts =
  let nl = g.nl and n = g.n and r = g.r and vi = g.vi in
  let reduction = g.reduction in
  (* 8 flow evaluations per point, independent per point *)
  let pts =
    Numerics.Pool.parallel_map_array ~chunk:1
      (fun (phi, a) -> classify ?points ~reduction nl ~n ~r ~vi ~phi_d ~phi ~a)
      (Array.of_list pts)
    |> Array.to_list
  in
  Obs.Metrics.incr ~by:(List.length pts) "shil.solutions.classified";
  pts

(* Refines a slice of candidates, fanned out over the pool in candidate
   order (each is a 2-D Newton iteration full of describing-function
   quadratures). *)
let refine_all ?points g ~phi_d cands =
  Obs.Metrics.incr ~by:(Array.length cands) "shil.solutions.candidates";
  let refined =
    Numerics.Pool.parallel_map_array ~chunk:1 (refine_candidate ?points g ~phi_d)
      cands
    |> Array.to_list
  in
  Obs.Metrics.incr
    ~by:(List.length (List.filter Option.is_none refined))
    "shil.solutions.refine_fails";
  refined

let with_span ~phi_d f =
  Obs.Span.with_ ~cat:"shil" ~name:"shil.solutions.find"
    ~attrs:[ ("phi_d", Printf.sprintf "%g" phi_d) ]
    f

let find ?points (g : Grid.t) ~phi_d =
  with_span ~phi_d @@ fun () ->
  let refined = refine_all ?points g ~phi_d (candidates g ~phi_d) in
  let kept, _ = dedup [] refined in
  List.sort
    (fun p q -> Float.compare p.phi q.phi)
    (classify_all ?points g ~phi_d kept)

(* [find]'s work in waves as wide as the pool, stopping at the first
   stable point. Same answer as [List.exists stable (find g)]: waves
   refine the candidates in [find]'s order and [dedup] keeps the first
   of each cluster, so the points kept before a stop are exactly
   [find]'s first kept points, and each point's classification depends
   on that point alone. Same span name as [find], so probe time is
   attributed as before. *)
let stable_exists ?points g ~phi_d =
  with_span ~phi_d @@ fun () ->
  let cands = candidates g ~phi_d in
  let total = Array.length cands in
  let width =
    if Numerics.Pool.in_worker () then 1 else Numerics.Pool.default_size ()
  in
  let rec wave kept start =
    if start >= total then false
    else begin
      let len = min width (total - start) in
      let kept, fresh =
        dedup kept (refine_all ?points g ~phi_d (Array.sub cands start len))
      in
      let next = start + len in
      if List.exists (fun p -> p.stable) (classify_all ?points g ~phi_d fresh)
      then begin
        Obs.Metrics.incr ~by:(total - next) "shil.solutions.skipped";
        true
      end
      else wave kept next
    end
  in
  wave [] 0

let n_states p ~n =
  List.init n (fun k ->
      let psi =
        Angle.wrap_two_pi
          ((-.p.phi /. float_of_int n)
          +. (2.0 *. Float.pi *. float_of_int k /. float_of_int n))
      in
      (psi, p.a))
