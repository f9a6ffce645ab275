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

(* The residual pair of eq. 4 at amplitude [a] from [m = -I_1]; an
   [m] of magnitude 0 has no phase, and its infinite residual makes a
   line search back off. *)
let residual_pair ~r ~phi_d ~a m =
  let mag = Cx.abs m in
  ( (r *. Cx.re m /. (a /. 2.0)) -. 1.0,
    if mag = 0.0 then infinity
    else ((Cx.im m *. cos phi_d) +. (Cx.re m *. sin phi_d)) /. mag )

let residuals ?points ?reduction nl ~n ~r ~vi ~phi_d (phi, a) =
  if a <= 0.0 then (infinity, infinity)
  else
    residual_pair ~r ~phi_d ~a
      (Cx.neg (Df.i1_two_tone ?points ?reduction nl ~n ~a ~vi ~phi))

(* derivatives of |m| and of arg m along a direction [dm] of m *)
let d_abs m dm = ((Cx.re m *. Cx.re dm) +. (Cx.im m *. Cx.im dm)) /. Cx.abs m

let d_arg m dm =
  let mag = Cx.abs m in
  ((Cx.re m *. Cx.im dm) -. (Cx.im m *. Cx.re dm)) /. (mag *. mag)

(* Reduced restoring flow (§VI-B3): dA/dt = F1 = T_F - 1 with
   T_F = 2 R |m| cos phi_d / A, dphi/dt = F2 = -(arg m + phi_d), where
   m = -I1. Stable iff the Jacobian d(F1,F2)/d(A,phi) has negative
   trace and positive determinant: the rigorous form of the paper's
   slope-comparison rule. The Jacobian is exact, from the derivatives
   of the fused pass at the point. *)
let classify ~r ~phi_d ~phi ~a (d : Df.jacobian) =
  let m = Cx.neg d.i1 and m_a = Cx.neg d.d_a and m_phi = Cx.neg d.d_phi in
  let k = 2.0 *. r *. cos phi_d /. a in
  let j11 = k *. (d_abs m m_a -. (Cx.abs m /. a)) in
  let j12 = k *. d_abs m m_phi in
  let j21 = -.d_arg m m_a and j22 = -.d_arg m m_phi in
  let trace = j11 +. j22 in
  let det = (j11 *. j22) -. (j12 *. j21) in
  { phi; a; stable = trace < 0.0 && det > 0.0; trace; det }

(* A lock point symmetric about phi = 0 converges to +-1e-17, which
   wraps to 0 or to 2 pi depending on the last ulp. Snapping it to 0
   keeps its printed phase and its place in the phi-sorted list from
   hanging on rounding. *)
let canonical_phi phi =
  let w = Angle.wrap_two_pi phi in
  if w < 1e-9 || Angle.two_pi -. w < 1e-9 then 0.0 else w

(* One candidate to a classified lock point, by Newton on the exact
   residuals in the grid's own [reduction] mode; [None] when Newton
   fails, the fault site [roots-fail] fires, or the point lies on the
   spurious cos <= 0 branch. *)
let refine ?points (g : Grid.t) ~phi_d (phi0, a0) =
  let { Grid.nl; n; r; vi; reduction; _ } = g in
  if Resilience.Fault.fire "roots-fail" then None
  else begin
    (* the last fused pass: on convergence, the returned point's *)
    let last = ref None in
    let eval ~x ~jac ~res =
      let phi = x.(0) and a = x.(1) in
      let d =
        if a <= 0.0 then None
        else Some (Df.i1_jacobian ?points ~reduction nl ~n ~a ~vi ~phi)
      in
      last := d;
      match d with
      | Some d when Cx.abs d.i1 > 0.0 ->
        let m = Cx.neg d.i1 and m_a = Cx.neg d.d_a and m_phi = Cx.neg d.d_phi in
        let r1, r2 = residual_pair ~r ~phi_d ~a m in
        res.(0) <- r1;
        res.(1) <- r2;
        (* r1 = 2 R Re m / A - 1, r2 = (Im m cos phi_d + Re m sin phi_d) / |m| *)
        let k = 2.0 *. r /. a in
        let dr2 dm =
          let dn = (Cx.im dm *. cos phi_d) +. (Cx.re dm *. sin phi_d) in
          (dn -. (r2 *. d_abs m dm)) /. Cx.abs m
        in
        jac.(0).(0) <- k *. Cx.re m_phi;
        jac.(0).(1) <- k *. (Cx.re m_a -. (Cx.re m /. a));
        jac.(1).(0) <- dr2 m_phi;
        jac.(1).(1) <- dr2 m_a
      | Some _ | None ->
        (* no residual here: the line search backs off, and a start
           point here fails on its zero Jacobian *)
        Array.iter (fun row -> Array.fill row 0 2 0.0) jac;
        Array.fill res 0 2 infinity
    in
    let stop ~iter ~residual ~stalled ~x:_ =
      if residual < 1e-12 then Newton.Converged
      else if stalled then begin
        Obs.Metrics.incr "shil.solutions.refine_stalls";
        Newton.Failed "line search stalled"
      end
      else if iter < 60 then Newton.Continue
      else Newton.Failed "no convergence in 60 iterations"
    in
    let x = [| phi0; a0 |] in
    let o =
      Newton.solve ~ectx:(Obs.Event.ctx ~cell:(phi0, a0) "shil.refine")
        ~ws:(Newton.workspace 2) ~update:Line_search ~eval
        ~stop:(Before_step stop) x
    in
    match !last with
    | Some d when o.converged ->
      let phi = x.(0) and a = x.(1) in
      (* the cos <= 0 branch solves eq. 4 with T_F = -1: spurious *)
      if Float.abs (Angle.wrap_pi (Cx.arg (Cx.neg d.i1) +. phi_d)) < Float.pi /. 2.0
      then Some (classify ~r ~phi_d ~phi:(canonical_phi phi) ~a d)
      else None
    | Some _ | None -> None
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

(* two solutions are the same within small tolerances *)
let duplicate kept p =
  List.exists
    (fun q ->
      Angle.dist p.phi q.phi < 1e-5 && Float.abs (p.a -. q.a) < 1e-7 *. (1.0 +. p.a))
    kept

(* Folds refined candidates, in order, into the kept set (newest
   first): a point joins unless it duplicates one kept before it.
   Returns the new kept set and the points that joined, in order, and
   counts those as classified. *)
let dedup kept refined =
  List.fold_left
    (fun (kept, fresh) -> function
      | Some p when not (duplicate kept p) -> (p :: kept, p :: fresh)
      | Some _ | None -> (kept, fresh))
    (kept, []) refined
  |> fun (kept, fresh) ->
  Obs.Metrics.incr ~by:(List.length fresh) "shil.solutions.classified";
  (kept, List.rev fresh)

(* Refines a slice of candidates to classified points, fanned out over
   the pool in candidate order (each is a 2-D Newton iteration full of
   describing-function passes). *)
let refine_all ?points g ~phi_d cands =
  Obs.Metrics.incr ~by:(Array.length cands) "shil.solutions.candidates";
  let refined =
    Numerics.Pool.parallel_map_array ~chunk:1 (refine ?points g ~phi_d) cands
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
  List.sort (fun p q -> Float.compare p.phi q.phi) kept

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
      if List.exists (fun p -> p.stable) fresh then begin
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
