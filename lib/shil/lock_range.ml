type t = {
  phi_d_max : float;
  f_osc_low : float;
  f_osc_high : float;
  f_inj_low : float;
  f_inj_high : float;
  delta_f_inj : float;
  at_center : Solutions.point list;
  failures : Resilience.Summary.t;
}

(* The boundary bisection with typed holes: a probe that raises is
   recorded and conservatively counted as unstable, shrinking (never
   widening) the predicted range. [center] is the lock-point set at
   [phi_d = 0], forced by the first probe: [predict] reports the same
   set as [at_center], so one find serves both. *)
let boundary_with_failures ?points ~center ~phi_d_cap ~tol g =
  Obs.Span.with_ ~cat:"shil" ~name:"shil.lockrange.boundary" @@ fun () ->
  let holes = ref [] and attempts = ref 0 in
  let probe_stable phi_d exists =
    incr attempts;
    Obs.Metrics.incr "shil.lockrange.probes";
    match
      if Resilience.Deadline.expired () then
        raise
          (Resilience.Oshil_error.Error
             (Resilience.Deadline.error Shil ~phase:"lockrange"))
      else if Resilience.Fault.fire "lock-probe" then
        raise
          (Resilience.Oshil_error.Error
             (Resilience.Fault.error ~site:"lock-probe" Shil ~phase:"lockrange"))
      else exists ()
    with
    | s -> s
    | exception e ->
      let err = Resilience.Oshil_error.of_exn Shil ~phase:"lockrange" e in
      if Resilience.Policy.fail_fast () then
        raise (Resilience.Oshil_error.Error err);
      Obs.Metrics.incr "resilience.lockrange.holes";
      holes :=
        { Resilience.Summary.site = Printf.sprintf "phi_d=%.6g" phi_d;
          error = err }
        :: !holes;
      false
  in
  let stable phi_d =
    probe_stable phi_d (fun () -> Solutions.stable_exists ?points g ~phi_d)
  in
  let stable_at_center () =
    probe_stable 0.0 (fun () ->
        List.exists (fun (p : Solutions.point) -> p.stable) (Lazy.force center))
  in
  let phi_d_max =
    if not (stable_at_center ()) then 0.0
    else begin
      (* grow an upper bound first: the boundary is usually well inside *)
      let probe ~lo ~hi x =
        let s = stable x in
        if Obs.Event.enabled () then
          Obs.Event.emit
            (Obs.Event.Bracket
               { site = "shil.lockrange.phi_d"; lo; hi; probe = x; hit = s });
        s
      in
      let rec find_unstable lo hi =
        if hi >= phi_d_cap then (lo, phi_d_cap)
        else if probe ~lo ~hi hi then
          find_unstable hi (Float.min phi_d_cap (hi *. 2.0))
        else (lo, hi)
      in
      let lo0, hi0 = find_unstable 0.0 0.05 in
      if probe ~lo:lo0 ~hi:hi0 hi0 then hi0 (* stable all the way to the cap *)
      else begin
        let lo = ref lo0 and hi = ref hi0 in
        while !hi -. !lo > tol do
          let mid = 0.5 *. (!lo +. !hi) in
          if probe ~lo:!lo ~hi:!hi mid then lo := mid else hi := mid
        done;
        0.5 *. (!lo +. !hi)
      end
    end
  in
  (phi_d_max, Resilience.Summary.make ~attempted:!attempts (List.rev !holes))

let default_phi_d_cap = 1.4
let default_tol = 1e-5

let phi_d_boundary ?points ?(phi_d_cap = default_phi_d_cap)
    ?(tol = default_tol) g =
  let center = lazy (Solutions.find ?points g ~phi_d:0.0) in
  fst (boundary_with_failures ?points ~center ~phi_d_cap ~tol g)

(* Content address of one prediction: every input of the grid it is
   read from, the tank that maps phases to frequencies, and the probe
   settings. [points] is the refinement quadrature, resolved to its
   default. This entry is what makes a repeated request cheap: it
   replaces a boundary search of tens of [Solutions.find] calls. *)
let cache_key (g : Grid.t) ~nl_key ~(tank : Tank.t) ~points ~phi_d_cap ~tol =
  let open Cache.Key in
  Grid.versioned_key ~exact:3 ~kind:"shil.lockrange" ~reduction:g.reduction
    (Grid.key_fields g ~nl_key
    @ [
        float "tank_r" tank.r;
        float "l" tank.l;
        float "c" tank.c;
        int "refine_points" points;
        float "phi_d_cap" phi_d_cap;
        float "tol" tol;
      ])

let predict_uncached ?points ~phi_d_cap ~tol (g : Grid.t) ~tank =
  let center = lazy (Solutions.find ?points g ~phi_d:0.0) in
  let phi_d_max, probe_failures =
    boundary_with_failures ?points ~center ~phi_d_cap ~tol g
  in
  let at_center = Lazy.force center in
  (* holes from the underlying grid travel with the prediction *)
  let failures = Resilience.Summary.merge g.failures probe_failures in
  let two_pi = 2.0 *. Float.pi in
  let n = float_of_int g.n in
  if phi_d_max <= 0.0 then
    {
      phi_d_max = 0.0;
      f_osc_low = Float.nan;
      f_osc_high = Float.nan;
      f_inj_low = Float.nan;
      f_inj_high = Float.nan;
      delta_f_inj = 0.0;
      at_center;
      failures;
    }
  else begin
    (* phi_d > 0 below resonance: omega(+phi_d_max) is the lower edge *)
    let w_low = Tank.omega_of_phase tank ~phi_d:phi_d_max in
    let w_high = Tank.omega_of_phase tank ~phi_d:(-.phi_d_max) in
    let f_osc_low = w_low /. two_pi and f_osc_high = w_high /. two_pi in
    {
      phi_d_max;
      f_osc_low;
      f_osc_high;
      f_inj_low = n *. f_osc_low;
      f_inj_high = n *. f_osc_high;
      delta_f_inj = n *. (f_osc_high -. f_osc_low);
      at_center;
      failures;
    }
  end

let predict ?points ?(phi_d_cap = default_phi_d_cap) ?(tol = default_tol)
    (g : Grid.t) ~tank =
  if Float.abs ((tank : Tank.t).r -. g.r) > 1e-9 *. g.r then
    invalid_arg "Lock_range.predict: grid and tank R differ";
  Obs.Span.with_ ~cat:"shil" ~name:"shil.lockrange.predict" @@ fun () ->
  let compute () = predict_uncached ?points ~phi_d_cap ~tol g ~tank in
  (* a holed grid holds other numbers than a clean one with the same
     inputs, so only clean grids are keyed on their inputs; and only a
     prediction without probe holes is stored, so a hit is bit-identical
     to a cold clean run. An armed fault plan bypasses the entry both
     ways: a faulted refine (roots-fail) drops lock points without
     leaving a hole, and a hit would skip the sites the plan targets. *)
  let key =
    if
      Cache.Store.enabled ()
      && (not (Resilience.Fault.armed ()))
      && Resilience.Summary.is_clean g.failures
    then
      let points =
        Option.value points ~default:Describing_function.default_points
      in
      Option.map
        (fun nl_key -> cache_key g ~nl_key ~tank ~points ~phi_d_cap ~tol)
        (Nonlinearity.cache_key g.nl)
    else None
  in
  match key with
  | None -> compute ()
  | Some key ->
    Cache.Store.find_or_compute ~key
      ~cache_if:(fun (t : t) -> Resilience.Summary.is_clean t.failures)
      ~encode:Cache.Store.to_marshal ~decode:Cache.Store.of_marshal compute

let pp ppf t =
  Format.fprintf ppf
    "@[<v>lock range: phi_d_max = %.6g rad@,\
     oscillator band: [%.8g, %.8g] Hz@,\
     injection band:  [%.8g, %.8g] Hz (delta = %.6g Hz)@]"
    t.phi_d_max t.f_osc_low t.f_osc_high t.f_inj_low t.f_inj_high
    t.delta_f_inj
