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

(* The boundary search: one guarded probe at the centre, then
   [Numerics.Roots.edge] over phi_d = min (cap, 0.05 2^k). A probe that
   raises is a typed hole, counted as unstable, so the predicted range
   only shrinks. The lock-point set at [phi_d = 0] is forced by the
   first probe and returned: [predict] reports it as [at_center], so
   one find serves both. *)
let boundary ?points ~phi_d_cap ~tol g =
  Obs.Span.with_ ~cat:"shil" ~name:"shil.lockrange.boundary" @@ fun () ->
  let center = lazy (Solutions.find ?points g ~phi_d:0.0) in
  let guard =
    Numerics.Roots.guard ~fault:"lock-probe" ~counter:"shil.lockrange.probes"
      Shil ~phase:"lockrange" ~label:(Printf.sprintf "phi_d=%.6g")
  in
  let at_center () =
    List.exists (fun (p : Solutions.point) -> p.stable) (Lazy.force center)
  in
  let phi_d_max =
    if not (guard.guarded 0.0 at_center) then 0.0
    else
      (* the boundary is usually well inside: double up to the cap *)
      let rec outward x =
        if x >= phi_d_cap then [ phi_d_cap ] else x :: outward (x *. 2.0)
      in
      match
        Numerics.Roots.edge ~site:"shil.lockrange.phi_d" guard
          ~probe:(fun phi_d -> Solutions.stable_exists ?points g ~phi_d)
          ~inside:0.0 ~outward:(outward 0.05) ~tol
      with
      | Bracketed (lo, hi) -> 0.5 *. (lo +. hi)
      | Not_bracketed cap -> cap
  in
  (phi_d_max, center, guard.summary ())

let default_phi_d_cap = 1.4
let default_tol = 1e-5

let phi_d_boundary ?points ?(phi_d_cap = default_phi_d_cap)
    ?(tol = default_tol) g =
  let phi_d_max, _, _ = boundary ?points ~phi_d_cap ~tol g in
  phi_d_max

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
  let phi_d_max, center, probe_failures = boundary ?points ~phi_d_cap ~tol g in
  let n = float_of_int g.n in
  (* phi_d > 0 below resonance: omega(+phi_d_max) is the lower edge; no
     stable lock at the centre leaves no band *)
  let f_osc phi_d =
    if phi_d_max <= 0.0 then Float.nan
    else Tank.omega_of_phase tank ~phi_d /. (2.0 *. Float.pi)
  in
  let f_osc_low = f_osc phi_d_max and f_osc_high = f_osc (-.phi_d_max) in
  {
    phi_d_max;
    f_osc_low;
    f_osc_high;
    f_inj_low = n *. f_osc_low;
    f_inj_high = n *. f_osc_high;
    delta_f_inj =
      (if phi_d_max <= 0.0 then 0.0 else n *. (f_osc_high -. f_osc_low));
    at_center = Lazy.force center;
    (* holes from the underlying grid travel with the prediction *)
    failures = Resilience.Summary.merge g.failures probe_failures;
  }

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
