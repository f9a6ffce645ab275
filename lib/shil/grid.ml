module Cx = Numerics.Cx
module Df = Describing_function
module Kernel = Numerics.Kernel

type t = {
  nl : Nonlinearity.t;
  n : int;
  r : float;
  vi : float;
  phis : float array;
  amps : float array;
  phi_range : float * float;
  a_range : float * float;
  i1 : Cx.t array array;
  points : int;
  reduction : Df.reduction;
  failures : Resilience.Summary.t;
}

(* Content address of one grid evaluation: every input that can move a
   single output bit is a field. [phis]/[amps] are derived from the
   ranges by [Kernel.linspace], so only the ranges need to appear. The
   [`Exact] key stays at version 1: the batch kernels reproduce the
   scalar quadrature bit for bit, so grids cached before the batch
   rewrite remain valid. [`Symmetry] grids are tolerance-grade and hash
   under version 2 plus an explicit reduction field. *)
let key_fields_of ~nl_key ~n ~r ~vi ~p_lo ~p_hi ~n_phi ~n_amp ~a_lo ~a_hi
    ~points =
  let open Cache.Key in
  [
    str "nl" nl_key;
    int "n" n;
    float "r" r;
    float "vi" vi;
    float "p_lo" p_lo;
    float "p_hi" p_hi;
    int "n_phi" n_phi;
    int "n_amp" n_amp;
    float "a_lo" a_lo;
    float "a_hi" a_hi;
    int "points" points;
  ]

let versioned_key ~kind ~reduction fields =
  match (reduction : Df.reduction) with
  | `Exact -> Cache.Key.v ~kind ~version:1 fields
  | `Symmetry ->
    Cache.Key.v ~kind ~version:2 (fields @ [ Cache.Key.str "red" "sym" ])

let cache_key ~reduction ~nl_key ~n ~r ~vi ~p_lo ~p_hi ~n_phi ~n_amp ~a_lo
    ~a_hi ~points =
  versioned_key ~kind:"shil.grid" ~reduction
    (key_fields_of ~nl_key ~n ~r ~vi ~p_lo ~p_hi ~n_phi ~n_amp ~a_lo ~a_hi
       ~points)

let key_fields g ~nl_key =
  let p_lo, p_hi = g.phi_range and a_lo, a_hi = g.a_range in
  key_fields_of ~nl_key ~n:g.n ~r:g.r ~vi:g.vi ~p_lo ~p_hi
    ~n_phi:(Array.length g.phis) ~n_amp:(Array.length g.amps) ~a_lo ~a_hi
    ~points:g.points

let default_points = 512

let sample ?(points = default_points) ?(phi_range = (0.0, 2.0 *. Float.pi))
    ?(n_phi = 121) ?(n_amp = 101) ?(reduction = `Exact) nl ~n ~r ~vi ~a_range
    () =
  if n_phi < 2 || n_amp < 2 then invalid_arg "Grid.sample: need >= 2 samples";
  let a_lo, a_hi = a_range in
  if a_lo <= 0.0 || a_hi <= a_lo then invalid_arg "Grid.sample: bad a_range";
  let p_lo, p_hi = phi_range in
  Obs.Span.with_ ~cat:"shil" ~name:"shil.grid.sample"
    ~attrs:
      [
        ("n_phi", string_of_int n_phi);
        ("n_amp", string_of_int n_amp);
        ("points", string_of_int points);
      ]
  @@ fun () ->
  let phis = Kernel.linspace p_lo p_hi n_phi in
  let amps = Kernel.linspace a_lo a_hi n_amp in
  (* cacheable iff the nonlinearity carries a canonical identity; the
     stored value is just the [i1] matrix — [phis]/[amps] are rebuilt
     deterministically above, and only clean grids (no typed holes) are
     ever stored, so a hit is bit-identical to a cold clean run. A tile
     is ~200 KB at the default size and a repeated analysis is served
     by the [shil.lockrange] entry built on it, so tiles live on the
     disk tier only: in memory they would crowd out the small
     request-level entries. *)
  let key =
    Option.map
      (fun nl_key ->
        cache_key ~reduction ~nl_key ~n ~r ~vi ~p_lo ~p_hi ~n_phi ~n_amp ~a_lo
          ~a_hi ~points)
      (Nonlinearity.cache_key nl)
  in
  let cached =
    match key with
    | None -> None
    | Some key ->
      (Cache.Store.find ~memory:false ~key ~decode:Cache.Store.of_marshal ()
        : Cx.t array array option)
  in
  match cached with
  | Some i1 ->
    {
      nl;
      n;
      r;
      vi;
      phis;
      amps;
      phi_range;
      a_range;
      i1;
      points;
      reduction;
      failures = Resilience.Summary.make ~attempted:n_phi [];
    }
  | None ->
  (* hot loop: the trig tables shared by every (phi, A) sample come from
     the process-wide cache, and the per-row quadrature runs on the flat
     batch kernels — waveform synthesis into per-domain scratch buffers,
     one fused nonlinearity batch, one fused projection. On the [`Exact]
     path this performs the historical scalar operations in the same
     order, so each cell is bit-identical to Df.i1_two_tone's exact
     quadrature structure (and to the pre-batch implementation). *)
  let cos_t, sin_t = Numerics.Trig_tables.get ~points ~k:1 in
  let cos_nt, sin_nt = Numerics.Trig_tables.get ~points ~k:n in
  let exact = match reduction with `Exact -> true | `Symmetry -> false in
  (* [`Symmetry]: odd f and odd n make the projected integrand
     π-periodic, so half the quadrature samples suffice (harmonic k = 1
     is odd) *)
  let half =
    (not exact) && Nonlinearity.odd nl && n land 1 = 1 && points land 1 = 0
  in
  let m = if half then points / 2 else points in
  let compute_row phi =
    (* one full row: n_amp amplitudes x m quadrature samples *)
    Obs.Metrics.incr ~by:(n_amp * m) "shil.grid.f_evals";
    let cp = 2.0 *. vi *. cos phi and sp = 2.0 *. vi *. sin phi in
    Kernel.with_bufs ~len:points 4 @@ fun bufs ->
    let inj_cos = bufs.(0)
    and inj_sin = bufs.(1)
    and wave = bufs.(2)
    and cur = bufs.(3) in
    for s = 0 to m - 1 do
      inj_cos.(s) <- cp *. cos_nt.(s);
      inj_sin.(s) <- sp *. sin_nt.(s)
    done;
    Array.map
      (fun a ->
        Kernel.synth_two_tone ~a ~cos_t ~inj_cos ~inj_sin ~dst:wave ~n:m;
        if exact then Nonlinearity.eval_batch ~n:m nl ~src:wave ~dst:cur
        else Nonlinearity.eval_batch_fast ~n:m nl ~src:wave ~dst:cur;
        let re, im = Kernel.dot2 ~n:m cur ~cos_t ~sin_t in
        Cx.make (re /. float_of_int m) (im /. float_of_int m))
      amps
  in
  (* [`Symmetry] over the default symmetric phi range also mirrors
     whole rows: I1(A, Vi, 2π − phi) = conj I1(A, Vi, phi) for any real
     f (the prop_conjugate identity), so only the first half of the phi
     rows is computed and the rest are conjugate copies. *)
  let mirror =
    (not exact) && p_lo = 0.0 && p_hi = 2.0 *. Float.pi && n_phi > 2
  in
  let n_work = if mirror then (n_phi + 1) / 2 else n_phi in
  (* rows of the (phi, A) grid are independent: fan them out over the
     default pool. Each row writes only its own slot, so the parallel
     result is bit-identical to the sequential Array.map. *)
  (* the submitting thread's deadline, captured by absolute value: pool
     workers run on their own domains and do not inherit it *)
  let deadline = Resilience.Deadline.save () in
  let work =
    Numerics.Pool.parallel_init n_work (fun idx ->
        if Resilience.Deadline.expired_abs deadline then
          Error (Resilience.Deadline.error Shil ~phase:"grid")
        else if Resilience.Fault.fire_at "grid-point" ~k:idx then
          Error (Resilience.Fault.error ~site:"grid-point" Shil ~phase:"grid")
        else
          match compute_row phis.(idx) with
          | row -> Ok row
          | exception e ->
            Error (Resilience.Oshil_error.of_exn Shil ~phase:"grid" e))
  in
  let rows =
    Array.init n_phi (fun idx ->
        if idx < n_work then work.(idx)
        else
          match work.(n_phi - 1 - idx) with
          | Ok row -> Ok (Array.map Cx.conj row)
          | Error e -> Error e)
  in
  (* failed rows become NaN holes: the contour extractors already treat
     NaN cells as "no curve here", so partial grids stay usable *)
  let holes = ref [] in
  let i1 =
    Array.mapi
      (fun idx result ->
        match result with
        | Ok row -> row
        | Error e ->
          if Resilience.Policy.fail_fast () then
            raise (Resilience.Oshil_error.Error e);
          Obs.Metrics.incr "resilience.grid.holes";
          holes :=
            { Resilience.Summary.site = Printf.sprintf "phi=%.6g" phis.(idx);
              error = e }
            :: !holes;
          Array.map (fun _ -> Cx.make Float.nan Float.nan) amps)
      rows
  in
  let failures = Resilience.Summary.make ~attempted:n_phi (List.rev !holes) in
  if Resilience.Summary.is_clean failures then
    Option.iter
      (fun key ->
        Cache.Store.add ~memory:false ~key ~encode:Cache.Store.to_marshal i1)
      key;
  { nl; n; r; vi; phis; amps; phi_range; a_range; i1; points; reduction;
    failures }

let t_f_field g =
  Array.mapi
    (fun i _ ->
      Array.mapi
        (fun j a -> (-.g.r *. Cx.re g.i1.(i).(j) /. (a /. 2.0)) -. 1.0)
        g.amps)
    g.phis

let arg_minus_i1_field g =
  Array.map (fun row -> Array.map (fun z -> Cx.arg (Cx.neg z)) row) g.i1

let phase_field g ~phi_d =
  Array.map
    (fun row ->
      Array.map
        (fun z ->
          let m = Cx.neg z in
          (* sin(arg m + phi_d) computed without atan2 for smoothness *)
          let mag = Cx.abs m in
          if mag = 0.0 then nan
          else ((Cx.im m *. cos phi_d) +. (Cx.re m *. sin phi_d)) /. mag)
        row)
    g.i1

let clamp lo hi v = Float.max lo (Float.min hi v)

let interp_i1 g ~phi ~a =
  let locate grid v =
    let n = Array.length grid in
    let v = clamp grid.(0) grid.(n - 1) v in
    let lo = ref 0 and hi = ref (n - 1) in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if grid.(mid) <= v then lo := mid else hi := mid
    done;
    let t = (v -. grid.(!lo)) /. (grid.(!hi) -. grid.(!lo)) in
    (!lo, t)
  in
  let i, ti = locate g.phis phi in
  let j, tj = locate g.amps a in
  let mix a b t = Cx.add (Cx.scale (1.0 -. t) a) (Cx.scale t b) in
  mix
    (mix g.i1.(i).(j) g.i1.(i + 1).(j) ti)
    (mix g.i1.(i).(j + 1) g.i1.(i + 1).(j + 1) ti)
    tj

let phase_cos_ok g ~phi_d (phi, a) =
  let m = Cx.neg (interp_i1 g ~phi ~a) in
  let mag = Cx.abs m in
  mag > 0.0
  && ((Cx.re m *. cos phi_d) -. (Cx.im m *. sin phi_d)) /. mag > 0.0

(* The C_{T_f,1} extraction is phi_d-invariant (§III-C), and a boundary
   search probes the SAME grid dozens of times with different phi_d —
   each probe re-deriving the field and re-running marching squares is
   pure overhead. One-slot memo keyed by grid identity: the access
   pattern is always "many probes against the latest grid". A lost race
   just recomputes an identical value. *)
let tf_memo = Atomic.make None

let t_f_curve g =
  match Atomic.get tf_memo with
  (* mlint: allow phys-eq — identity-keyed memo *)
  | Some (g', curves) when g' == g -> curves
  | _ ->
    let curves =
      Contour.polylines ~xs:g.phis ~ys:g.amps ~field:(t_f_field g) ~level:0.0
    in
    Atomic.set tf_memo (Some (g, curves));
    curves

let phase_curve g ~phi_d =
  let segs =
    Contour.segments ~xs:g.phis ~ys:g.amps ~field:(phase_field g ~phi_d)
      ~level:0.0
  in
  let segs = Contour.filter_segments (phase_cos_ok g ~phi_d) segs in
  let span =
    Float.max
      (g.phis.(Array.length g.phis - 1) -. g.phis.(0))
      (g.amps.(Array.length g.amps - 1) -. g.amps.(0))
  in
  Contour.chain ~tol:(1e-7 *. span) segs
