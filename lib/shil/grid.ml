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
  psi : int option;
  reduction : Df.reduction;
  failures : Resilience.Summary.t;
}

(* Content address of one grid evaluation: every input that can move a
   single output bit is a field. [phis]/[amps] are derived from the
   ranges by [Kernel.linspace], so only the ranges need to appear. The
   [`Exact] key stays at version 1: the batch kernels reproduce the
   scalar quadrature bit for bit, so grids cached before the batch
   rewrite remain valid. [`Symmetry] grids are tolerance-grade and hash
   under version 2 plus an explicit reduction field. A torus grid
   carries its ψ count as a trailing [psi] field, which no direct key
   has. *)
let key_fields_of ~nl_key ~n ~r ~vi ~p_lo ~p_hi ~n_phi ~n_amp ~a_lo ~a_hi
    ~points ~psi =
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
  @ match psi with None -> [] | Some p -> [ int "psi" p ]

let versioned_key ?(exact = 1) ~kind ~reduction fields =
  match (reduction : Df.reduction) with
  | `Exact -> Cache.Key.v ~kind ~version:exact fields
  | `Symmetry ->
    Cache.Key.v ~kind ~version:(exact + 1)
      (fields @ [ Cache.Key.str "red" "sym" ])

let cache_key ?psi ~reduction ~nl_key ~n ~r ~vi ~p_lo ~p_hi ~n_phi ~n_amp
    ~a_lo ~a_hi ~points () =
  versioned_key ~kind:"shil.grid" ~reduction
    (key_fields_of ~nl_key ~n ~r ~vi ~p_lo ~p_hi ~n_phi ~n_amp ~a_lo ~a_hi
       ~points ~psi)

let key_fields g ~nl_key =
  let p_lo, p_hi = g.phi_range and a_lo, a_hi = g.a_range in
  key_fields_of ~nl_key ~n:g.n ~r:g.r ~vi:g.vi ~p_lo ~p_hi
    ~n_phi:(Array.length g.phis) ~n_amp:(Array.length g.amps) ~a_lo ~a_hi
    ~points:g.points ~psi:g.psi

let default_points = 512

(* One guarded item per row (direct) or column (torus), fault site
   [grid-point] by item index. A hole becomes [len] NaN cells: the
   contour extractors already treat NaN cells as "no curve here", so
   partial grids stay usable. *)
let guarded_sweep ~label ~len compute xs =
  let g =
    Resilience.Guard.make ~fault:"grid-point" ~label Shil ~phase:"grid"
  in
  let items = Numerics.Pool.guarded_map g compute xs in
  let nan_fill = function
    | Ok cells -> cells
    | Error _ -> Array.make len (Cx.make Float.nan Float.nan)
  in
  (Array.map nan_fill items, Resilience.Guard.summary g)

(* [`Symmetry] over the default symmetric phi range also mirrors whole
   rows: I1(A, Vi, 2π − phi) = conj I1(A, Vi, phi) for any real f (the
   prop_conjugate identity), so only the first half of the phi rows is
   computed and the rest are conjugate copies. The count of computed
   rows is also the grid's [failures.attempted], cached or not. *)
let computed_rows ~reduction ~phi_range:(p_lo, p_hi) n_phi =
  let mirror =
    reduction = `Symmetry && p_lo = 0.0 && p_hi = 2.0 *. Float.pi && n_phi > 2
  in
  if mirror then (n_phi + 1) / 2 else n_phi

(* hot loop: the trig tables shared by every (phi, A) sample come from
   the process-wide cache, and the per-row quadrature runs on the flat
   batch kernels — waveform synthesis into per-domain scratch buffers,
   one fused nonlinearity batch, one fused projection. On the [`Exact]
   path this performs the historical scalar operations in the same
   order, so each cell is bit-identical to Df.i1_two_tone's exact
   quadrature structure (and to the pre-batch implementation). *)
let sample_direct ~points ~reduction nl ~n ~vi ~phi_range:(p_lo, p_hi) ~phis
    ~amps =
  let n_phi = Array.length phis and n_amp = Array.length amps in
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
  let n_work = computed_rows ~reduction ~phi_range:(p_lo, p_hi) n_phi in
  (* rows of the (phi, A) grid are independent: fan them out over the
     default pool. Each row writes only its own slot, so the parallel
     result is bit-identical to the sequential Array.map. A mirrored
     row is the conjugate of its source, NaN for a failed one. *)
  let work, failures =
    guarded_sweep ~label:(Printf.sprintf "phi=%.6g") ~len:n_amp compute_row
      (Array.sub phis 0 n_work)
  in
  ( Array.init n_phi (fun idx ->
        if idx < n_work then work.(idx)
        else Array.map Cx.conj work.(n_phi - 1 - idx)),
    failures )

(* The torus path: one (θ, ψ) table per amplitude column, read at every
   phi through a phi-by-q cos/sin table built once per grid. Columns
   fan out over the default pool; each writes only its own slot. *)
let sample_torus ~points ~n_psi ~reduction nl ~n ~vi ~phis ~amps =
  let cos_q, sin_q = Df.torus_phases ~n_psi phis in
  let evals = Df.torus_evals ~n_theta:points ~n_psi in
  let cols, failures =
    guarded_sweep ~label:(Printf.sprintf "a=%.6g") ~len:(Array.length phis)
      (fun a ->
        Obs.Metrics.incr ~by:evals "shil.grid.f_evals";
        let t = Df.torus ~reduction ~n_theta:points ~n_psi nl ~n ~a ~vi in
        Array.mapi
          (fun i _ -> Df.torus_i1 t ~cos_q:cos_q.(i) ~sin_q:sin_q.(i))
          phis)
      amps
  in
  (Array.mapi (fun i _ -> Array.map (fun col -> col.(i)) cols) phis, failures)

let sample ?(points = default_points) ?psi ?(phi_range = (0.0, 2.0 *. Float.pi))
    ?(n_phi = 121) ?(n_amp = 101) ?(reduction = `Exact) nl ~n ~r ~vi ~a_range
    () =
  if n_phi < 2 || n_amp < 2 then invalid_arg "Grid.sample: need >= 2 samples";
  let a_lo, a_hi = a_range in
  if a_lo <= 0.0 || a_hi <= a_lo then invalid_arg "Grid.sample: bad a_range";
  let p_lo, p_hi = phi_range in
  Obs.Span.with_ ~cat:"shil" ~name:"shil.grid.sample"
    ~attrs:
      ([
         ("n_phi", string_of_int n_phi);
         ("n_amp", string_of_int n_amp);
         ("points", string_of_int points);
       ]
      @ match psi with None -> [] | Some p -> [ ("psi", string_of_int p) ])
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
        cache_key ?psi ~reduction ~nl_key ~n ~r ~vi ~p_lo ~p_hi ~n_phi ~n_amp
          ~a_lo ~a_hi ~points ())
      (Nonlinearity.cache_key nl)
  in
  let cached =
    match key with
    | None -> None
    | Some key ->
      (Cache.Store.find ~memory:false ~key ~decode:Cache.Store.of_marshal ()
        : Cx.t array array option)
  in
  let grid i1 failures =
    { nl; n; r; vi; phis; amps; phi_range; a_range; i1; points; psi;
      reduction; failures }
  in
  match cached with
  | Some i1 ->
    grid i1
      (Resilience.Summary.make
         ~attempted:
           (if Option.is_some psi then n_amp
            else computed_rows ~reduction ~phi_range n_phi)
         [])
  | None ->
    let i1, failures =
      match psi with
      | None ->
        sample_direct ~points ~reduction nl ~n ~vi ~phi_range ~phis ~amps
      | Some n_psi ->
        sample_torus ~points ~n_psi ~reduction nl ~n ~vi ~phis ~amps
    in
    if Resilience.Summary.is_clean failures then
      Option.iter
        (fun key ->
          Cache.Store.add ~memory:false ~key ~encode:Cache.Store.to_marshal i1)
        key;
    grid i1 failures

let t_f_field g =
  Array.mapi
    (fun i _ ->
      Array.mapi
        (fun j a -> (-.g.r *. Cx.re g.i1.(i).(j) /. (a /. 2.0)) -. 1.0)
        g.amps)
    g.phis

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
