module Cx = Numerics.Cx
module Linalg = Numerics.Linalg
module Err = Resilience.Oshil_error

let two_pi = 2.0 *. Float.pi

type solution = {
  f0 : float;
  k_max : int;
  samples : int;
  nodes : string array;
  spectra : Cx.t array array;
  osc_node : int;
  x : float array;
  iters : int;
  residual : float;
}

let amplitude s = 2.0 *. Cx.abs s.spectra.(s.osc_node).(1)

let thd s =
  let sp = s.spectra.(s.osc_node) in
  let p = ref 0.0 in
  for k = 2 to s.k_max do
    let m = Cx.abs sp.(k) in
    p := !p +. (m *. m)
  done;
  let f1 = Cx.abs sp.(1) in
  if f1 > 0.0 then sqrt !p /. f1 else 0.0

(* --- caching --------------------------------------------------------- *)

let cached ?ident ~mode ~k_max ~samples ~tol ~fields compute =
  match ident with
  | Some id when Cache.Store.enabled () ->
    let key =
      let open Cache.Key in
      v ~kind:"hb" ~version:2
        ([
           str "circuit" id;
           str "mode" mode;
           int "kmax" k_max;
           int "samples" samples;
           float "tol" tol;
         ]
        @ fields)
    in
    Cache.Store.find_or_compute ~key ~encode:Cache.Store.to_marshal
      ~decode:Cache.Store.of_marshal compute
  | _ -> compute ()

let mk_solution sys ~f0 ~osc_node ~x ~iters ~residual =
  {
    f0;
    k_max = System.k_max sys;
    samples = System.samples sys;
    nodes = System.node_names sys;
    spectra = System.spectra sys ~x;
    osc_node;
    x;
    iters;
    residual;
  }

(* --- autonomous oscillator: oscprobe --------------------------------- *)

(* a converged fundamental below this share of the seed amplitude is
   the trivial orbit X = 0, which every autonomous system has *)
let trivial_share = 1e-6

let oscprobe ?ident ?(k_max = 7) ?(samples = 1024) ?(tol = 1e-12) ~f_guess
    ~a_guess circuit =
  Obs.Span.with_ ~cat:"hb" ~name:"hb.oscprobe" @@ fun () ->
  let sys = System.compile ~k_max ~samples circuit in
  let node =
    match System.osc_node sys with
    | Some i -> i
    | None ->
      Err.raise_ Shil ~phase:"hb" No_oscillation
        "circuit has no nonlinear device to sustain an oscillation"
        ~remedy:"oscprobe needs an active nonlinearity; add one or use AC \
                 analysis"
  in
  let compute () =
    (* the seed orbit: the node's fundamental at (a_guess / 2, 0), all
       else zero; the gauge keeps Im X_1 = 0 there *)
    let x0 = Array.make (System.size sys) 0.0 in
    x0.(System.idx sys node 1) <- a_guess /. 2.0;
    let asm = System.assemble sys ~omega0:(two_pi *. f_guess) in
    let x, st = Solve.solve ~tol ~x0 ~gauge:node asm in
    let sol =
      mk_solution sys ~f0:(st.Solve.omega /. two_pi) ~osc_node:node ~x
        ~iters:st.Solve.iters ~residual:st.Solve.residual
    in
    if not (amplitude sol >= trivial_share *. Float.abs a_guess) then
      Err.raise_ Shil ~phase:"hb" No_oscillation
        (Printf.sprintf
           "the solve converged to the trivial orbit (amplitude %.3g V)"
           (amplitude sol))
        ~context:
          [
            ("f_guess", Printf.sprintf "%.6g" f_guess);
            ("a_guess", Printf.sprintf "%.6g" a_guess);
          ]
        ~remedy:"seed the amplitude nearer the oscillation's, e.g. at the \
                 describing-function amplitude";
    sol
  in
  cached ?ident ~mode:"oscprobe" ~k_max ~samples ~tol
    ~fields:
      Cache.Key.[ float "fguess" f_guess; float "aguess" a_guess ]
    compute

(* --- injected-tone SHIL ---------------------------------------------- *)

type verdict = {
  locked : bool;
  f_inj : float;
  n_sub : int;
  amp : float;
  lock_phase : float;
  sol : solution;
}

let check_layout sys free =
  if
    Array.length free.x <> System.size sys
    || free.nodes <> System.node_names sys
  then
    Err.raise_ Shil ~phase:"hb" Parse_failure
      "circuit does not match the free-running solution's layout"
      ~remedy:"inject through an Isource (no new nodes or branches) and keep \
               k_max/samples"

let injected_solve ~x0 ~tol ~free ~n ~f_inj sys =
  let f0 = f_inj /. float_of_int n in
  let asm = System.assemble sys ~omega0:(two_pi *. f0) in
  let x, st = Solve.solve ~tol ~x0 asm in
  let sol =
    mk_solution sys ~f0 ~osc_node:free.osc_node ~x ~iters:st.Solve.iters
      ~residual:st.Solve.residual
  in
  let amp = amplitude sol in
  {
    locked = amp > 0.5 *. amplitude free;
    f_inj;
    n_sub = n;
    amp;
    lock_phase = Cx.arg sol.spectra.(sol.osc_node).(1);
    sol;
  }

let injected ?ident ?(tol = 1e-12) ~free ~n ~f_inj circuit =
  Obs.Span.with_ ~cat:"hb" ~name:"hb.injected" @@ fun () ->
  let sys = System.compile ~k_max:free.k_max ~samples:free.samples circuit in
  check_layout sys free;
  cached ?ident ~mode:"injected" ~k_max:free.k_max ~samples:free.samples ~tol
    ~fields:
      Cache.Key.
        [
          float "finj" f_inj;
          int "n" n;
          float "free_f0" free.f0;
          float "free_amp" (amplitude free);
          float "free_res" free.residual;
        ]
    (fun () -> injected_solve ~x0:free.x ~tol ~free ~n ~f_inj sys)

(* --- perturbation projection vector ---------------------------------- *)

let ppv circuit free =
  Obs.Span.with_ ~cat:"hb" ~name:"hb.ppv" @@ fun () ->
  let sys = System.compile ~k_max:free.k_max ~samples:free.samples circuit in
  check_layout sys free;
  let size = System.size sys and km = free.k_max in
  let n_unk = size / ((2 * km) + 1) in
  let omega0 = two_pi *. free.f0 in
  let x = free.x in
  let jac = Linalg.create size size and res = Array.make size 0.0 in
  System.eval (System.assemble sys ~omega0) ~x ~jac ~res;
  let c = Array.map (fun d -> omega0 *. d) (System.omega_column sys ~x) in
  (* bordered system [Jᵀ u; cᵀ 0] [w; s] = [0; 1]: u is the phase-shift
     direction (Re X_k, Im X_k) -> (-k Im X_k, k Re X_k), the right null
     vector of J *)
  let m = Linalg.create (size + 1) (size + 1) in
  for i = 0 to size - 1 do
    for j = 0 to size - 1 do
      m.(j).(i) <- jac.(i).(j)
    done;
    m.(size).(i) <- c.(i)
  done;
  for i = 0 to n_unk - 1 do
    for k = 1 to km do
      let re = System.idx sys i ((2 * k) - 1) and im = System.idx sys i (2 * k) in
      m.(re).(size) <- -.float_of_int k *. x.(im);
      m.(im).(size) <- float_of_int k *. x.(re)
    done
  done;
  let rhs = Array.make (size + 1) 0.0 in
  rhs.(size) <- 1.0;
  let w =
    try Linalg.solve m rhs
    with Linalg.Singular ->
      Err.raise_ Shil ~phase:"hb" Singular_system
        "singular bordered system: the Jacobian's phase null space is not \
         one-dimensional"
        ~context:[ ("f0", Printf.sprintf "%.8g" free.f0) ]
        ~remedy:"pass a converged free-running (oscprobe) solution"
  in
  Array.init n_unk (fun i ->
      Array.init (km + 1) (fun k ->
          if k = 0 then Cx.of_float w.(System.idx sys i 0)
          else
            Cx.make
              (w.(System.idx sys i ((2 * k) - 1)) /. 2.0)
              (w.(System.idx sys i (2 * k)) /. 2.0)))

(* --- HB lock range --------------------------------------------------- *)

type band = {
  n_band : int;
  f_center : float;
  f_lo : float;
  f_hi : float;
  probes : int;
  holes : int;
}

let lock_range ?ident ?(tol = 1e-12) ~free ~n ~guess_width ~inject () =
  Obs.Span.with_ ~cat:"hb" ~name:"hb.lockrange" @@ fun () ->
  let compute () =
    let fc = float_of_int n *. free.f0 in
    let guard =
      Numerics.Roots.guard ~counter:"hb.lockrange.probes" Shil ~phase:"hb"
        ~label:(Printf.sprintf "f_inj=%.8g")
    in
    let warm = ref free.x in
    let probe f_inj =
      let sys =
        System.compile ~k_max:free.k_max ~samples:free.samples
          (inject ~f_inj)
      in
      check_layout sys free;
      let solve x0 = injected_solve ~x0 ~tol ~free ~n ~f_inj sys in
      let v =
        try solve !warm
        with Err.Error _ ->
          (* the warm (locked-branch) start found no solution; retry
             cold — the suppressed branch is a mild solve from zero. A
             cold failure is the guard's typed hole. *)
          solve (Array.make (System.size sys) 0.0)
      in
      if v.locked then warm := v.sol.x;
      v.locked
    in
    if not (guard.guarded fc (fun () -> probe fc)) then
      Err.raise_ Shil ~phase:"hb" No_oscillation
        (Printf.sprintf
           "oscillator does not lock at the sub-harmonic band center %.6g Hz"
           fc)
        ~remedy:"check the injection amplitude and the free-running solution";
    let center_x = !warm in
    let w0 = Float.max (Float.abs guess_width /. 2.0) (1e-7 *. fc) in
    let tol_f = Float.max (1e-3 *. w0) (1e-10 *. fc) in
    let edge dir =
      warm := center_x;
      let outward =
        List.init 17 (fun j -> fc +. (dir *. w0 *. (1.5 ** float_of_int j)))
      in
      match
        Numerics.Roots.edge ~site:"hb.lockrange.f_inj" guard ~probe
          ~inside:fc ~outward ~tol:tol_f
      with
      | Bracketed (f_in, _) -> f_in
      | Not_bracketed _ ->
        Err.raise_ Shil ~phase:"hb" Root_failure
          (Printf.sprintf
             "no unlock boundary within %.3g Hz of the band center"
             (w0 *. (1.5 ** 16.0)))
          ~remedy:"the guess width is far too small; pass a wider one"
    in
    let f_hi = edge 1.0 in
    let f_lo = edge (-1.0) in
    let probes = guard.summary () in
    { n_band = n; f_center = fc; f_lo; f_hi; probes = probes.attempted;
      holes = Resilience.Summary.failed probes }
  in
  cached ?ident ~mode:"lockrange" ~k_max:free.k_max ~samples:free.samples ~tol
    ~fields:
      Cache.Key.
        [
          int "n" n;
          float "guess_width" guess_width;
          float "free_f0" free.f0;
          float "free_amp" (amplitude free);
          float "free_res" free.residual;
        ]
    compute
