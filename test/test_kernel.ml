(* Batch-kernel correctness.

   The contract under test has two tiers (see Numerics.Kernel and
   Nonlinearity.eval_batch):

   - the default [`Exact] path must be BIT-IDENTICAL to the historical
     scalar implementation — same synthesis expressions, same summation
     order, same libm calls — so cached results and golden files survive
     the batch rewrite unchanged (cache keys stay at version 1);
   - the opt-in [`Symmetry] reduction is tolerance-grade and hashes
     under its own cache-key version.

   The scalar references below are written out longhand (per-sample
   closures and explicit loops) precisely so they cannot share code with
   the kernels they check. *)

module Cx = Numerics.Cx
module Kernel = Numerics.Kernel
module Trig = Numerics.Trig_tables
module Interp = Numerics.Interp
module Fourier = Numerics.Fourier
module Df = Shil.Describing_function
module Nl = Shil.Nonlinearity
module Grid = Shil.Grid

let qtest ?(count = 100) name gen prop = Qseed.qtest ~count name gen prop
let same_bits a b = Int64.bits_of_float a = Int64.bits_of_float b

let check_bits name a b =
  if not (same_bits a b) then Alcotest.failf "%s: %h <> %h" name a b

let check_close name ?(rtol = 1e-9) ?(atol = 1e-12) a b =
  if not (Float.abs (a -. b) <= atol +. (rtol *. Float.abs b)) then
    Alcotest.failf "%s: %.17g vs %.17g" name a b

(* deterministic-but-unstructured probe voltages spanning the saturated
   and linear regions of every builtin *)
let probe_array len =
  Array.init len (fun i ->
      let x = float_of_int (i + 1) in
      3.0 *. sin (12.9898 *. x) *. cos (0.7 *. x))

let builtins =
  [
    ("neg_tanh", Nl.neg_tanh ~g0:2e-3 ~isat:1e-3);
    ("cubic", Nl.cubic ~g1:1.5e-3 ~g3:0.4e-3);
    ("tunnel_diode", Nl.tunnel_diode ~bias:0.065 ());
    ( "of_table",
      let vs = Kernel.linspace (-4.0) 4.0 41 in
      let is = Array.map (fun v -> -1e-3 *. tanh (2.0 *. v)) vs in
      Nl.of_table ~name:"test-table" ~vs ~is () );
    ("shift_bias", Nl.shift_bias (Nl.neg_tanh ~g0:2e-3 ~isat:1e-3) 0.3);
    ("scale_current", Nl.scale_current (Nl.cubic ~g1:1.5e-3 ~g3:0.4e-3) (-0.5));
  ]

(* --- eval_batch == eval, bit for bit, for every builtin ------------- *)

let test_eval_batch_bit_identical () =
  let src = probe_array 257 in
  let n = Array.length src in
  List.iter
    (fun (name, nl) ->
      let dst = Array.make n 42.0 in
      Nl.eval_batch nl ~src ~dst;
      Array.iteri
        (fun i v ->
          check_bits (Printf.sprintf "%s.(%d)" name i) (Nl.eval nl src.(i)) v)
        dst)
    builtins

(* the scalar fallback (batch kernels disabled) must agree too — this is
   the code path OSHIL_NO_BATCH=1 forces *)
let test_eval_batch_scalar_fallback () =
  let src = probe_array 63 in
  let n = Array.length src in
  Fun.protect
    ~finally:(fun () -> Kernel.set_batch_enabled true)
    (fun () ->
      Kernel.set_batch_enabled false;
      List.iter
        (fun (name, nl) ->
          let dst = Array.make n 0.0 in
          Nl.eval_batch nl ~src ~dst;
          Array.iteri
            (fun i v ->
              check_bits
                (Printf.sprintf "fallback %s.(%d)" name i)
                (Nl.eval nl src.(i)) v)
            dst)
        builtins)

(* eval_batch_fast may use the vectorized tanh: tolerance-grade only *)
let test_eval_batch_fast_close () =
  let src = probe_array 201 in
  let n = Array.length src in
  List.iter
    (fun (name, nl) ->
      let dst = Array.make n 0.0 in
      Nl.eval_batch_fast nl ~src ~dst;
      Array.iteri
        (fun i v ->
          check_close
            (Printf.sprintf "fast %s.(%d)" name i)
            ~rtol:1e-12 ~atol:1e-18 (Nl.eval nl src.(i)) v)
        dst)
    builtins

let test_eval_batch_prefix_and_alias () =
  let nl = Nl.neg_tanh ~g0:2e-3 ~isat:1e-3 in
  let src = probe_array 32 in
  (* ~n prefix: elements past n must be untouched *)
  let dst = Array.make 32 7.5 in
  Nl.eval_batch ~n:10 nl ~src ~dst;
  for i = 10 to 31 do
    check_bits "prefix untouched" 7.5 dst.(i)
  done;
  (* in-place: src == dst is part of the batch_fn contract *)
  let buf = Array.copy src in
  Nl.eval_batch nl ~src:buf ~dst:buf;
  Array.iteri
    (fun i v -> check_bits "in-place" (Nl.eval nl src.(i)) v)
    buf;
  (* wrappers compose in place too: shift_bias runs its inner batch on
     its own dst *)
  let shifted = Nl.shift_bias nl 0.25 in
  let buf = Array.copy src in
  Nl.eval_batch shifted ~src:buf ~dst:buf;
  Array.iteri
    (fun i v -> check_bits "shift in-place" (Nl.eval shifted src.(i)) v)
    buf

(* --- Interp.eval_batch --------------------------------------------- *)

let prop_interp_batch =
  qtest ~count:100 "interp: eval_batch == eval (incl. extrapolation)"
    QCheck.(list_of_size Gen.(int_range 2 40) (float_bound_exclusive 10.0))
    (fun qs ->
      let xs = Kernel.linspace (-2.0) 2.0 17 in
      let ys = Array.map (fun x -> sin (3.0 *. x) +. (0.2 *. x *. x)) xs in
      let itp = Interp.pchip ~xs ~ys in
      (* queries deliberately run past both table ends *)
      let src = Array.of_list qs in
      let dst = Array.make (Array.length src) 0.0 in
      Interp.eval_batch itp ~src ~dst;
      Array.iteri
        (fun i v -> check_bits "interp batch" (Interp.eval itp src.(i)) v)
        dst;
      (* aliasing *)
      let buf = Array.copy src in
      Interp.eval_batch itp ~src:buf ~dst:buf;
      Array.iteri
        (fun i v -> check_bits "interp alias" (Interp.eval itp src.(i)) v)
        buf;
      true)

(* --- kernel primitives --------------------------------------------- *)

let test_linspace () =
  let xs = Kernel.linspace 0.25 1.75 7 in
  Alcotest.(check int) "len" 7 (Array.length xs);
  check_bits "left endpoint" 0.25 xs.(0);
  Array.iteri
    (fun k v ->
      check_bits "linspace formula"
        (0.25 +. ((1.75 -. 0.25) *. float_of_int k /. float_of_int 6))
        v)
    xs

let test_dot2_seed_order () =
  let points = 129 in
  let cos_t, sin_t = Trig.get ~points ~k:1 in
  let x = probe_array points in
  let re = ref 0.0 and im = ref 0.0 in
  for s = 0 to points - 1 do
    re := !re +. (x.(s) *. cos_t.(s));
    im := !im -. (x.(s) *. sin_t.(s))
  done;
  let re', im' = Kernel.dot2 ~n:points x ~cos_t ~sin_t in
  check_bits "dot2 re" !re re';
  check_bits "dot2 im" !im im'

let test_with_bufs () =
  Kernel.with_bufs ~len:64 3 (fun bufs ->
      Alcotest.(check int) "buf count" 3 (Array.length bufs);
      Array.iter
        (fun b -> Alcotest.(check int) "buf len" 64 (Array.length b))
        bufs;
      Alcotest.(check bool) "bufs distinct" true
        (bufs.(0) != bufs.(1) && bufs.(1) != bufs.(2) && bufs.(0) != bufs.(2));
      (* a nested scope must not hand back the buffers the outer scope
         is still writing into *)
      bufs.(0).(0) <- 1.0;
      Kernel.with_bufs ~len:64 2 (fun inner ->
          Array.iter
            (fun ib ->
              Array.iter
                (fun ob ->
                  Alcotest.(check bool) "nested distinct" true (ib != ob))
                bufs)
            inner);
      check_bits "outer survives nesting" 1.0 bufs.(0).(0))

(* --- trig-table LRU (the eviction-wipes-everything regression) ----- *)

let test_trig_lru_keeps_hot_tables () =
  Trig.clear ();
  let hot_cos, _ = Trig.get ~points:48 ~k:1 in
  (* flood the cache far past its capacity with one-off tables while
     re-touching the hot one; LRU must keep the hot table alive (the old
     eviction reset the whole cache, so this returned a fresh array) *)
  for i = 0 to 199 do
    ignore (Trig.get ~points:(100 + (2 * i)) ~k:1);
    ignore (Trig.get ~points:48 ~k:1)
  done;
  let hot_cos', _ = Trig.get ~points:48 ~k:1 in
  Alcotest.(check bool) "hot table survived eviction" true
    (hot_cos == hot_cos');
  (* values are right regardless of identity *)
  check_bits "table value" (cos (2.0 *. Float.pi *. 5.0 /. 48.0)) hot_cos.(5)

(* --- describing function: exact path vs historical closures -------- *)

let tanh_nl = Nl.neg_tanh ~g0:2e-3 ~isat:1e-3

let prop_i1_two_tone_matches_closure =
  qtest ~count:60 "df: exact i1_two_tone == Fourier.coeff of the closure"
    QCheck.(
      triple (float_range 0.2 1.5) (float_range 0.0 0.4)
        (float_range 0.0 6.28))
    (fun (a, vi, phi) ->
      List.iter
        (fun (name, nl) ->
          let points = 256 in
          let z = Df.i1_two_tone ~points nl ~n:3 ~a ~vi ~phi in
          let z' =
            Fourier.coeff ~n:points
              ~f:(Df.two_tone_input nl ~n:3 ~a ~vi ~phi)
              ~k:1 ()
          in
          check_bits (name ^ " re") (Cx.re z') (Cx.re z);
          check_bits (name ^ " im") (Cx.im z') (Cx.im z))
        builtins;
      true)

let prop_ik_two_tone_matches_closure =
  qtest ~count:40 "df: exact ik_two_tone == Fourier.coeff of the closure"
    QCheck.(pair (float_range 0.3 1.2) (int_range 1 5))
    (fun (a, k) ->
      let points = 128 in
      let z = Df.ik_two_tone ~points tanh_nl ~n:3 ~a ~vi:0.15 ~phi:0.7 ~k in
      let z' =
        Fourier.coeff ~n:points
          ~f:(Df.two_tone_input tanh_nl ~n:3 ~a ~vi:0.15 ~phi:0.7)
          ~k ()
      in
      same_bits (Cx.re z') (Cx.re z) && same_bits (Cx.im z') (Cx.im z))

(* --- grid: batched row kernel vs longhand scalar quadrature -------- *)

(* the pre-batching Grid.sample cell, written out as the scalar loop it
   used to be: table-synthesized tones, fused sum, same order *)
let seed_grid_cell nl ~n ~points ~a ~vi ~phi =
  let cos_t, sin_t = Trig.get ~points ~k:1 in
  let cos_nt, sin_nt = Trig.get ~points ~k:n in
  let cp = 2.0 *. vi *. cos phi and sp = 2.0 *. vi *. sin phi in
  let re = ref 0.0 and im = ref 0.0 in
  for s = 0 to points - 1 do
    let x = Nl.eval nl ((a *. cos_t.(s)) +. (cp *. cos_nt.(s)) -. (sp *. sin_nt.(s))) in
    re := !re +. (x *. cos_t.(s));
    im := !im -. (x *. sin_t.(s))
  done;
  Cx.make (!re /. float_of_int points) (!im /. float_of_int points)

let small_grid ?reduction nl =
  Grid.sample ?reduction ~points:64 ~n_phi:9 ~n_amp:7 nl ~n:3 ~r:1e3 ~vi:0.2
    ~a_range:(0.3, 1.4) ()

let test_grid_matches_seed_kernel () =
  List.iter
    (fun (name, nl) ->
      let g = small_grid nl in
      Array.iteri
        (fun i phi ->
          Array.iteri
            (fun j a ->
              let z = g.Grid.i1.(i).(j) in
              let z' = seed_grid_cell nl ~n:3 ~points:64 ~a ~vi:0.2 ~phi in
              check_bits (Printf.sprintf "%s re (%d,%d)" name i j) (Cx.re z')
                (Cx.re z);
              check_bits (Printf.sprintf "%s im (%d,%d)" name i j) (Cx.im z')
                (Cx.im z))
            g.Grid.amps)
        g.Grid.phis)
    builtins

let test_grid_batch_equals_scalar_fallback () =
  let g = small_grid tanh_nl in
  let g' =
    Fun.protect
      ~finally:(fun () -> Kernel.set_batch_enabled true)
      (fun () ->
        Kernel.set_batch_enabled false;
        small_grid tanh_nl)
  in
  Array.iteri
    (fun i row ->
      Array.iteri
        (fun j z ->
          let z' = g'.Grid.i1.(i).(j) in
          check_bits "re" (Cx.re z') (Cx.re z);
          check_bits "im" (Cx.im z') (Cx.im z))
        row)
    g.Grid.i1

(* --- symmetry reduction: tolerance contract ------------------------ *)

let test_grid_symmetry_close_to_exact () =
  (* odd nonlinearity: halved rows AND conjugate-mirrored rows *)
  List.iter
    (fun (name, nl) ->
      let exact = small_grid nl in
      let red = small_grid ~reduction:`Symmetry nl in
      Alcotest.(check bool) (name ^ " mode recorded") true
        (red.Grid.reduction = `Symmetry);
      Array.iteri
        (fun i row ->
          Array.iteri
            (fun j z ->
              let z' = red.Grid.i1.(i).(j) in
              let d = Cx.abs (Cx.sub z' z) in
              if not (d <= 1e-12 +. (1e-9 *. Cx.abs z)) then
                Alcotest.failf "%s (%d,%d): |%g|" name i j d)
            row)
        exact.Grid.i1)
    builtins

let prop_df_symmetry_close =
  qtest ~count:60 "df: `Symmetry i1_two_tone close to `Exact"
    QCheck.(
      triple (float_range 0.2 1.5) (float_range 0.0 0.4)
        (float_range 0.0 6.28))
    (fun (a, vi, phi) ->
      let z = Df.i1_two_tone ~points:512 tanh_nl ~n:3 ~a ~vi ~phi in
      let z' =
        Df.i1_two_tone ~points:512 ~reduction:`Symmetry tanh_nl ~n:3 ~a ~vi
          ~phi
      in
      Cx.abs (Cx.sub z' z) <= 1e-12 +. (1e-9 *. Cx.abs z))

let test_symmetry_no_halving_when_not_licensed () =
  (* even n breaks the half-period identity; the reduced result must
     still match (it silently keeps the full period) *)
  let z = Df.i1_two_tone ~points:256 tanh_nl ~n:2 ~a:0.8 ~vi:0.2 ~phi:1.1 in
  let z' =
    Df.i1_two_tone ~points:256 ~reduction:`Symmetry tanh_nl ~n:2 ~a:0.8
      ~vi:0.2 ~phi:1.1
  in
  if not (Cx.abs (Cx.sub z' z) <= 1e-12 +. (1e-9 *. Cx.abs z)) then
    Alcotest.failf "even-n reduced drifted: %g" (Cx.abs (Cx.sub z' z))

(* --- cache keys: version pinning ----------------------------------- *)

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* a tiny exact grid: the lock-range key is built from a grid's inputs *)
let key_grid () =
  Grid.sample ~points:64 ~n_phi:5 ~n_amp:5 tanh_nl ~n:3 ~r:1e3 ~vi:0.2
    ~a_range:(0.3, 1.4) ()

let key_tank =
  let wc = 2.0 *. Float.pi *. 1e6 in
  Shil.Tank.make ~r:1e3 ~l:(100.0 /. wc) ~c:(1.0 /. (100.0 *. wc))

let test_analysis_key_versions () =
  let natural =
    Cache.Key.preimage
      (Shil.Natural.cache_key ~nl_key:"tanh|g0=2e-3" ~r:1e3 ~points:1024
         ~a_min:1e-4 ~a_max:10.0 ~scan:400)
  in
  Alcotest.(check bool) "natural v1" true
    (has_prefix ~prefix:"shil.natural/v1|" natural);
  List.iter
    (fun f ->
      Alcotest.(check bool) ("natural has " ^ f) true (contains ~sub:f natural))
    [ "nl=tanh"; "r="; "points=1024"; "a_min="; "a_max="; "scan=400" ];
  let g = key_grid () in
  let key (g : Grid.t) =
    Shil.Lock_range.cache_key g ~nl_key:"tanh|g0=2e-3" ~tank:key_tank
      ~points:1024 ~phi_d_cap:1.4 ~tol:1e-5
  in
  let exact = key g and reduced = key { g with reduction = `Symmetry } in
  let exact_pre = Cache.Key.preimage exact in
  let reduced_pre = Cache.Key.preimage reduced in
  Alcotest.(check bool) "lockrange exact v1" true
    (has_prefix ~prefix:"shil.lockrange/v1|" exact_pre);
  Alcotest.(check bool) "exact has no red field" false
    (contains ~sub:"red=" exact_pre);
  Alcotest.(check bool) "lockrange sym v2" true
    (has_prefix ~prefix:"shil.lockrange/v2|" reduced_pre);
  Alcotest.(check bool) "sym red field" true
    (contains ~sub:"red=sym" reduced_pre);
  (* every grid key field, then the tank and the probe settings *)
  List.iter
    (fun f ->
      Alcotest.(check bool) ("lockrange has " ^ f) true
        (contains ~sub:f exact_pre))
    [
      "nl="; "n=3"; ";r="; "vi="; "p_lo="; "p_hi="; "n_phi=5"; "n_amp=5";
      "a_lo="; "a_hi="; "points=64"; "tank_r="; ";l="; ";c=";
      "refine_points=1024"; "phi_d_cap="; "tol=";
    ];
  Alcotest.(check bool) "distinct digests" true
    (Cache.Key.digest exact <> Cache.Key.digest reduced)

let test_grid_key_versions () =
  let key reduction =
    Grid.cache_key ~reduction ~nl_key:"tanh|g0=2e-3" ~n:3 ~r:1e3 ~vi:0.2
      ~p_lo:0.0 ~p_hi:6.28 ~n_phi:9 ~n_amp:7 ~a_lo:0.3 ~a_hi:1.4 ~points:64
  in
  Alcotest.(check bool) "exact v1" true
    (has_prefix ~prefix:"shil.grid/v1|" (Cache.Key.preimage (key `Exact)));
  let reduced = Cache.Key.preimage (key `Symmetry) in
  Alcotest.(check bool) "sym v2" true
    (has_prefix ~prefix:"shil.grid/v2|" reduced);
  Alcotest.(check bool) "sym red field" true (contains ~sub:"red=sym" reduced)

(* --- cache: warm hit == cold compute, in both modes ----------------- *)

let lock_range_bits (lr : Shil.Lock_range.t) =
  List.map Int64.bits_of_float
    ([ lr.phi_d_max; lr.f_inj_low; lr.f_inj_high; lr.delta_f_inj ]
    @ List.concat_map
        (fun (p : Shil.Solutions.point) -> [ p.phi; p.a; p.trace; p.det ])
        lr.at_center)

let test_cached_reduced_equals_cold () =
  let was = Cache.Store.enabled () and dir = Cache.Store.dir () in
  let tmp = Filename.temp_dir "oshil-test-kernel-cache" "" in
  Fun.protect
    ~finally:(fun () ->
      Cache.Store.set_memory_capacity ();
      Cache.Store.set_dir dir;
      Cache.Store.set_enabled was)
    (fun () ->
      Cache.Store.set_dir tmp;
      Cache.Store.set_memory_capacity ();
      let predict reduction =
        let g =
          Grid.sample ~points:64 ~n_phi:31 ~n_amp:21 ~reduction tanh_nl ~n:3
            ~r:1e3 ~vi:0.2 ~a_range:(0.3, 1.45) ()
        in
        lock_range_bits
          (Shil.Lock_range.predict ~points:128 ~tol:1e-3 g ~tank:key_tank)
      in
      Cache.Store.set_enabled false;
      let cold_exact = predict `Exact and cold_red = predict `Symmetry in
      Cache.Store.set_enabled true;
      let pop_exact = predict `Exact and pop_red = predict `Symmetry in
      let warm_exact = predict `Exact and warm_red = predict `Symmetry in
      Alcotest.(check bool) "exact populate == cold" true (pop_exact = cold_exact);
      Alcotest.(check bool) "exact warm == cold" true (warm_exact = cold_exact);
      Alcotest.(check bool) "reduced populate == cold" true (pop_red = cold_red);
      Alcotest.(check bool) "reduced warm == cold" true (warm_red = cold_red);
      (* the two modes must not have served each other's entries *)
      Alcotest.(check bool) "modes distinct" true (cold_exact <> cold_red))

(* --- the residual memo inside Solutions.refine ----------------------- *)

let test_refine_memo () =
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
    (fun () ->
      let i1_evals f =
        let before = Obs.Metrics.counter_value "shil.df.i1_evals" in
        let v = f () in
        (v, Obs.Metrics.counter_value "shil.df.i1_evals" - before)
      in
      let nl = tanh_nl and n = 3 and r = 1e3 and vi = 0.2 and phi_d = 0.0 in
      (* find is deterministic: a second run gives the same points *)
      let g =
        Grid.sample ~points:64 ~n_phi:31 ~n_amp:21 tanh_nl ~n ~r ~vi
          ~a_range:(0.3, 1.45) ()
      in
      let find () = Shil.Solutions.find ~points:256 g ~phi_d in
      let bits pts =
        List.concat_map
          (fun (p : Shil.Solutions.point) ->
            List.map Int64.bits_of_float [ p.phi; p.a; p.trace; p.det ])
          pts
      in
      let first = find () in
      Alcotest.(check bool) "same points" true (bits first = bits (find ()));
      let p =
        match first with
        | p :: _ -> p
        | [] -> Alcotest.fail "no lock point to refine from"
      in
      (* a start off the solution, so Newton needs several iterations *)
      let phi0 = p.phi +. 0.05 and a0 = p.a *. 1.03 in
      let raw, raw_evals =
        i1_evals (fun () ->
            Numerics.Roots.newton2d ~tol:1e-12
              ~f:(Shil.Solutions.residuals ~points:256 nl ~n ~r ~vi ~phi_d)
              ~x0:(phi0, a0) ())
      in
      let memo, memo_evals =
        i1_evals (fun () ->
            Shil.Solutions.refine ~points:256 nl ~n ~r ~vi ~phi_d ~phi0 ~a0)
      in
      (match memo with
      | Some (phi, a) ->
        check_bits "phi" (fst raw) phi;
        check_bits "a" (snd raw) a
      | None -> Alcotest.fail "memoised refine did not converge");
      if not (memo_evals < raw_evals) then
        Alcotest.failf "memo saved nothing: %d vs %d quadratures" memo_evals
          raw_evals)

(* --- metrics: ik_two_tone counts under its own counter -------------- *)

let test_ik_evals_counter () =
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
    (fun () ->
      let i1_before = Obs.Metrics.counter_value "shil.df.i1_evals" in
      let ik_before = Obs.Metrics.counter_value "shil.df.ik_evals" in
      ignore (Df.ik_two_tone ~points:64 tanh_nl ~n:3 ~a:0.8 ~vi:0.1 ~phi:0.2 ~k:3);
      Alcotest.(check int) "ik_evals +1" (ik_before + 1)
        (Obs.Metrics.counter_value "shil.df.ik_evals");
      Alcotest.(check int) "i1_evals untouched by ik" i1_before
        (Obs.Metrics.counter_value "shil.df.i1_evals");
      ignore (Df.i1_two_tone ~points:64 tanh_nl ~n:3 ~a:0.8 ~vi:0.1 ~phi:0.2);
      Alcotest.(check int) "i1_evals +1" (i1_before + 1)
        (Obs.Metrics.counter_value "shil.df.i1_evals"))

let () =
  Alcotest.run "kernel"
    [
      ( "eval_batch",
        [
          Alcotest.test_case "bit-identical" `Quick
            test_eval_batch_bit_identical;
          Alcotest.test_case "scalar fallback" `Quick
            test_eval_batch_scalar_fallback;
          Alcotest.test_case "fast close" `Quick test_eval_batch_fast_close;
          Alcotest.test_case "prefix and alias" `Quick
            test_eval_batch_prefix_and_alias;
          prop_interp_batch;
        ] );
      ( "primitives",
        [
          Alcotest.test_case "linspace" `Quick test_linspace;
          Alcotest.test_case "dot2 seed order" `Quick test_dot2_seed_order;
          Alcotest.test_case "with_bufs" `Quick test_with_bufs;
          Alcotest.test_case "trig lru" `Quick test_trig_lru_keeps_hot_tables;
        ] );
      ( "exact-path",
        [
          prop_i1_two_tone_matches_closure;
          prop_ik_two_tone_matches_closure;
          Alcotest.test_case "grid vs seed kernel" `Quick
            test_grid_matches_seed_kernel;
          Alcotest.test_case "grid batch = scalar" `Quick
            test_grid_batch_equals_scalar_fallback;
        ] );
      ( "symmetry",
        [
          Alcotest.test_case "grid close to exact" `Quick
            test_grid_symmetry_close_to_exact;
          prop_df_symmetry_close;
          Alcotest.test_case "no halving w/o licence" `Quick
            test_symmetry_no_halving_when_not_licensed;
        ] );
      ( "cache",
        [
          Alcotest.test_case "analysis key versions" `Quick
            test_analysis_key_versions;
          Alcotest.test_case "grid key versions" `Quick test_grid_key_versions;
          Alcotest.test_case "warm = cold both modes" `Quick
            test_cached_reduced_equals_cold;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "ik counter" `Quick test_ik_evals_counter;
          Alcotest.test_case "refine memo" `Quick test_refine_memo;
        ] );
    ]
