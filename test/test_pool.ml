(* Tests for the multicore execution layer (Numerics.Pool) and the shared
   trig-table cache it feeds. *)

module Pool = Numerics.Pool
module Trig_tables = Numerics.Trig_tables

(* Reference sequential implementations to compare against. *)
let seq_map f xs = Array.map f xs

let heavy_f x =
  (* a pure float kernel with enough rounding structure that any ordering
     or chunking bug shows up as a bit difference *)
  let acc = ref x in
  for k = 1 to 50 do
    acc := !acc +. (sin (!acc *. float_of_int k) /. float_of_int (k * k))
  done;
  !acc

let with_pool size f =
  let p = Pool.create ~size in
  Fun.protect ~finally:(fun () -> Pool.shutdown p) (fun () -> f p)

let test_map_deterministic () =
  let xs = Array.init 1000 (fun k -> 0.01 *. float_of_int k) in
  let expect = seq_map heavy_f xs in
  with_pool 4 (fun p ->
      let got = Pool.parallel_map_array ~pool:p heavy_f xs in
      Alcotest.(check bool) "bit-identical to Array.map" true (expect = got);
      (* odd chunk size exercising a ragged tail *)
      let got = Pool.parallel_map_array ~pool:p ~chunk:7 heavy_f xs in
      Alcotest.(check bool) "bit-identical with chunk=7" true (expect = got))

let test_for_covers_all_indices () =
  let n = 3571 in
  let hits = Array.make n 0 in
  with_pool 4 (fun p ->
      Pool.parallel_for ~pool:p ~chunk:13 ~n (fun i -> hits.(i) <- hits.(i) + 1));
  Alcotest.(check bool) "each index exactly once" true
    (Array.for_all (( = ) 1) hits)

let test_reduce_matches_sequential () =
  let n = 512 in
  let map i = heavy_f (0.02 *. float_of_int i) in
  let expect = ref 0.0 in
  for i = 0 to n - 1 do
    expect := !expect +. map i
  done;
  with_pool 3 (fun p ->
      let got =
        Array.fold_left ( +. ) 0.0
          (Pool.parallel_map_array ~pool:p map (Array.init n Fun.id))
      in
      (* results land by index and the fold runs in index order, so this
         is equality, not approximation *)
      Alcotest.(check bool) "reduce bit-identical" true (!expect = got))

exception Boom of int

let test_exception_propagation () =
  with_pool 4 (fun p ->
      let raised =
        try
          Pool.parallel_for ~pool:p ~chunk:5 ~n:200 (fun i ->
              if i >= 40 then raise (Boom i));
          None
        with Boom i -> Some i
      in
      (match raised with
      | Some i ->
        (* the lowest failing chunk wins: chunk 8 = indices 40..44 *)
        Alcotest.(check bool) "exception from lowest failing chunk" true
          (i >= 40 && i < 45)
      | None -> Alcotest.fail "exception was swallowed");
      (* the pool must still be usable after a failed submission *)
      let xs = Array.init 64 float_of_int in
      let got = Pool.parallel_map_array ~pool:p (fun x -> x *. 2.0) xs in
      Alcotest.(check bool) "pool survives exceptions" true
        (got = Array.map (fun x -> x *. 2.0) xs))

let test_nested_calls_fall_back () =
  with_pool 4 (fun p ->
      let inner_flags =
        Pool.parallel_map_array ~pool:p ~chunk:1
          (fun _ ->
            (* inside a task: nested parallel calls must degrade to
               sequential, not deadlock or spawn into the same pool *)
            let was_worker = Pool.in_worker () in
            let inner =
              Pool.parallel_map_array ~pool:p (fun x -> x + 1)
                (Array.init 100 Fun.id)
            in
            was_worker && inner = Array.init 100 (fun i -> i + 1))
          (Array.init 8 Fun.id)
      in
      Alcotest.(check bool) "nested calls run sequentially and correctly" true
        (Array.for_all Fun.id inner_flags));
  Alcotest.(check bool) "flag cleared outside tasks" false (Pool.in_worker ())

let test_jobs_one_is_sequential () =
  (* OSHIL_JOBS=1 must mean: no default pool at all. No set_jobs has
     happened yet in this process, so default_size reads the env. *)
  Unix.putenv "OSHIL_JOBS" "1";
  Alcotest.(check int) "default size honours OSHIL_JOBS=1" 1 (Pool.default_size ());
  Alcotest.(check bool) "no default pool at size 1" true
    (Pool.get_default () = None);
  (* parallel entry points still work, running inline *)
  let xs = Array.init 257 (fun k -> float_of_int k /. 7.0) in
  let got = Pool.parallel_map_array heavy_f xs in
  Alcotest.(check bool) "sequential degeneration correct" true
    (got = seq_map heavy_f xs);
  Pool.set_jobs 4;
  Alcotest.(check int) "set_jobs overrides env" 4 (Pool.default_size ());
  (match Pool.get_default () with
  | Some p -> Alcotest.(check int) "default pool sized by set_jobs" 4 (Pool.size p)
  | None -> Alcotest.fail "default pool expected at jobs=4");
  Pool.set_jobs 1

let test_empty_and_tiny () =
  with_pool 4 (fun p ->
      Alcotest.(check bool) "empty map" true
        (Pool.parallel_map_array ~pool:p (fun x -> x) [||] = [||]);
      Pool.parallel_for ~pool:p ~n:0 (fun _ -> Alcotest.fail "must not run");
      let one = Pool.parallel_map_array ~pool:p (fun i -> i * 3) [| 1 |] in
      Alcotest.(check bool) "singleton map" true (one = [| 3 |]))

let test_trig_tables_shared_and_exact () =
  let points = 384 and k = 3 in
  let cos_t, sin_t = Trig_tables.get ~points ~k in
  Alcotest.(check int) "cos table length" points (Array.length cos_t);
  let ok = ref true in
  for s = 0 to points - 1 do
    let theta = 2.0 *. Float.pi *. float_of_int (k * s) /. float_of_int points in
    if cos_t.(s) <> cos theta || sin_t.(s) <> sin theta then ok := false
  done;
  Alcotest.(check bool) "tables bit-match the direct expression" true !ok;
  let cos_t', _ = Trig_tables.get ~points ~k in
  Alcotest.(check bool) "second get returns the cached array" true
    (cos_t == cos_t');
  Trig_tables.clear ();
  let cos_t'', _ = Trig_tables.get ~points ~k in
  Alcotest.(check bool) "recomputed table equal after clear" true
    (cos_t = cos_t'')

let test_fourier_uses_tables () =
  (* coeff of cos(k theta) at harmonic k is 1/2; table-backed quadrature
     must keep the historical accuracy *)
  let c = Numerics.Fourier.coeff ~n:1024 ~f:cos ~k:1 () in
  Alcotest.(check (float 1e-12)) "X1 of cos" 0.5 (Numerics.Cx.re c);
  Alcotest.(check (float 1e-12)) "X1 imag" 0.0 (Numerics.Cx.im c);
  let f theta = cos (3.0 *. theta) in
  let c3 = Numerics.Fourier.coeff ~n:1024 ~f ~k:3 () in
  Alcotest.(check (float 1e-12)) "X3 of cos 3t" 0.5 (Numerics.Cx.re c3);
  (* coeff and coeff_sampled agree exactly: same samples, same tables *)
  let samples = Array.init 1024 (fun s -> f (2.0 *. Float.pi *. float_of_int s /. 1024.0)) in
  let cs = Numerics.Fourier.coeff_sampled samples ~k:3 in
  Alcotest.(check (float 1e-15)) "coeff vs coeff_sampled re"
    (Numerics.Cx.re c3) (Numerics.Cx.re cs)

let () =
  Alcotest.run "pool"
    [
      ( "pool",
        [
          Alcotest.test_case "map deterministic" `Quick test_map_deterministic;
          Alcotest.test_case "for covers all indices" `Quick test_for_covers_all_indices;
          Alcotest.test_case "reduce matches sequential" `Quick test_reduce_matches_sequential;
          Alcotest.test_case "exception propagation" `Quick test_exception_propagation;
          Alcotest.test_case "nested fallback" `Quick test_nested_calls_fall_back;
          Alcotest.test_case "jobs=1 sequential" `Quick test_jobs_one_is_sequential;
          Alcotest.test_case "empty and tiny inputs" `Quick test_empty_and_tiny;
        ] );
      ( "trig_tables",
        [
          Alcotest.test_case "shared exact tables" `Quick test_trig_tables_shared_and_exact;
          Alcotest.test_case "fourier on tables" `Quick test_fourier_uses_tables;
        ] );
    ]
