(* Tests for the solver resilience layer: the typed error taxonomy,
   the fault-injection grammar, the recovery-policy ladder, and the
   graceful-degradation paths of the fan-out layers.

   Every recovery rung and degradation path is driven by a
   deterministic fault plan and asserted through its [resilience.*]
   counter, so these tests double as the contract for the
   [--inject-fault] CLI surface. *)

module E = Resilience.Oshil_error
module Fault = Resilience.Fault
module Policy = Resilience.Policy
module Summary = Resilience.Summary

(* Faults, fail-fast and the metrics registry are process-global: every
   test runs inside this bracket so state never leaks between cases. *)
let with_env f () =
  Obs.set_enabled true;
  Obs.reset ();
  Fault.clear ();
  Policy.set_fail_fast false;
  Fun.protect
    ~finally:(fun () ->
      Fault.clear ();
      Policy.set_fail_fast false;
      Obs.reset ();
      Obs.set_enabled false)
    f

let arm plan =
  match Fault.configure plan with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "bad fault plan %S: %s" plan msg

let counter = Obs.Metrics.counter_value

let check_counter name expected =
  Alcotest.(check int) (Printf.sprintf "counter %s" name) expected
    (counter name)

let check_counter_at_least name floor =
  Alcotest.(check bool)
    (Printf.sprintf "counter %s >= %d (got %d)" name floor (counter name))
    true
    (counter name >= floor)

let expect_error ~kind f =
  match f () with
  | _ -> Alcotest.fail "expected Oshil_error.Error"
  | exception E.Error e ->
    Alcotest.(check string) "error kind" kind (E.code e);
    e

(* ------------------------------------------------------------------ *)
(* Fault plan grammar *)

let test_fault_parse () =
  (match Fault.parse "newton-singular@0x2" with
  | Ok [ ("newton-singular", { Fault.start = 0; count = 2 }) ] -> ()
  | Ok _ -> Alcotest.fail "wrong parse"
  | Error msg -> Alcotest.failf "parse failed: %s" msg);
  (match Fault.parse "tran-reject@3" with
  | Ok [ ("tran-reject", { Fault.start = 3; count = 1 }) ] -> ()
  | _ -> Alcotest.fail "START without COUNT must mean one occurrence");
  (match Fault.parse "grid-point,hb-newton@1x4" with
  | Ok [ ("grid-point", _); ("hb-newton", { Fault.start = 1; count = 4 }) ]
    -> ()
  | _ -> Alcotest.fail "comma-separated plan");
  (match Fault.parse "no-such-site" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown site must be rejected");
  (match Fault.parse "newton-singular@x2" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "malformed window must be rejected");
  match Fault.parse "" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty plan must be rejected"

let test_fault_fire () =
  Alcotest.(check bool) "unarmed" false (Fault.armed ());
  Alcotest.(check bool) "unarmed fire" false (Fault.fire "roots-fail");
  arm "roots-fail@1x2";
  Alcotest.(check bool) "armed" true (Fault.armed ());
  (* occurrences 0..3: only 1 and 2 are in the window *)
  Alcotest.(check (list bool)) "occurrence window"
    [ false; true; true; false ]
    (List.init 4 (fun _ -> Fault.fire "roots-fail"));
  check_counter "resilience.faults.injected" 2;
  check_counter "resilience.faults.roots-fail" 2;
  (* index-addressed: fire_at consults the window, not the counter *)
  arm "grid-point@3";
  Alcotest.(check bool) "k=3 hits" true (Fault.fire_at "grid-point" ~k:3);
  Alcotest.(check bool) "k=2 misses" false (Fault.fire_at "grid-point" ~k:2);
  Alcotest.(check bool) "k=3 hits again" true (Fault.fire_at "grid-point" ~k:3);
  Fault.clear ();
  Alcotest.(check bool) "cleared" false (Fault.armed ())

let test_fault_error_value () =
  let e = Fault.error ~site:"grid-point" E.Shil ~phase:"grid" in
  Alcotest.(check string) "code" "fault-injected" (E.code e);
  Alcotest.(check string) "loc" "shil.grid" (E.loc e);
  Alcotest.(check (option string)) "site context" (Some "grid-point")
    (List.assoc_opt "site" e.context)

(* ------------------------------------------------------------------ *)
(* Error taxonomy and rendering *)

let test_error_render () =
  let e =
    E.make Spice ~phase:"op" Solver_divergence "newton diverged"
      ~context:[ ("iteration", "17"); ("residual", "3.2e-1") ]
      ~remedy:"loosen tolerances"
  in
  Alcotest.(check string) "code" "solver-divergence" (E.code e);
  Alcotest.(check string) "loc" "spice.op" (E.loc e);
  let s = E.to_string e in
  List.iter
    (fun frag ->
      Alcotest.(check bool)
        (Printf.sprintf "rendering contains %S" frag)
        true
        (let fl = String.length frag and sl = String.length s in
         let rec scan i =
           i + fl <= sl && (String.sub s i fl = frag || scan (i + 1))
         in
         scan 0))
    [
      "error[solver-divergence] spice.op";
      "newton diverged";
      "iteration";
      "17";
      "loosen tolerances";
    ]

let test_error_of_exn () =
  let e = E.make Shil ~phase:"grid" Singular_system "boom" in
  (* typed errors pass through unchanged *)
  Alcotest.(check string) "passthrough" "singular-system"
    (E.code (E.of_exn Numerics ~phase:"other" (E.Error e)));
  let wrapped = E.of_exn Waveform ~phase:"measure" (Failure "raw") in
  Alcotest.(check string) "wrapped loc" "waveform.measure" (E.loc wrapped);
  Alcotest.(check bool) "exception recorded" true
    (List.mem_assoc "exception" wrapped.context)

let test_raise_counters () =
  (try E.raise_ Waveform ~phase:"measure" Measurement_failure "x"
   with E.Error _ -> ());
  check_counter "resilience.errors" 1;
  check_counter "resilience.errors.waveform" 1

(* ------------------------------------------------------------------ *)
(* Recovery-policy ladder *)

let test_escalate_recovery () =
  let r =
    Policy.escalate ~subsystem:Spice ~phase:"ladder"
      [
        Policy.rung "a" (fun () -> Error "a failed");
        Policy.rung "b" (fun () -> Ok 42);
        Policy.rung "c" (fun () -> Alcotest.fail "must not reach c");
      ]
  in
  Alcotest.(check (result int string)) "recovered value" (Ok 42)
    (Result.map_error E.to_string r);
  check_counter "resilience.ladder.rung.b" 1;
  check_counter "resilience.ladder.recovered" 1;
  check_counter "resilience.ladder.failed" 0

let test_escalate_all_fail () =
  let r =
    Policy.escalate ~subsystem:Spice ~phase:"ladder"
      [
        Policy.rung "a" (fun () -> Error "a failed");
        Policy.rung "b" (fun () -> Error "b failed");
      ]
  in
  (match r with
  | Ok _ -> Alcotest.fail "must fail"
  | Error e ->
    Alcotest.(check string) "kind" "solver-divergence" (E.code e);
    Alcotest.(check (option string)) "rungs tried" (Some "a,b")
      (List.assoc_opt "rungs" e.context));
  check_counter "resilience.ladder.failed" 1

let test_escalate_retry_budget () =
  let budget = { Policy.default_budget with max_retries = 1 } in
  match
    Policy.escalate ~budget ~subsystem:Spice ~phase:"ladder"
      [
        Policy.rung "a" (fun () -> Error "a failed");
        Policy.rung "b" (fun () -> Alcotest.fail "budget must stop here");
      ]
  with
  | Ok _ -> Alcotest.fail "must fail"
  | Error e ->
    Alcotest.(check string) "kind" "budget-exhausted" (E.code e);
    check_counter "resilience.budget.exhausted" 1

let test_escalate_typed_abort () =
  let typed = E.make Spice ~phase:"ladder" Budget_exhausted "inner budget" in
  match
    Policy.escalate ~subsystem:Spice ~phase:"ladder"
      [
        Policy.rung "a" (fun () -> raise (E.Error typed));
        Policy.rung "b" (fun () -> Ok ());
      ]
  with
  | Ok _ -> Alcotest.fail "typed raise must abort the ladder"
  | Error e -> Alcotest.(check string) "same error" "budget-exhausted" (E.code e)

(* ------------------------------------------------------------------ *)
(* Operating-point recovery ladder under injected Newton faults *)

let r name n1 n2 rv = Spice.Device.Resistor { name; n1; n2; r = rv }

let diode_circuit () =
  Spice.Circuit.of_devices
    [
      Spice.Device.Vsource
        { name = "V1"; np = "in"; nn = "0"; wave = Spice.Wave.Dc 5.0 };
      r "R1" "in" "d" 1e3;
      Spice.Device.Diode
        { name = "D1"; np = "d"; nn = "0"; p = Spice.Device.default_diode };
    ]

let op_voltage () = Spice.Op.voltage (Spice.Op.run (diode_circuit ())) "d"

let test_op_rung_recovery () =
  let clean = op_voltage () in
  let try_plan plan rung =
    Obs.reset ();
    arm plan;
    let v = op_voltage () in
    (* later rungs settle at gmin 1e-9 instead of 1e-12, so the answer
       may differ at the leak-current scale *)
    Alcotest.(check (float 1e-6))
      (Printf.sprintf "%s: same answer after recovery" plan)
      clean v;
    check_counter (Printf.sprintf "resilience.op.rung.%s" rung) 1;
    check_counter "resilience.op.recovered" 1
  in
  (* each failing Newton solve consumes one occurrence, and a failing
     rung aborts at its first failed solve — so widening the window
     walks the ladder one rung at a time *)
  try_plan "newton-singular@0" "gmin-stepping";
  try_plan "newton-singular@0x2" "source-stepping";
  try_plan "newton-singular@0x3" "damped-newton";
  (* a NaN device evaluation trips the non-finite-iterate guard and
     recovers the same way a singular matrix does *)
  try_plan "device-nan@0" "gmin-stepping"

let test_op_ladder_exhausted () =
  arm "newton-singular@0x4";
  let e = expect_error ~kind:"solver-divergence" op_voltage in
  Alcotest.(check string) "loc" "spice.op" (E.loc e);
  check_counter "resilience.op.failed" 1;
  check_counter "resilience.op.recovered" 0

(* ------------------------------------------------------------------ *)
(* Transient degradation *)

let rc_circuit () =
  Spice.Circuit.of_devices
    [
      Spice.Device.Vsource
        { name = "V1"; np = "in"; nn = "0"; wave = Spice.Wave.Dc 1.0 };
      r "R1" "in" "out" 1e3;
      Spice.Device.Capacitor
        { name = "C1"; n1 = "out"; n2 = "0"; c = 1e-6; ic = None };
    ]

let rc_options ?budget () =
  let o = Spice.Transient.default_options ~dt:1e-5 ~t_stop:1e-3 in
  match budget with None -> o | Some b -> { o with budget = b }

let run_rc ?budget () =
  Spice.Transient.run (rc_circuit ())
    ~probes:[ Spice.Transient.Node "out" ]
    (rc_options ?budget ())

let test_transient_step_halving_recovers () =
  arm "tran-reject@0";
  let res = run_rc () in
  Alcotest.(check bool) "no failure" true (res.failure = None);
  check_counter_at_least "resilience.transient.step_halvings" 1;
  check_counter_at_least "resilience.transient.rejected_steps" 1;
  let t_last = res.times.(Array.length res.times - 1) in
  Alcotest.(check (float 1e-12)) "ran to t_stop" 1e-3 t_last

let test_transient_degrades_to_partial () =
  arm "tran-reject";
  let res = run_rc () in
  (match res.failure with
  | Some e -> Alcotest.(check string) "kind" "step-failure" (E.code e)
  | None -> Alcotest.fail "expected a recorded failure");
  check_counter "resilience.transient.degraded" 1;
  (* the waveform accumulated before the fatal step is still returned *)
  Alcotest.(check bool) "partial waveform kept" true
    (Array.length res.times >= 1);
  let t_last = res.times.(Array.length res.times - 1) in
  Alcotest.(check bool) "stopped early" true (t_last < 1e-3)

let test_transient_fail_fast () =
  arm "tran-reject";
  Policy.set_fail_fast true;
  ignore (expect_error ~kind:"step-failure" (fun () -> run_rc ()))

let test_transient_rejection_budget () =
  arm "tran-reject";
  let budget = { Policy.default_budget with max_rejected_steps = 3 } in
  let res = run_rc ~budget () in
  match res.failure with
  | Some e ->
    Alcotest.(check string) "kind" "budget-exhausted" (E.code e);
    check_counter "resilience.budget.exhausted" 1;
    (* the rejection that spent the budget names its step time *)
    Alcotest.(check bool) "context names t" true
      (match List.assoc_opt "t" e.context with
      | Some t -> Float.is_finite (float_of_string t)
      | None -> false)
  | None -> Alcotest.fail "expected budget exhaustion"

(* ------------------------------------------------------------------ *)
(* Grid / lock-range degradation (the paper pipeline) *)

let tanh_nl = Shil.Nonlinearity.neg_tanh ~g0:2e-3 ~isat:1e-3

let fixture_tank =
  let wc = 2.0 *. Float.pi *. 1e6 in
  Shil.Tank.make ~r:1e3 ~l:(100.0 /. wc) ~c:(1.0 /. (100.0 *. wc))

let small_grid () =
  Shil.Grid.sample ~points:128 ~n_phi:31 ~n_amp:21 tanh_nl ~n:3 ~r:1e3
    ~vi:0.2 ~a_range:(0.3, 1.45) ()

let test_grid_holes () =
  arm "grid-point@2";
  let g = small_grid () in
  Alcotest.(check int) "one hole" 1 (Summary.failed g.failures);
  Alcotest.(check int) "attempted all rows" 31 g.failures.attempted;
  check_counter "resilience.grid.holes" 1;
  Alcotest.(check bool) "failed row is NaN-filled" true
    (Array.for_all (fun z -> Float.is_nan (Numerics.Cx.re z)) g.i1.(2));
  Alcotest.(check bool) "neighbour row survives" true
    (Array.for_all (fun z -> Float.is_finite (Numerics.Cx.re z)) g.i1.(3))

let test_grid_fail_fast () =
  arm "grid-point@2";
  Policy.set_fail_fast true;
  ignore (expect_error ~kind:"fault-injected" small_grid)

let test_grid_zero_fault_bit_identity () =
  (* arming and clearing a plan must leave no trace in the numbers *)
  let a = small_grid () in
  arm "grid-point@2";
  Fault.clear ();
  let b = small_grid () in
  Alcotest.(check bool) "bit-identical i1" true (a.i1 = b.i1);
  Alcotest.(check bool) "clean summaries" true
    (Summary.is_clean a.failures && Summary.is_clean b.failures);
  check_counter "resilience.grid.holes" 0

(* the torus path fans out over amplitude columns: a failed column is
   the typed hole, NaN in every phi row *)
let small_torus_grid () =
  Shil.Grid.sample ~points:128 ~psi:16 ~n_phi:31 ~n_amp:21 tanh_nl ~n:3
    ~r:1e3 ~vi:0.2 ~a_range:(0.3, 1.45) ()

let column_is p (g : Shil.Grid.t) j =
  Array.for_all (fun row -> p (Numerics.Cx.re row.(j))) g.i1

let test_torus_grid_holes () =
  arm "grid-point@2";
  let g = small_torus_grid () in
  Alcotest.(check int) "one hole" 1 (Summary.failed g.failures);
  Alcotest.(check int) "attempted all columns" 21 g.failures.attempted;
  check_counter "resilience.grid.holes" 1;
  Alcotest.(check bool) "failed column is NaN-filled" true
    (column_is Float.is_nan g 2);
  Alcotest.(check bool) "neighbour column survives" true
    (column_is Float.is_finite g 3);
  match g.failures.failures with
  | [ f ] ->
    Alcotest.(check string) "typed fault" "fault-injected" (E.code f.error)
  | _ -> Alcotest.fail "expected one failure"

let test_torus_grid_deadline_holes () =
  (* a spent deadline is no grid: it raises, and no column is a hole *)
  ignore
    (expect_error ~kind:"budget-exhausted" (fun () ->
         Resilience.Deadline.with_deadline ~seconds:0.0 small_torus_grid));
  check_counter "resilience.grid.holes" 0;
  check_counter "resilience.deadline.expired" 1

let test_torus_grid_fail_fast () =
  arm "grid-point@2";
  Policy.set_fail_fast true;
  ignore (expect_error ~kind:"fault-injected" small_torus_grid)

let test_lock_range_with_bad_grid_point () =
  (* acceptance scenario: one injected bad grid point; the lock-range
     sweep completes with a partial result plus a failure summary *)
  arm "grid-point@1";
  let g = small_grid () in
  let lr = Shil.Lock_range.predict ~tol:1e-3 g ~tank:fixture_tank in
  Alcotest.(check bool) "summary carries the grid hole" false
    (Summary.is_clean lr.failures);
  Alcotest.(check bool) "range still predicted" true
    (Float.is_finite lr.delta_f_inj && lr.delta_f_inj > 0.0);
  check_counter "resilience.grid.holes" 1

let test_lock_probe_holes () =
  arm "lock-probe@0x3";
  let g = small_grid () in
  let lr = Shil.Lock_range.predict ~tol:1e-3 g ~tank:fixture_tank in
  Alcotest.(check bool) "probe holes recorded" false
    (Summary.is_clean lr.failures);
  check_counter_at_least "resilience.lockrange.holes" 1;
  (* failed probes count as unstable, so the range can only shrink *)
  Obs.reset ();
  Fault.clear ();
  let clean = Shil.Lock_range.predict ~tol:1e-3 g ~tank:fixture_tank in
  Alcotest.(check bool) "conservative" true
    (lr.phi_d_max <= clean.phi_d_max +. 1e-12)

let test_lock_range_deadline_raises () =
  (* a spent deadline is no verdict: no phi_d_max = 0, [nan, nan] band *)
  let g = small_grid () in
  ignore
    (expect_error ~kind:"budget-exhausted" (fun () ->
         Resilience.Deadline.with_deadline ~seconds:0.0 (fun () ->
             Shil.Lock_range.predict ~tol:1e-3 g ~tank:fixture_tank)));
  check_counter "resilience.lockrange.holes" 0

(* ------------------------------------------------------------------ *)
(* The one lock-edge locator: holes, fail-fast and deadlines *)

let edge_guard () =
  Resilience.Guard.make ~label:(Printf.sprintf "x=%g") Numerics
    ~phase:"edgetest"

let below t x = x < t

let test_edge_hole_is_unlocked () =
  let g = edge_guard () in
  let probe x = if x = 0.5 then failwith "probe blew up" else below 0.8 x in
  (match
     Numerics.Roots.edge ~site:"edgetest" g ~probe ~inside:0.0
       ~outward:[ 0.25; 0.5; 0.75 ] ~tol:0.01
   with
  | Bracketed (i, o) ->
    Alcotest.(check bool) "bracket closes at the hole" true
      (i >= 0.25 && o <= 0.5 && o -. i <= 0.01)
  | Not_bracketed _ -> Alcotest.fail "the hole must close the bracket");
  let summary = Resilience.Guard.summary g in
  Alcotest.(check int) "one hole" 1 (Summary.failed summary);
  Alcotest.(check string) "hole site" "x=0.5"
    (List.hd summary.failures).site;
  check_counter "resilience.edgetest.holes" 1

let test_edge_fail_fast () =
  Policy.set_fail_fast true;
  let g = edge_guard () in
  let e =
    expect_error ~kind:"fault-injected" (fun () ->
        Numerics.Roots.edge ~site:"edgetest" g
          ~probe:(fun _ ->
            raise
              (E.Error
                 (Fault.error ~site:"lock-probe" Numerics ~phase:"edgetest")))
          ~inside:0.0 ~outward:[ 1.0 ] ~tol:0.1)
  in
  Alcotest.(check string) "the probe's own error" "numerics.edgetest" (E.loc e);
  check_counter "resilience.edgetest.holes" 0

(* runs [f i] for [i < n] on a 2-domain pool, one item per task, and
   returns each item's raised error code (or "" for none) *)
let codes_on_two_domains n f =
  let pool = Numerics.Pool.create ~size:2 in
  Fun.protect ~finally:(fun () -> Numerics.Pool.shutdown pool) (fun () ->
      Numerics.Pool.parallel_map_array ~pool ~chunk:1
        (fun i -> match f i with _ -> "" | exception E.Error e -> E.code e)
        (Array.init n Fun.id))

let test_edge_deadline_unwinds () =
  let runs = Atomic.make 0 in
  let probe x =
    Atomic.incr runs;
    below 0.5 x
  in
  Resilience.Deadline.with_deadline ~seconds:0.0 (fun () ->
      (* expired before the search: raises before any probe runs *)
      let g = edge_guard () in
      ignore
        (expect_error ~kind:"budget-exhausted" (fun () ->
             Resilience.Guard.run g 0.0 (fun () -> probe 0.0)));
      (* pool domains inherit the caller's deadline: it ends the search
         on every one *)
      let outward = [| [ 0.25; 1.0 ]; [ 0.5 ] |] in
      Alcotest.(check (array string)) "typed budget-exhausted on each domain"
        [| "budget-exhausted"; "budget-exhausted" |]
        (codes_on_two_domains 2 (fun i ->
             Numerics.Roots.edge ~site:"edgetest" g ~probe ~inside:0.0
               ~outward:outward.(i) ~tol:0.01)));
  Alcotest.(check int) "no probe ran" 0 (Atomic.get runs);
  (* a Budget_exhausted from inside a probe unwinds too: never a hole *)
  ignore
    (expect_error ~kind:"budget-exhausted" (fun () ->
         Numerics.Roots.edge ~site:"edgetest" (edge_guard ())
           ~probe:(fun _ ->
             Resilience.Deadline.with_deadline ~seconds:0.0 (fun () ->
                 Resilience.Deadline.check Numerics ~phase:"edgetest";
                 true))
           ~inside:0.0 ~outward:[ 1.0 ] ~tol:0.1));
  check_counter "resilience.edgetest.holes" 0

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

let test_edge_deadline_lent_to_domains () =
  (* a verdict that polls the deadline (as a transient does) sees the
     caller's one on a pool domain too, so an in-flight probe stops at
     the deadline instead of running to its end *)
  let polls () =
    let t0 = Obs.Clock.wall_s () in
    while Obs.Clock.wall_s () -. t0 < 5.0 do
      Resilience.Deadline.check Numerics ~phase:"edgetest"
    done;
    true
  in
  let t0 = Obs.Clock.wall_s () in
  Resilience.Deadline.with_deadline ~seconds:0.05 (fun () ->
      let g = edge_guard () in
      Alcotest.(check (array string)) "typed budget-exhausted on each domain"
        [| "budget-exhausted"; "budget-exhausted" |]
        (codes_on_two_domains 2 (fun i ->
             Resilience.Guard.run g (float_of_int i) polls)));
  Alcotest.(check bool) "stopped at the deadline" true
    (Obs.Clock.wall_s () -. t0 < 2.0)

(* HB band on the tanh cell at n = 3, V_i = 0.03 (K = 3) *)
let hb_band_setup () =
  let osc = Circuits.Tanh_osc.oscillator Circuits.Tanh_osc.default in
  let tank = (osc.Shil.Analysis.tank : Shil.Tank.t) in
  let free =
    Hb.Driver.oscprobe ~k_max:3 ~samples:128 ~f_guess:(Shil.Tank.f_c tank)
      ~a_guess:1.16 (Circuits.Behavioural.circuit osc)
  in
  let n = 3 and vi = 0.03 in
  let inject ~f_inj =
    Circuits.Behavioural.circuit
      ~injection:(Circuits.Behavioural.injection_wave ~tank ~n ~vi ~f_inj)
      osc
  in
  fun () -> Hb.Driver.lock_range ~free ~n ~guess_width:9e3 ~inject ()

let test_hb_lock_range_deadline_raises () =
  let band = hb_band_setup () in
  ignore
    (expect_error ~kind:"budget-exhausted" (fun () ->
         Resilience.Deadline.with_deadline ~seconds:0.0 band));
  check_counter "hb.lockrange.probes" 0

let test_hb_lock_range_fail_fast () =
  let band = hb_band_setup () in
  (* every HB Newton attempt of the search fails: without fail-fast the
     centre is a hole and reads as no-oscillation *)
  arm "hb-newton@0x100";
  ignore (expect_error ~kind:"no-oscillation" band);
  check_counter "resilience.hb.holes" 1;
  (* with fail-fast the centre probe's own error surfaces *)
  Fault.clear ();
  arm "hb-newton@0x100";
  Policy.set_fail_fast true;
  let e = expect_error ~kind:"solver-divergence" band in
  Alcotest.(check bool) "names the injected fault" true
    (contains (E.to_string e) "hb-newton")

let with_jobs j f =
  let was = Numerics.Pool.default_size () in
  Fun.protect ~finally:(fun () -> Numerics.Pool.set_jobs was) (fun () ->
      Numerics.Pool.set_jobs j;
      f ())

let test_validate_deadline_raises () =
  (* the same outcome on one domain and on two: the worker-domain edge
     sees the caller's deadline through the locator's guard *)
  let cell =
    Api.Cells.behavioural
      (Circuits.Tanh_osc.oscillator Circuits.Tanh_osc.default)
  in
  let n = 3 and vi = 0.2 in
  let predicted = (Shil.Analysis.run (cell.oscillator ()) ~n ~vi).lock_range in
  List.iter
    (fun jobs ->
      with_jobs jobs (fun () ->
          ignore
            (expect_error ~kind:"budget-exhausted" (fun () ->
                 Resilience.Deadline.with_deadline ~seconds:0.5 (fun () ->
                     Api.Cells.validate cell ~n ~vi ~predicted)))))
    [ 1; 2 ]

(* ------------------------------------------------------------------ *)
(* Pool fan-out and the tongue sweep *)

let pool_guard () =
  Resilience.Guard.make ~fault:"pool-task" ~label:(Printf.sprintf "task %d")
    Numerics ~phase:"pooltest"

let test_pool_task_holes () =
  arm "pool-task@4";
  let g = pool_guard () in
  let out =
    Numerics.Pool.guarded_map ~chunk:1 g (fun x -> x * x) (Array.init 8 Fun.id)
  in
  Array.iteri
    (fun k slot ->
      match (k, slot) with
      | 4, Error e ->
        Alcotest.(check string) "typed fault" "fault-injected" (E.code e)
      | 4, Ok _ -> Alcotest.fail "task 4 must fail"
      | _, Ok v -> Alcotest.(check int) "survivor" (k * k) v
      | _, Error _ -> Alcotest.fail "only task 4 may fail")
    out;
  Alcotest.(check (list string)) "hole site" [ "task 4" ]
    (List.map (fun (f : Summary.failure) -> f.site)
       (Resilience.Guard.summary g).failures);
  check_counter "resilience.pooltest.holes" 1

let test_pool_wraps_exceptions () =
  let out =
    Numerics.Pool.guarded_map ~chunk:1 (pool_guard ())
      (fun x -> if x = 1 then failwith "boom" else x)
      [| 0; 1; 2 |]
  in
  match out with
  | [| Ok 0; Error e; Ok 2 |] ->
    Alcotest.(check string) "loc" "numerics.pooltest" (E.loc e)
  | _ -> Alcotest.fail "exactly slot 1 must fail"

(* The one hole rule gives the same result on one domain and on two: a
   fault plan and a raising item are holes at the same sites, a spent
   deadline and fail-fast raise the same errors, with the same
   resilience counters; and the deadline count covers a grid-row
   expiry and a lock-probe expiry. *)
let test_rule_jobs () =
  let outcome jobs =
    with_jobs jobs (fun () ->
        Obs.reset ();
        Fault.clear ();
        arm "pool-task@1";
        let g = pool_guard () in
        let item i = if i = 4 then failwith "boom" else i * i in
        let items = Array.init 6 Fun.id in
        let out = Numerics.Pool.guarded_map g item items in
        let slots =
          Array.map (function Ok v -> string_of_int v | Error e -> E.code e) out
        in
        let sites =
          List.map (fun (f : Summary.failure) -> f.site)
            (Resilience.Guard.summary g).failures
        in
        let code f = match f () with _ -> "" | exception E.Error e -> E.code e in
        let spent =
          code (fun () ->
              Resilience.Deadline.with_deadline ~seconds:0.0 (fun () ->
                  Numerics.Pool.guarded_map (pool_guard ()) item items))
        in
        Policy.set_fail_fast true;
        let fast =
          code (fun () -> Numerics.Pool.guarded_map (pool_guard ()) item items)
        in
        Policy.set_fail_fast false;
        Fault.clear ();
        let grid =
          code (fun () -> Resilience.Deadline.with_deadline ~seconds:0.0 small_grid)
        in
        let g = small_grid () in
        let probe =
          code (fun () ->
              Resilience.Deadline.with_deadline ~seconds:0.0 (fun () ->
                  Shil.Lock_range.predict ~tol:1e-3 g ~tank:fixture_tank))
        in
        let counters =
          List.filter
            (fun (name, _) -> String.starts_with ~prefix:"resilience." name)
            (Obs.snapshot ()).counters
        in
        (slots, sites, [ spent; fast; grid; probe ], counters))
  in
  let ((slots, sites, raised, counters) as one) = outcome 1 in
  Alcotest.(check (array string)) "slots"
    [| "0"; "fault-injected"; "4"; "9"; "solver-divergence"; "25" |] slots;
  Alcotest.(check (list string)) "hole sites" [ "task 1"; "task 4" ] sites;
  Alcotest.(check (list string)) "raised"
    [ "budget-exhausted"; "fault-injected"; "budget-exhausted";
      "budget-exhausted" ] raised;
  Alcotest.(check int) "holes" 2 (List.assoc "resilience.pooltest.holes" counters);
  Alcotest.(check int) "three expiries, one each" 3
    (List.assoc "resilience.deadline.expired" counters);
  Alcotest.(check int) "a grid-row expiry and a probe expiry" 2
    (List.assoc "resilience.deadline.expired.shil" counters);
  Alcotest.(check bool) "the same on two domains" true (outcome 2 = one)

let test_tongue_holes () =
  arm "pool-task@1";
  let osc = Circuits.Tanh_osc.oscillator Circuits.Tanh_osc.default in
  let pts, failures =
    Experiments.Tongue_experiment.compute ~points:128 ~vis:[ 0.05; 0.15 ]
      osc ~n:3
  in
  Alcotest.(check int) "one surviving cell" 1 (List.length pts);
  Alcotest.(check int) "one hole" 1 (Summary.failed failures);
  Alcotest.(check int) "attempted both" 2 failures.attempted;
  check_counter "resilience.tongue.holes" 1

(* ------------------------------------------------------------------ *)
(* Measurement and the S3 fallback paths *)

let test_measure_typed () =
  let s =
    Waveform.Signal.make
      ~times:[| 0.0; 1.0; 2.0; 3.0 |]
      ~values:[| 1.0; 1.0; 1.0; 1.0 |]
  in
  Alcotest.(check (option (float 0.0))) "frequency_opt on flat" None
    (Waveform.Measure.frequency_opt s);
  ignore
    (expect_error ~kind:"measurement-failure" (fun () ->
         Waveform.Measure.frequency s))

let test_solutions_swallow_root_failure () =
  (* Solutions.find refines candidates with a 2-D Newton and drops a
     candidate whose refinement fails — injected root failures must
     yield an empty (not raised) result *)
  let g = small_grid () in
  let clean = Shil.Solutions.find g ~phi_d:0.0 in
  Alcotest.(check bool) "fixture has locks" true (clean <> []);
  arm "roots-fail";
  let pts = Shil.Solutions.find g ~phi_d:0.0 in
  Alcotest.(check int) "all candidates dropped" 0 (List.length pts);
  check_counter_at_least "shil.solutions.refine_fails" 1

let () =
  let t name f = Alcotest.test_case name `Quick (with_env f) in
  Alcotest.run "resilience"
    [
      ( "fault",
        [
          t "plan grammar" test_fault_parse;
          t "fire windows and determinism" test_fault_fire;
          t "injected error value" test_fault_error_value;
        ] );
      ( "error",
        [
          t "rendering" test_error_render;
          t "of_exn" test_error_of_exn;
          t "raise_ bumps counters" test_raise_counters;
        ] );
      ( "policy",
        [
          t "ladder recovers" test_escalate_recovery;
          t "ladder exhausts" test_escalate_all_fail;
          t "retry budget" test_escalate_retry_budget;
          t "typed abort" test_escalate_typed_abort;
        ] );
      ( "op",
        [
          t "rung-by-rung recovery" test_op_rung_recovery;
          t "ladder exhausted" test_op_ladder_exhausted;
        ] );
      ( "transient",
        [
          t "step halving recovers" test_transient_step_halving_recovers;
          t "degrades to partial waveform" test_transient_degrades_to_partial;
          t "fail-fast raises" test_transient_fail_fast;
          t "rejected-step budget" test_transient_rejection_budget;
        ] );
      ( "grid",
        [
          t "holes" test_grid_holes;
          t "fail-fast raises" test_grid_fail_fast;
          t "zero faults bit-identical" test_grid_zero_fault_bit_identity;
          t "torus holes" test_torus_grid_holes;
          t "torus deadline holes" test_torus_grid_deadline_holes;
          t "torus fail-fast raises" test_torus_grid_fail_fast;
        ] );
      ( "lockrange",
        [
          t "partial result with bad grid point"
            test_lock_range_with_bad_grid_point;
          t "probe holes are conservative" test_lock_probe_holes;
          t "a spent deadline raises" test_lock_range_deadline_raises;
        ] );
      ( "edge locator",
        [
          t "a raising probe is an unlocked hole" test_edge_hole_is_unlocked;
          t "fail-fast re-raises" test_edge_fail_fast;
          t "a deadline unwinds on every domain" test_edge_deadline_unwinds;
          t "the deadline is lent to pool domains"
            test_edge_deadline_lent_to_domains;
          t "hb band: a spent deadline raises"
            test_hb_lock_range_deadline_raises;
          t "hb band: fail-fast surfaces the fault"
            test_hb_lock_range_fail_fast;
          t "transient band: a deadline raises at -j 1 and 2"
            test_validate_deadline_raises;
        ] );
      ( "fanout",
        [
          t "pool task holes" test_pool_task_holes;
          t "pool wraps exceptions" test_pool_wraps_exceptions;
          t "one rule at -j 1 and -j 2" test_rule_jobs;
          t "tongue sweep holes" test_tongue_holes;
        ] );
      ( "paths",
        [
          t "measurement failure is typed" test_measure_typed;
          t "solutions drop failed refinements"
            test_solutions_swallow_root_failure;
        ] );
    ]
