(* Tests for the static verification layer: lib/check, the Spice
   pre-flight gates and the scenario files. The .cir/.scn fixtures under
   fixtures/ are each built to trigger exactly one diagnostic code; the
   same fixtures are run through `oshil lint` by the rule in ./dune to
   pin the CLI exit codes. *)

module D = Check.Diagnostic

let codes ds = List.map (fun (d : D.t) -> d.D.code) ds
let error_codes ds = codes (D.errors ds)

let check_codes msg expected ds =
  Alcotest.(check (list string)) msg expected (List.sort_uniq String.compare ds)

let read file = In_channel.with_open_bin file In_channel.input_all

let parse_netlist file =
  match Spice.Netlist.parse_string (read file) with
  | Ok c -> c
  | Error e ->
    Alcotest.failf "%s:%d: parse error: %s" file e.Spice.Netlist.line
      e.Spice.Netlist.message

let fixture_netlist file expected () =
  let c = parse_netlist (Filename.concat "fixtures" file) in
  check_codes file [ expected ] (error_codes (Spice.Preflight.check c))

let fixture_scenario file expected () =
  let s, parse_ds =
    Check.Scenario.parse_string ~name:file (read (Filename.concat "fixtures" file))
  in
  check_codes (file ^ " parse") [] (error_codes parse_ds);
  check_codes file [ expected ] (error_codes (Check.Scenario.check s))

(* ------------------------------------------------------------------ *)
(* Shipped examples must pass the linter clean. *)

let test_examples_netlists_clean () =
  List.iter
    (fun file ->
      let c = parse_netlist (Filename.concat "../examples/netlists" file) in
      check_codes file [] (codes (Spice.Preflight.check c)))
    [ "rc_filter.cir"; "colpitts_like.cir" ]

let test_examples_scenarios_clean () =
  let file = "../examples/scenarios/shil_tanh.scn" in
  let s, parse_ds =
    Check.Scenario.parse_string ~name:(Filename.basename file) (read file)
  in
  check_codes "parse" [] (codes parse_ds);
  let nl p = Shil.Nonlinearity.eval (Circuits.Tanh_osc.oscillator p).nl in
  check_codes "check" []
    (codes (Check.Scenario.check ~nl:(nl Circuits.Tanh_osc.default) s))

let test_builtin_circuits_clean () =
  List.iter
    (fun (name, c) ->
      check_codes name [] (error_codes (Spice.Preflight.check c)))
    [
      ("tanh_osc", Circuits.Tanh_osc.circuit Circuits.Tanh_osc.default);
      ("tunnel_osc", Circuits.Tunnel_osc.circuit Circuits.Tunnel_osc.default);
      ("diff_pair", Circuits.Diff_pair.circuit Circuits.Diff_pair.default);
      ("cmos_pair", Circuits.Cmos_pair.circuit Circuits.Cmos_pair.default);
    ]

(* ------------------------------------------------------------------ *)
(* Direct Check.Netlist unit tests (no SPICE layer involved). *)

module N = Check.Netlist

let test_netlist_clean_rlc () =
  let ds =
    N.check
      [
        N.vsource ~name:"V1" ~np:"in" ~nn:"0";
        N.resistor ~name:"R1" ~n1:"in" ~n2:"out" 1e3;
        N.capacitor ~name:"C1" ~n1:"out" ~n2:"0" 1e-9;
      ]
  in
  check_codes "clean RLC" [] (codes ds)

let test_netlist_dup_name () =
  let ds =
    N.check
      [
        N.resistor ~name:"R1" ~n1:"a" ~n2:"0" 1.0;
        N.resistor ~name:"R1" ~n1:"a" ~n2:"0" 2.0;
      ]
  in
  check_codes "dup" [ "dup-name" ] (error_codes ds)

let test_netlist_no_ground () =
  let ds =
    N.check
      [
        N.vsource ~name:"V1" ~np:"a" ~nn:"b";
        N.resistor ~name:"R1" ~n1:"a" ~n2:"b" 1.0;
      ]
  in
  check_codes "no ground" [ "no-ground" ] (error_codes ds)

let test_netlist_singular_structure () =
  (* two current sources in series: the shared node's KCL row has no
     matrix entry in the transient pattern, so the maximum matching is
     deficient — yet nothing is floating and there is no loop *)
  let ds =
    N.check
      [
        N.isource ~name:"I1" ~np:"a" ~nn:"0";
        N.isource ~name:"I2" ~np:"0" ~nn:"a";
      ]
  in
  Alcotest.(check bool)
    "singular-structure reported" true
    (List.mem "singular-structure" (error_codes ds))

let test_netlist_negative_r_warns () =
  let ds =
    N.check
      [
        N.vsource ~name:"V1" ~np:"a" ~nn:"0";
        N.resistor ~name:"R1" ~n1:"a" ~n2:"0" (-50.0);
      ]
  in
  check_codes "no errors" [] (error_codes ds);
  Alcotest.(check bool)
    "negative-value warning" true
    (List.mem "negative-value" (codes ds))

(* ------------------------------------------------------------------ *)
(* Check.Shil unit tests. *)

module S = Check.Shil

let test_shil_good_config () =
  let cfg = S.config ~r:1e3 ~l:1.59e-5 ~c:1.59e-9 ~n:3 ~vi:0.03 () in
  let nl v = -2e-3 *. 5e-1 *. tanh (v /. 5e-1) in
  check_codes "good config" [] (error_codes (S.check ~nl cfg))

let test_shil_bad_order_and_tank () =
  let cfg = S.config ~r:1e3 ~l:(-1.0) ~c:1.59e-9 ~n:0 ~vi:0.03 () in
  let ec = error_codes (S.check cfg) in
  Alcotest.(check bool) "order" true (List.mem "order" ec);
  Alcotest.(check bool) "tank-nonpositive" true (List.mem "tank-nonpositive" ec)

(* a well-posed tank and injection, so only the part under test reports *)
let good_config = S.config ~r:1e3 ~l:1.59e-5 ~c:1.59e-9 ~n:3 ~vi:0.03

let test_shil_grid () =
  check_codes "inverted range" [ "grid-range" ]
    (error_codes (S.check (good_config ~a_range:(2.0, 1.0) ())));
  check_codes "bad sizes" [ "grid-size" ]
    (error_codes (S.check (good_config ~n_phi:0 ~n_amp:(-3) ())))

let test_shil_nl_probes () =
  (* a passive resistor i = v/R: not an oscillator nonlinearity *)
  let ds = S.check ~nl:(fun v -> v /. 50.0) (good_config ()) in
  Alcotest.(check bool) "nl-passive" true (List.mem "nl-passive" (codes ds));
  (* a probe that raises must surface as nl-nonfinite, not escape *)
  let ds = S.check ~nl:(fun _ -> failwith "boom") (good_config ()) in
  Alcotest.(check bool) "nl-nonfinite" true (List.mem "nl-nonfinite" (codes ds))

(* ------------------------------------------------------------------ *)
(* Gate behaviour on the analysis entry points. *)

let vloop_circuit () =
  parse_netlist (Filename.concat "fixtures" "vloop.cir")

let test_gate_enforce_raises () =
  match Spice.Op.run (vloop_circuit ()) with
  | exception D.Failed ds ->
    check_codes "carried errors" [ "vsource-loop" ] (error_codes ds)
  | _ -> Alcotest.fail "Op.run accepted a voltage-source loop"

let test_gate_off_skips () =
  (* zero-value C is a hard lint error, but a DC operating point never
     assembles the cap stamp — with the gate off the solve succeeds *)
  let c = parse_netlist (Filename.concat "fixtures" "zero_c.cir") in
  (match Spice.Op.run c with
  | exception D.Failed _ -> ()
  | _ -> Alcotest.fail "Op.run accepted a zero-value capacitor");
  let sol = Spice.Op.run ~check:`Off c in
  Alcotest.(check bool)
    "solved with gate off" true
    (Float.is_finite (Spice.Op.voltage sol "out"))

let test_shil_gate_raises () =
  let osc = Circuits.Tanh_osc.oscillator Circuits.Tanh_osc.default in
  match Shil.Analysis.run osc ~n:0 ~vi:0.03 with
  | exception D.Failed ds ->
    Alcotest.(check bool) "order error" true (List.mem "order" (error_codes ds))
  | _ -> Alcotest.fail "Analysis.run accepted n = 0"

(* ------------------------------------------------------------------ *)
(* Scenario parsing and diagnostics plumbing. *)

let test_scenario_parse () =
  let s, ds =
    Check.Scenario.parse_string ~name:"inline"
      "osc = tanh\nn = 5\nvi = 0.1\nbogus = 7\nr 1e3\n"
  in
  Alcotest.(check int) "n" 5 s.Check.Scenario.n;
  Alcotest.(check (float 0.0)) "vi" 0.1 s.Check.Scenario.vi;
  Alcotest.(check bool)
    "unknown key" true
    (List.mem "scenario-unknown-key" (codes ds));
  check_codes "missing =" [ "scenario-parse" ] (error_codes ds)

let test_scenario_unknown_osc () =
  let s, _ = Check.Scenario.parse_string ~name:"inline" "osc = warp9\n" in
  Alcotest.(check bool)
    "scenario-osc" true
    (List.mem "scenario-osc" (error_codes (Check.Scenario.check s)))

let test_diagnostic_json () =
  Alcotest.(check string) "escape quote" {|a \"b\"|} (Json.escape {|a "b"|});
  Alcotest.(check string) "escape newline" {|line1\nline2|}
    (Json.escape "line1\nline2");
  let d = D.error ~code:"x" ~loc:{|a "b"|} "line1\nline2" in
  Alcotest.(check string) "to_json"
    {|[{"severity":"error","code":"x","loc":"a \"b\"","msg":"line1\nline2"}]|}
    (D.list_to_json [ d ])

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "check"
    [
      ( "fixtures",
        [
          Alcotest.test_case "floating_node.cir" `Quick
            (fixture_netlist "floating_node.cir" "floating-node");
          Alcotest.test_case "vloop.cir" `Quick
            (fixture_netlist "vloop.cir" "vsource-loop");
          Alcotest.test_case "lloop.cir" `Quick
            (fixture_netlist "lloop.cir" "inductor-loop");
          Alcotest.test_case "zero_c.cir" `Quick
            (fixture_netlist "zero_c.cir" "zero-value");
          Alcotest.test_case "neg_q.scn" `Quick
            (fixture_scenario "neg_q.scn" "tank-nonpositive");
          Alcotest.test_case "order_zero.scn" `Quick
            (fixture_scenario "order_zero.scn" "order");
        ] );
      ( "examples-clean",
        [
          Alcotest.test_case "netlists" `Quick test_examples_netlists_clean;
          Alcotest.test_case "scenarios" `Quick test_examples_scenarios_clean;
          Alcotest.test_case "built-in circuits" `Quick test_builtin_circuits_clean;
        ] );
      ( "netlist",
        [
          Alcotest.test_case "clean rlc" `Quick test_netlist_clean_rlc;
          Alcotest.test_case "dup name" `Quick test_netlist_dup_name;
          Alcotest.test_case "no ground" `Quick test_netlist_no_ground;
          Alcotest.test_case "singular structure" `Quick
            test_netlist_singular_structure;
          Alcotest.test_case "negative R warns" `Quick
            test_netlist_negative_r_warns;
        ] );
      ( "shil",
        [
          Alcotest.test_case "good config" `Quick test_shil_good_config;
          Alcotest.test_case "bad order and tank" `Quick
            test_shil_bad_order_and_tank;
          Alcotest.test_case "grid" `Quick test_shil_grid;
          Alcotest.test_case "nonlinearity probes" `Quick test_shil_nl_probes;
        ] );
      ( "gates",
        [
          Alcotest.test_case "op enforce raises" `Quick test_gate_enforce_raises;
          Alcotest.test_case "op gate off" `Quick test_gate_off_skips;
          Alcotest.test_case "shil enforce raises" `Quick test_shil_gate_raises;
        ] );
      ( "scenario",
        [
          Alcotest.test_case "parse" `Quick test_scenario_parse;
          Alcotest.test_case "unknown osc" `Quick test_scenario_unknown_osc;
          Alcotest.test_case "json escape" `Quick test_diagnostic_json;
        ] );
    ]
