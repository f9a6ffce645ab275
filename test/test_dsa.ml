(* Tests for the typed-AST analyzer (tools/dsa). The modules under
   dsa_fixtures/ are each built to trigger (or deliberately not
   trigger) one diagnostic code; the analyzer reads their .cmt
   artifacts straight out of the build tree. The same fixtures are
   snapshotted as `dsa --json` golden output by the rule in ./dune. *)

module D = Check.Diagnostic
module Analyze = Dsa_core.Analyze
module Waiver = Dsa_core.Waiver

let codes ds = List.map (fun (d : D.t) -> d.D.code) ds
let error_codes ds = codes (D.errors ds)

let check_codes msg expected ds =
  Alcotest.(check (list string)) msg expected (List.sort_uniq String.compare ds)

(* The test binary runs in _build/default/test, where the fixture
   library's artifacts live under dsa_fixtures/.dsa_fixtures.objs and
   cmt_sourcefile paths ("test/dsa_fixtures/x.ml") resolve against the
   build-context root one level up. *)
let cmt name =
  Printf.sprintf "dsa_fixtures/.dsa_fixtures.objs/byte/dsa_fixtures__%s.cmt"
    name

let analyze name = Analyze.analyze_file ~src_root:".." (cmt name)

let fixture name ~errors ~warnings () =
  let ds = analyze name in
  check_codes (name ^ " errors") errors (error_codes ds);
  check_codes (name ^ " warnings") warnings
    (codes (List.filter (fun (d : D.t) -> d.D.severity = D.Warning) ds))

(* ------------------------------------------------------------------ *)
(* One failing and one passing fixture per rule family. *)

let test_domain_escape_bad = fixture "Bad_pool_escape"
    ~errors:[ "domain-escape" ] ~warnings:[]

let test_domain_escape_ok = fixture "Ok_pool_atomic" ~errors:[] ~warnings:[]

let test_cache_purity_bad = fixture "Bad_cache_key"
    ~errors:[ "cache-purity" ] ~warnings:[]

let test_cache_purity_bad_count () =
  (* make-without-key, mutable read, nondet clock: three distinct sites *)
  Alcotest.(check int) "three findings" 3
    (List.length (D.errors (analyze "Bad_cache_key")))

let test_cache_purity_ok = fixture "Ok_cache_key" ~errors:[] ~warnings:[]

let test_float_order_bad = fixture "Bad_float_order"
    ~errors:[ "float-order" ] ~warnings:[]

let test_float_order_ok = fixture "Ok_float_order" ~errors:[] ~warnings:[]

let test_raise_escape_bad = fixture "Bad_raise_escape"
    ~errors:[ "raise-escape" ] ~warnings:[]

let test_raise_escape_ok = fixture "Ok_raise_escape" ~errors:[] ~warnings:[]

(* ------------------------------------------------------------------ *)
(* Waiver semantics. *)

let test_waived_ok = fixture "Ok_waived"
    ~errors:[] ~warnings:[ "unused-waiver" ]

let test_bad_waiver = fixture "Bad_waiver"
    ~errors:[ "float-order" ] ~warnings:[ "bad-waiver" ]

let test_waiver_scan () =
  let ws =
    Waiver.scan
      "let a = 1\n\
       (* dsa: allow float-order — table is sorted before folding *)\n\
       let b = 2\n\
       (* dsa: allow domain-escape *)\n\
       let s = \"(* dsa: allow cache-purity — inert in a string *)\"\n\
       let q = {id_x|(* dsa: allow raise-escape — inert in quoted *)|id_x}\n"
  in
  Alcotest.(check (list (pair string bool)))
    "codes and justification"
    [ ("float-order", true); ("domain-escape", false) ]
    (List.map (fun (w : Waiver.t) -> (w.Waiver.code, w.Waiver.justified)) ws);
  let w = List.hd ws in
  Alcotest.(check bool) "covers same line" true
    (Waiver.covers w ~code:"float-order" ~line:2);
  Alcotest.(check bool) "covers line below" true
    (Waiver.covers w ~code:"float-order" ~line:3);
  Alcotest.(check bool) "not two lines below" false
    (Waiver.covers w ~code:"float-order" ~line:4);
  Alcotest.(check bool) "wrong code" false
    (Waiver.covers w ~code:"domain-escape" ~line:2)

(* ------------------------------------------------------------------ *)
(* The report aggregator and the lib/ cleanliness contract. *)

let fixture_report = lazy (Analyze.run ~src_root:".." [ "dsa_fixtures" ])

let test_run_report () =
  let report = Lazy.force fixture_report in
  Alcotest.(check bool) "analyzed all fixture modules" true
    (report.Analyze.modules >= 10);
  (* ok_waived.ml's float-order, export_waived.mli's export and the four
     exports of the raise-escape fixtures' interfaces *)
  Alcotest.(check int) "suppressed findings" 6 report.Analyze.waived;
  let files = List.map fst report.Analyze.diags in
  Alcotest.(check bool) "files sorted" true
    (files = List.sort String.compare files);
  Alcotest.(check bool) "ok fixtures absent" true
    (not
       (List.exists
          (fun f -> Filename.basename f = "ok_pool_atomic.ml")
          files))

(* unused-export over the fixture library: per interface, the codes it
   reports (files without findings are absent) *)
let test_unused_export () =
  (* the one reference to Export_test_only: from a test, so it counts
     for nothing *)
  Alcotest.(check int) "probe" 42 (Dsa_fixtures.Export_test_only.probe ());
  let report = Lazy.force fixture_report in
  let codes_of base =
    match
      List.find_opt
        (fun (f, _) -> Filename.basename f = base)
        report.Analyze.diags
    with
    | Some (_, ds) -> List.sort String.compare (codes ds)
    | None -> []
  in
  List.iter
    (fun (base, expected) ->
      Alcotest.(check (list string)) base expected (codes_of base))
    [
      ("export_used.mli", []);
      ("export_internal.mli", [ "unused-export" ]);
      ("export_test_only.mli", [ "unused-export" ]);
      ("export_waived.mli", []);
      ("export_stale_waiver.mli", [ "unused-waiver" ]);
      ("export_bad_waiver.mli", [ "bad-waiver"; "unused-export" ]);
      ("ok_raise_escape.mli", []);
    ];
  let msg base =
    match
      List.find_opt
        (fun (f, _) -> Filename.basename f = base)
        report.Analyze.diags
    with
    | Some (_, [ d ]) -> d.D.msg
    | _ -> Alcotest.failf "%s: expected one finding" base
  in
  let has_prefix ~prefix s =
    String.length s >= String.length prefix
    && String.sub s 0 (String.length prefix) = prefix
  in
  Alcotest.(check bool) "internal use named" true
    (has_prefix ~prefix:"helper is exported but only its own module uses it"
       (msg "export_internal.mli"));
  Alcotest.(check bool) "test use does not count" true
    (has_prefix ~prefix:"probe is exported but no other module uses it"
       (msg "export_test_only.mli"))

let test_lib_clean () =
  (* the @analyze alias enforces this at build time; asserting it here
     too keeps the contract visible in the unit-test report. The same
     use directories as @analyze: test/ is not one of them. *)
  let report =
    Analyze.run ~src_root:".."
      ~uses:[ "../bin"; "../examples"; "../tools"; "../perfbench" ]
      [ "../lib" ]
  in
  Alcotest.(check bool) "lib modules found" true (report.Analyze.modules > 50);
  List.iter
    (fun (file, ds) -> check_codes file [] (codes ds))
    report.Analyze.diags

let () =
  Alcotest.run "dsa"
    [
      ( "domain-escape",
        [
          Alcotest.test_case "bad: shared ref in pool closure" `Quick
            test_domain_escape_bad;
          Alcotest.test_case "ok: atomic / with_bufs / parallel_init" `Quick
            test_domain_escape_ok;
        ] );
      ( "cache-purity",
        [
          Alcotest.test_case "bad: keyless make, mutable + clock in key"
            `Quick test_cache_purity_bad;
          Alcotest.test_case "bad: all three sites found" `Quick
            test_cache_purity_bad_count;
          Alcotest.test_case "ok: keyed make, args-only key" `Quick
            test_cache_purity_ok;
        ] );
      ( "float-order",
        [
          Alcotest.test_case "bad: Hashtbl.fold into float" `Quick
            test_float_order_bad;
          Alcotest.test_case "ok: sorted keys then fold" `Quick
            test_float_order_ok;
        ] );
      ( "raise-escape",
        [
          Alcotest.test_case "bad: undocumented Invalid_argument" `Quick
            test_raise_escape_bad;
          Alcotest.test_case "ok: documented / caught / typed" `Quick
            test_raise_escape_ok;
        ] );
      ( "unused-export",
        [
          Alcotest.test_case "used / internal / test-only / waivers" `Quick
            test_unused_export;
        ] );
      ( "waivers",
        [
          Alcotest.test_case "justified waiver suppresses" `Quick
            test_waived_ok;
          Alcotest.test_case "unjustified waiver reported, finding stays"
            `Quick test_bad_waiver;
          Alcotest.test_case "scanner: comments only, strings inert" `Quick
            test_waiver_scan;
        ] );
      ( "report",
        [
          Alcotest.test_case "aggregation and ordering" `Quick
            test_run_report;
          Alcotest.test_case "lib/ is analyzer-clean" `Quick test_lib_clean;
        ] );
    ]
