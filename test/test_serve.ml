(* Tests for the request/response layer (lib/json: Json; lib/api:
   Request, execute/handle) and the daemon (lib/serve: Bq, Addr, Server,
   Client), plus the cooperative deadline plumbing they ride on.

   The server tests run a real daemon in-process on a Unix socket in a
   throwaway temp directory and talk to it over the wire — the same
   code path `oshil serve` / `oshil call` exercise. *)

module Request = Api.Request
module Deadline = Resilience.Deadline
module Server = Serve.Server
module Client = Serve.Client

let scenario_path = "../examples/scenarios/shil_tanh.scn"

(* ------------------------------------------------------------------ *)
(* Json *)

let test_json_parse_basics () =
  let ok s = match Json.parse s with Ok v -> v | Error m -> failwith m in
  Alcotest.(check bool) "null" true (ok "null" = Json.Null);
  Alcotest.(check bool) "true" true (ok "true" = Json.Bool true);
  Alcotest.(check bool) "num" true (ok " 1.5 " = Json.Num 1.5);
  Alcotest.(check bool) "neg exp" true (ok "-2e3" = Json.Num (-2000.0));
  Alcotest.(check bool) "str" true (ok {|"a\nb"|} = Json.Str "a\nb");
  Alcotest.(check bool) "list" true
    (ok "[1,2]" = Json.List [ Json.Num 1.0; Json.Num 2.0 ]);
  Alcotest.(check bool) "obj" true
    (ok {|{"a":1,"b":[]}|}
    = Json.Obj [ ("a", Json.Num 1.0); ("b", Json.List []) ]);
  Alcotest.(check bool) "surrogate pair" true
    (ok {|"😀"|} = Json.Str "\xf0\x9f\x98\x80")

let test_json_parse_hostile () =
  let bad s =
    match Json.parse s with Ok _ -> false | Error _ -> true
  in
  Alcotest.(check bool) "empty" true (bad "");
  Alcotest.(check bool) "trailing garbage" true (bad "1 2");
  Alcotest.(check bool) "bare word" true (bad "pong");
  Alcotest.(check bool) "unterminated string" true (bad {|"abc|});
  Alcotest.(check bool) "raw control char" true (bad "\"a\nb\"");
  Alcotest.(check bool) "missing colon" true (bad {|{"a" 1}|});
  Alcotest.(check bool) "trailing comma" true (bad "[1,]");
  (* depth bomb: must return Error, not overflow the stack *)
  let deep = String.concat "" [ String.make 100_000 '['; "1" ] in
  Alcotest.(check bool) "100k-deep nesting" true (bad deep)

let test_json_print () =
  Alcotest.(check string) "integral float" "3"
    (Json.to_string (Json.Num 3.0));
  Alcotest.(check string) "fraction" "1.5" (Json.to_string (Json.Num 1.5));
  Alcotest.(check string) "nan is null" "null"
    (Json.to_string (Json.Num Float.nan));
  Alcotest.(check string) "escapes" {|"a\"b\\c\nd"|}
    (Json.to_string (Json.Str "a\"b\\c\nd"));
  Alcotest.(check string) "object bytes"
    {|{"a":1,"b":[true,null]}|}
    (Json.to_string
       (Json.Obj
          [
            ("a", Json.Num 1.0);
            ("b", Json.List [ Json.Bool true; Json.Null ]);
          ]));
  (* the writer sizes its output up front: every escape class, empty
     containers and escaped keys must come out at exactly that size *)
  Alcotest.(check string) "control escapes" {|"\r\t\b\f\u0001x"|}
    (Json.to_string (Json.Str "\r\t\b\012\001x"));
  Alcotest.(check string) "empty containers" {|[[],{},""]|}
    (Json.to_string (Json.List [ Json.List []; Json.Obj []; Json.Str "" ]));
  Alcotest.(check string) "escaped key" {|{"k\"1":false,"":-2.5}|}
    (Json.to_string
       (Json.Obj [ ("k\"1", Json.Bool false); ("", Json.Num (-2.5)) ]));
  let csv = String.concat "\n" (List.init 2000 (fun i -> Printf.sprintf "%d,\"%d\"" i i)) in
  let v = Json.Obj [ ("report", Json.Str csv); ("n", Json.Num 2000.0) ] in
  Alcotest.(check bool) "large report round-trips" true
    (Json.parse (Json.to_string v) = Ok v)

(* ------------------------------------------------------------------ *)
(* Request codec *)

let sample_requests =
  [
    { Request.id = "r1"; deadline_s = None; payload = Request.Ping };
    { Request.id = "r2"; deadline_s = Some 1.5; payload = Request.Health };
    { Request.id = "r3"; deadline_s = None; payload = Request.Stats };
    { Request.id = "r4"; deadline_s = Some 0.25;
      payload = Request.Sleep { s = 0.125 } };
    { Request.id = "r5"; deadline_s = None;
      payload =
        Request.Shil
          { osc = Request.Builtin "tanh"; n = 3; vi = 0.03; reduced = true;
            finj = Some 3.1e6 } };
    { Request.id = "r6"; deadline_s = Some 9.0;
      payload =
        Request.Shil
          { osc =
              Request.Custom
                { g0 = 2e-3; isat = 1e-3; r = 1e3; fc = 1e6; q = 10.0 };
            n = 1; vi = 0.01; reduced = false; finj = None } };
    { Request.id = "r7"; deadline_s = None;
      payload = Request.Scenario { name = "a.scn"; text = "osc = tanh\n" } };
    { Request.id = "r8"; deadline_s = None;
      payload = Request.Lint { name = "a.cir"; text = "r1 a 0 1k\n.end\n" } };
    { Request.id = "r9"; deadline_s = None;
      payload = Request.Netlist_op { name = "b.cir"; text = "v1 a 0 1\n" } };
    { Request.id = "r10"; deadline_s = None;
      payload =
        Request.Netlist_tran
          { name = "c.cir"; text = "v1 a 0 1\n"; t_stop = 2e-3; dt = 1e-7;
            probes = [ "a"; "b" ] } };
    { Request.id = "r11"; deadline_s = None;
      payload = Request.Natural { osc = Request.Builtin "tunnel" } };
    { Request.id = "r12"; deadline_s = Some 60.0;
      payload =
        Request.Lockrange
          { osc =
              Request.Custom
                { g0 = 3e-3; isat = 2e-3; r = 1.5e3; fc = 2e6; q = 20.0 };
            n = 2; vi = 0.01; validate = true } };
    { Request.id = "r13"; deadline_s = None;
      payload =
        Request.Lockrange
          { osc = Request.Builtin "diffpair"; n = 3; vi = 0.03;
            validate = false } };
    { Request.id = "r14"; deadline_s = None;
      payload = Request.Dcsweep { osc = Request.Builtin "dp" } };
    { Request.id = "r15"; deadline_s = None;
      payload =
        Request.Transient
          { osc = Request.Builtin "diffpair"; n = 3; vi = 0.05;
            cycles = 12.5; finj = Some 1.5e6 } };
    { Request.id = "r16"; deadline_s = None;
      payload =
        Request.Transient
          { osc = Request.Builtin "tanh"; n = 1; vi = 0.03; cycles = 200.0;
            finj = None } };
  ]

let test_request_roundtrip () =
  List.iter
    (fun req ->
      match Request.of_string (Request.to_string req) with
      | Ok req' ->
        Alcotest.(check bool)
          (Printf.sprintf "round-trip %s" req.Request.id)
          true (req = req')
      | Error msg -> Alcotest.failf "decode %s: %s" req.Request.id msg)
    sample_requests

let test_request_defaults_and_errors () =
  (match Request.of_string {|{"op":"shil"}|} with
  | Ok { payload = Request.Shil { osc; n; vi; reduced; finj }; _ } ->
    Alcotest.(check bool) "default osc" true (osc = Request.Builtin "tanh");
    Alcotest.(check int) "default n" 3 n;
    Alcotest.(check (float 0.0)) "default vi" 0.03 vi;
    Alcotest.(check bool) "default reduced" false reduced;
    Alcotest.(check bool) "default finj" true (finj = None)
  | Ok _ -> Alcotest.fail "wrong payload"
  | Error msg -> Alcotest.failf "decode: %s" msg);
  let bad s =
    match Request.of_string s with Ok _ -> false | Error _ -> true
  in
  Alcotest.(check bool) "no op" true (bad {|{"id":"x"}|});
  Alcotest.(check bool) "unknown op" true (bad {|{"op":"frobnicate"}|});
  Alcotest.(check bool) "non-object" true (bad "[1,2,3]");
  Alcotest.(check bool) "malformed json" true (bad "{");
  Alcotest.(check bool) "scenario without text" true
    (bad {|{"op":"scenario"}|})

(* ------------------------------------------------------------------ *)
(* Cells: the one oscillator table behind --osc, requests and scenarios *)

(* lockrange --validate bisects the cell's own netlist, injected at the
   requested (n, V_i): at n = 2, V_i = 0.01 the diff-pair's validation
   circuit is the §IV-A netlist with that injection, not the paper
   bench's n = 3, V_i = 0.03 one *)
let test_validation_circuit () =
  let cell = Api.Cells.of_spec (Request.Builtin "diffpair") in
  let f_inj = 1.0066e6 in
  let netlist ~n ~vi =
    Spice.Netlist.to_string
      (Circuits.Diff_pair.circuit
         ~injection:{ vi; n; f_inj; phase = 0.0 }
         Circuits.Diff_pair.default)
  in
  let got =
    Spice.Netlist.to_string (cell.circuit (Some { n = 2; vi = 0.01; f_inj }))
  in
  Alcotest.(check string) "n = 2, V_i = 0.01" (netlist ~n:2 ~vi:0.01) got;
  Alcotest.(check bool) "not the bench's V_i = 0.03" false
    (got = netlist ~n:3 ~vi:0.03)

let cell_aliases =
  [
    (Check.Cell.Tanh, [ "tanh" ]);
    (Check.Cell.Diffpair, [ "diffpair"; "diff-pair"; "dp" ]);
    (Check.Cell.Tunnel, [ "tunnel"; "td" ]);
  ]

let command_output cmd =
  let ic = Unix.open_process_in cmd in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> out
  | _ -> Alcotest.failf "%s: non-zero exit" cmd

(* the suffix of [s] after the first occurrence of [sub] *)
let after s sub =
  let n = String.length sub in
  let rec go i =
    if i + n > String.length s then Alcotest.failf "%S not in %S" sub s
    else if String.sub s i n = sub then
      String.sub s (i + n) (String.length s - i - n)
    else go (i + 1)
  in
  go 0

(* Every alias reaches its cell alike through the CLI's --osc, a
   request's "osc" and a scenario's osc key: the f(v) table the first
   two print is the canonical name's, and the scenario's entry differs
   from the canonical one only in the echoed name. *)
let test_cell_aliases () =
  let execute payload =
    match Api.execute { Request.id = ""; deadline_s = None; payload } with
    | Ok report -> report
    | Error e -> Alcotest.failf "%s" (Resilience.Oshil_error.to_string e)
  in
  let scenario osc =
    let text = Printf.sprintf "osc = %s\n" osc in
    after (execute (Request.Scenario { name = "a.scn"; text }))
      (Printf.sprintf {|"osc":"%s"|} osc)
  in
  List.iter
    (fun (cell, aliases) ->
      let name = Check.Cell.name cell in
      let fv = execute (Request.Dcsweep { osc = Request.Builtin name }) in
      let entry = scenario name in
      List.iter
        (fun alias ->
          Alcotest.(check bool) (alias ^ ": Check.Cell") true
            (Check.Cell.of_name alias = Some cell);
          Alcotest.(check string) (alias ^ ": --osc") fv
            (command_output ("../bin/oshil.exe dcsweep --osc " ^ alias));
          let line =
            Printf.sprintf {|{"op":"dcsweep","params":{"osc":"%s"}}|} alias
          in
          (match Api.parse_request line with
          | Ok req ->
            Alcotest.(check string) (alias ^ ": request") fv
              (execute req.payload)
          | Error e -> Alcotest.failf "%s" (Resilience.Oshil_error.to_string e));
          Alcotest.(check string) (alias ^ ": .scn") entry (scenario alias))
        aliases)
    cell_aliases;
  Alcotest.(check bool) "unknown name" true (Check.Cell.of_name "custom" = None)

(* ------------------------------------------------------------------ *)
(* Bq *)

let test_bq_bounds () =
  Alcotest.check_raises "capacity 0 rejected"
    (Invalid_argument "Bq.create: capacity 0 < 1") (fun () ->
      ignore (Serve.Bq.create ~capacity:0));
  let q = Serve.Bq.create ~capacity:2 in
  Alcotest.(check int) "capacity" 2 (Serve.Bq.capacity q);
  Alcotest.(check bool) "push 1" true (Serve.Bq.try_push q 1);
  Alcotest.(check bool) "push 2" true (Serve.Bq.try_push q 2);
  Alcotest.(check bool) "push 3 rejected (full)" false (Serve.Bq.try_push q 3);
  Alcotest.(check int) "length" 2 (Serve.Bq.length q);
  Alcotest.(check bool) "fifo pop" true (Serve.Bq.pop q = Some 1);
  Alcotest.(check bool) "slot freed" true (Serve.Bq.try_push q 4);
  Serve.Bq.close q;
  Alcotest.(check bool) "push after close rejected" false
    (Serve.Bq.try_push q 5);
  Alcotest.(check bool) "drains after close" true (Serve.Bq.pop q = Some 2);
  Alcotest.(check bool) "drains after close 2" true (Serve.Bq.pop q = Some 4);
  Alcotest.(check bool) "empty+closed is None" true (Serve.Bq.pop q = None)

let test_bq_blocking_pop () =
  let q = Serve.Bq.create ~capacity:4 in
  let got = ref None in
  let t = Thread.create (fun () -> got := Serve.Bq.pop q) () in
  Thread.delay 0.05;
  Alcotest.(check bool) "consumer still blocked" true (!got = None);
  ignore (Serve.Bq.try_push q 42);
  Thread.join t;
  Alcotest.(check bool) "woke with item" true (!got = Some 42)

(* ------------------------------------------------------------------ *)
(* Addr *)

let test_addr_parse () =
  let ok s expect =
    match Serve.Addr.of_string s with
    | Ok a -> Alcotest.(check bool) s true (a = expect)
    | Error m -> Alcotest.failf "%s: %s" s m
  in
  ok "unix:/tmp/x.sock" (Serve.Addr.Unix_sock "/tmp/x.sock");
  ok "tcp:localhost:9900" (Serve.Addr.Tcp ("localhost", 9900));
  ok "127.0.0.1:8080" (Serve.Addr.Tcp ("127.0.0.1", 8080));
  ok "oshil.sock" (Serve.Addr.Unix_sock "oshil.sock")

(* ------------------------------------------------------------------ *)
(* Deadline *)

let test_deadline_scopes () =
  Alcotest.(check bool) "no ambient deadline" false (Deadline.expired ());
  Deadline.check Shil ~phase:"t";
  Deadline.with_deadline ~seconds:60.0 (fun () ->
      Alcotest.(check bool) "fresh budget not expired" false
        (Deadline.expired ());
      Deadline.with_deadline ~seconds:0.0 (fun () ->
          Alcotest.(check bool) "nested zero budget expired" true
            (Deadline.expired ());
          match Deadline.check Shil ~phase:"t" with
          | () -> Alcotest.fail "expected Budget_exhausted"
          | exception Resilience.Oshil_error.Error e ->
            Alcotest.(check bool) "typed kind" true
              (e.Resilience.Oshil_error.kind
              = Resilience.Oshil_error.Budget_exhausted));
      Alcotest.(check bool) "outer budget restored" false
        (Deadline.expired ()));
  Alcotest.(check bool) "scope exit clears" false (Deadline.expired ())

(* A carried task runs under exactly its submitter's deadline, or
   under none, whatever the running thread holds, and the running
   thread's own deadline comes back afterwards. *)
let test_deadline_carry () =
  let none = Deadline.carry () in
  let spent = Deadline.with_deadline ~seconds:0.0 Deadline.carry in
  let seen = ref None in
  let probe () = seen := Some (Deadline.expired ()) in
  Deadline.with_deadline ~seconds:0.0 (fun () ->
      none probe;
      Alcotest.(check (option bool)) "no deadline inside" (Some false) !seen;
      Alcotest.(check bool) "own deadline restored" true (Deadline.expired ()));
  spent probe;
  Alcotest.(check (option bool)) "submitter's deadline inside" (Some true)
    !seen;
  Alcotest.(check bool) "none restored" false (Deadline.expired ())

(* Pool.parallel_for's caller helps drain the shared queue, so it may run
   another submitter's chunk. Here a submitter without a deadline leaves
   a chunk queued (its own chunk and the one worker are held), and a
   thread under a spent deadline drains it: the chunk must not see that
   deadline. *)
let test_deadline_helper_keeps_its_own () =
  let pool = Numerics.Pool.create ~size:2 in
  let started = Atomic.make 0 and release = Atomic.make false in
  let ran_on = Atomic.make (-1) and saw_expired = Atomic.make None in
  let submitter =
    Domain.spawn (fun () ->
        Numerics.Pool.parallel_for ~pool ~chunk:1 ~n:3 (fun i ->
            if i < 2 then begin
              Atomic.incr started;
              while not (Atomic.get release) do
                Unix.sleepf 0.001
              done
            end
            else begin
              Atomic.set ran_on (Thread.id (Thread.self ()));
              Atomic.set saw_expired (Some (Deadline.expired ()))
            end))
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set release true;
      Domain.join submitter;
      Numerics.Pool.shutdown pool)
    (fun () ->
      let t0 = Unix.gettimeofday () in
      while Atomic.get started < 2 do
        if Unix.gettimeofday () -. t0 > 10.0 then
          Alcotest.fail "submitter's chunks never started";
        Unix.sleepf 0.001
      done;
      Deadline.with_deadline ~seconds:0.0 (fun () ->
          Numerics.Pool.parallel_for ~pool ~chunk:1 ~n:2 ignore;
          Alcotest.(check bool) "helper's deadline restored" true
            (Deadline.expired ())));
  Alcotest.(check int) "the helper ran the queued chunk"
    (Thread.id (Thread.self ())) (Atomic.get ran_on);
  Alcotest.(check (option bool)) "it ran without the helper's deadline"
    (Some false) (Atomic.get saw_expired)

(* An expired budget at grid fan-out is no grid: the sweep raises a
   typed Budget_exhausted, counted once, and records no hole. *)
let test_grid_deadline_holes () =
  let nl = Shil.Nonlinearity.neg_tanh ~g0:2e-3 ~isat:1e-3 in
  Obs.set_enabled true;
  Obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.reset ();
      Obs.set_enabled false)
    (fun () ->
      (match
         Deadline.with_deadline ~seconds:0.0 (fun () ->
             Shil.Grid.sample ~points:64 ~n_phi:5 ~n_amp:4 nl ~n:3 ~r:1e3
               ~vi:0.03 ~a_range:(0.5, 1.5) ())
       with
      | _ -> Alcotest.fail "a spent deadline must raise"
      | exception Resilience.Oshil_error.Error e ->
        Alcotest.(check bool) "typed budget-exhausted" true
          (e.kind = Resilience.Oshil_error.Budget_exhausted));
      Alcotest.(check int) "no grid holes" 0
        (Obs.Metrics.counter_value "resilience.grid.holes");
      Alcotest.(check int) "counted once" 1
        (Obs.Metrics.counter_value "resilience.deadline.expired"))

(* ------------------------------------------------------------------ *)
(* Server *)

let rm_rf dir =
  let rec go p =
    if Sys.is_directory p then begin
      Array.iter (fun e -> go (Filename.concat p e)) (Sys.readdir p);
      Sys.rmdir p
    end
    else Sys.remove p
  in
  try go dir with Sys_error _ -> ()

let rec connect_retry ?(tries = 200) addr =
  match Client.connect addr with
  | conn -> conn
  | exception Resilience.Oshil_error.Error _ when tries > 0 ->
    Thread.delay 0.01;
    connect_retry ~tries:(tries - 1) addr

(* Run [f addr] against a live daemon; always drain and join on the way
   out (the same shutdown `oshil serve` runs on SIGTERM). *)
let with_server ?(capacity = 16) ?(workers = 2) ?default_deadline_s
    ?(max_retries = 2) f =
  let dir = Filename.temp_dir "oshil-serve-test" "" in
  let addr = Serve.Addr.Unix_sock (Filename.concat dir "s.sock") in
  let config =
    {
      (Server.default_config addr) with
      capacity;
      workers;
      default_deadline_s;
      max_retries;
      retry_backoff_s = 0.01;
    }
  in
  let runner = Thread.create Server.run config in
  Fun.protect
    ~finally:(fun () ->
      Server.request_drain ();
      Thread.join runner;
      rm_rf dir)
    (fun () ->
      (* wait until the listener actually accepts before handing the
         address to the test body — no connect races in the tests *)
      Client.close (connect_retry addr);
      f addr)

let expect_ok ~what resp =
  match Json.parse resp with
  | Ok j when Json.member "status" j = Some (Json.Str "ok") -> (
    match Json.member "report" j with
    | Some (Json.Str r) -> r
    | _ -> Alcotest.failf "%s: ok response without report: %s" what resp)
  | Ok _ -> Alcotest.failf "%s: not an ok response: %s" what resp
  | Error m -> Alcotest.failf "%s: unparseable response %s: %s" what resp m

let expect_error ~what ~code resp =
  match Json.parse resp with
  | Ok j when Json.member "status" j = Some (Json.Str "error") -> (
    match Option.bind (Json.member "error" j) (Json.member "code") with
    | Some (Json.Str c) ->
      Alcotest.(check string) (what ^ ": error code") code c
    | _ -> Alcotest.failf "%s: error response without code: %s" what resp)
  | Ok _ -> Alcotest.failf "%s: not an error response: %s" what resp
  | Error m -> Alcotest.failf "%s: unparseable response %s: %s" what resp m

let test_server_framing () =
  with_server @@ fun addr ->
  let conn = connect_retry addr in
  Fun.protect ~finally:(fun () -> Client.close conn) @@ fun () ->
  (* several requests on one connection, ids echoed in order *)
  List.iter
    (fun id ->
      let req = { Request.id; deadline_s = None; payload = Request.Ping } in
      let resp = Client.request conn (Request.to_string req) in
      (match Json.parse resp with
      | Ok j ->
        Alcotest.(check bool) "id echoed" true
          (Json.member "id" j = Some (Json.Str id))
      | Error m -> Alcotest.failf "bad response: %s" m);
      Alcotest.(check string) "ping report" "pong"
        (expect_ok ~what:"ping" resp))
    [ "a"; "b"; "c" ]

let test_server_malformed_then_alive () =
  with_server @@ fun addr ->
  let conn = connect_retry addr in
  Fun.protect ~finally:(fun () -> Client.close conn) @@ fun () ->
  expect_error ~what:"garbage line" ~code:"parse-failure"
    (Client.request conn "this is not json");
  expect_error ~what:"json non-object" ~code:"parse-failure"
    (Client.request conn "[1,2,3]");
  expect_error ~what:"unknown op" ~code:"parse-failure"
    (Client.request conn {|{"id":"x","op":"frobnicate"}|});
  (* the daemon survived all three protocol errors *)
  Alcotest.(check string) "still serving" "pong"
    (expect_ok ~what:"ping after garbage"
       (Client.request conn {|{"id":"x","op":"ping"}|}))

let test_server_queue_full_rejection () =
  with_server ~workers:1 ~capacity:1 @@ fun addr ->
  let sleep_req id =
    Request.to_string
      { Request.id; deadline_s = Some 10.0;
        payload = Request.Sleep { s = 0.4 } }
  in
  (* s1 occupies the single worker, s2 the single queue slot *)
  let r1 = ref "" and r2 = ref "" in
  let t1 =
    Thread.create (fun () -> r1 := Client.call addr (sleep_req "s1")) ()
  in
  Thread.delay 0.1;
  let t2 =
    Thread.create (fun () -> r2 := Client.call addr (sleep_req "s2")) ()
  in
  Thread.delay 0.1;
  (* the third concurrent request must be rejected immediately with the
     typed overload error — explicit backpressure, not blind queueing *)
  expect_error ~what:"overload" ~code:"overload"
    (Client.call addr (sleep_req "s3"));
  Thread.join t1;
  Thread.join t2;
  Alcotest.(check string) "s1 completed" "ok" (expect_ok ~what:"s1" !r1);
  Alcotest.(check string) "s2 completed" "ok" (expect_ok ~what:"s2" !r2);
  (* rejection did not wedge the daemon *)
  Alcotest.(check string) "post-overload ping" "pong"
    (expect_ok ~what:"ping"
       (Client.call addr
          (Request.to_string
             { Request.id = "p"; deadline_s = None; payload = Request.Ping })))

let test_server_deadline_expiry () =
  with_server @@ fun addr ->
  let conn = connect_retry addr in
  Fun.protect ~finally:(fun () -> Client.close conn) @@ fun () ->
  (* a request whose work overruns its own deadline comes back as a
     typed budget-exhausted error, and the worker survives *)
  expect_error ~what:"deadline" ~code:"budget-exhausted"
    (Client.request conn
       (Request.to_string
          { Request.id = "d"; deadline_s = Some 0.05;
            payload = Request.Sleep { s = 5.0 } }));
  Alcotest.(check string) "worker survived" "pong"
    (expect_ok ~what:"ping"
       (Client.request conn
          (Request.to_string
             { Request.id = "p"; deadline_s = None; payload = Request.Ping })))

let test_server_bit_identical_to_local () =
  (* concurrent wire requests return exactly the bytes the in-process
     Api path produces — the daemon adds nothing and loses nothing *)
  let text = In_channel.with_open_bin scenario_path In_channel.input_all in
  let requests =
    [
      { Request.id = "q1"; deadline_s = None; payload = Request.Ping };
      { Request.id = "q2"; deadline_s = None;
        payload = Request.Lint { name = "shil_tanh.scn"; text } };
      { Request.id = "q3"; deadline_s = None;
        payload = Request.Scenario { name = "shil_tanh.scn"; text } };
      { Request.id = "q4"; deadline_s = None;
        payload =
          Request.Netlist_op
            { name = "div.cir"; text = "v1 in 0 1\nr1 in out 1k\nr2 out 0 1k\n" }
      };
    ]
  in
  let expected =
    List.map
      (fun req ->
        Api.response_of_outcome ~id:req.Request.id (Api.handle req))
      requests
  in
  with_server @@ fun addr ->
  let results = Array.make (List.length requests) "" in
  let threads =
    List.mapi
      (fun i req ->
        Thread.create
          (fun () ->
            let conn = connect_retry addr in
            Fun.protect ~finally:(fun () -> Client.close conn) @@ fun () ->
            results.(i) <- Client.request conn (Request.to_string req))
          ())
      requests
  in
  List.iter Thread.join threads;
  List.iteri
    (fun i want ->
      Alcotest.(check string)
        (Printf.sprintf "response %d byte-identical" (i + 1))
        want
        results.(i))
    expected

let test_server_fault_injection_typed () =
  (* an injected fault at the serve-request site: typed error response,
     daemon keeps serving (retries disabled so the fault surfaces) *)
  (match Resilience.Fault.configure "serve-request" with
  | Ok () -> ()
  | Error m -> Alcotest.failf "fault plan: %s" m);
  Fun.protect ~finally:(fun () -> Resilience.Fault.clear ())
  @@ fun () ->
  with_server ~max_retries:0 @@ fun addr ->
  let conn = connect_retry addr in
  Fun.protect ~finally:(fun () -> Client.close conn) @@ fun () ->
  expect_error ~what:"injected" ~code:"fault-injected"
    (Client.request conn
       (Request.to_string
          { Request.id = "f"; deadline_s = None; payload = Request.Ping }));
  (* health is answered inline, outside the faulted worker path *)
  Alcotest.(check string) "health still ok" {|{"status":"ok"}|}
    (expect_ok ~what:"health"
       (Client.request conn {|{"id":"h","op":"health"}|}))

let test_server_drain () =
  let dir = Filename.temp_dir "oshil-serve-test" "" in
  let path = Filename.concat dir "s.sock" in
  let addr = Serve.Addr.Unix_sock path in
  let config = { (Server.default_config addr) with workers = 1 } in
  let runner = Thread.create Server.run config in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let conn = connect_retry addr in
  Alcotest.(check string) "serving before drain" "pong"
    (expect_ok ~what:"ping"
       (Client.request conn {|{"id":"p","op":"ping"}|}));
  (* what the SIGTERM handler runs *)
  Server.request_drain ();
  Alcotest.(check bool) "draining" true (Server.draining ());
  (* run() returns: listener closed, workers joined, sinks flushed *)
  Thread.join runner;
  Alcotest.(check bool) "socket removed on drain" false
    (Sys.file_exists path);
  Client.close conn

(* ------------------------------------------------------------------ *)
(* stats golden snapshot *)

let test_stats_golden () =
  let s =
    {
      Server.draining = false;
      workers = 2;
      queue_depth = 1;
      queue_capacity = 16;
      in_flight = 2;
      connections = 3;
      received = 10;
      ok = 7;
      errors = 2;
      rejected_overload = 1;
      rejected_draining = 0;
      retries = 4;
      deadline_expired = 1;
      cache_hits = 5;
      cache_misses = 6;
      cache_corrupt = 0;
    }
  in
  let want =
    String.trim
      (In_channel.with_open_bin "golden/serve_stats.json"
         In_channel.input_all)
  in
  Alcotest.(check string) "stats_to_json byte layout" want
    (Server.stats_to_json s);
  (* the health payload splices in as raw JSON *)
  let with_health = Server.stats_to_json ~health:{|{"x":1}|} s in
  Alcotest.(check bool) "health spliced" true
    (match Json.parse with_health with
    | Ok j -> Json.member "health" j = Some (Json.Obj [ ("x", Json.Num 1.0) ])
    | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* qcheck properties *)

let qtest = Qseed.qtest

let json_gen =
  let open QCheck.Gen in
  (* finite floats only: non-finite prints as null by design *)
  let num = map (fun f -> Json.Num f) (float_range (-1e6) 1e6) in
  let str = map (fun s -> Json.Str s) (string_size ~gen:printable (0 -- 12)) in
  let base = oneof [ return Json.Null; map (fun b -> Json.Bool b) bool; num; str ] in
  let key = string_size ~gen:(char_range 'a' 'z') (1 -- 6) in
  sized
  @@ fix (fun self n ->
         if n <= 0 then base
         else
           frequency
             [
               (2, base);
               (1, map (fun l -> Json.List l) (list_size (0 -- 4) (self (n / 2))));
               ( 1,
                 map
                   (fun l -> Json.Obj l)
                   (list_size (0 -- 4) (pair key (self (n / 2)))) );
             ])

let props =
  [
    qtest ~count:200 "json: print/parse round-trip"
      (QCheck.make ~print:Json.to_string json_gen)
      (fun v ->
        match Json.parse (Json.to_string v) with
        | Ok v' -> v = v'
        | Error _ -> false);
    qtest ~count:200 "json: parse never raises"
      QCheck.(string_of_size Gen.(0 -- 64))
      (fun s ->
        match Json.parse s with Ok _ -> true | Error _ -> true);
    qtest ~count:100 "request: sleep codec round-trips deadline"
      QCheck.(pair (float_range 0.001 100.0) (float_range 0.001 100.0))
      (fun (s, d) ->
        let req =
          { Request.id = "q"; deadline_s = Some d;
            payload = Request.Sleep { s } }
        in
        match Request.of_string (Request.to_string req) with
        | Ok req' -> req = req'
        | Error _ -> false);
  ]

let () =
  Alcotest.run "serve"
    [
      ( "json",
        [
          Alcotest.test_case "parse basics" `Quick test_json_parse_basics;
          Alcotest.test_case "hostile input" `Quick test_json_parse_hostile;
          Alcotest.test_case "printing" `Quick test_json_print;
        ] );
      ( "request",
        [
          Alcotest.test_case "codec round-trip" `Quick test_request_roundtrip;
          Alcotest.test_case "defaults and errors" `Quick
            test_request_defaults_and_errors;
        ] );
      ( "cells",
        [
          Alcotest.test_case "validation netlist at the requested n, V_i"
            `Quick test_validation_circuit;
          Alcotest.test_case "aliases alike via --osc, request and .scn"
            `Quick test_cell_aliases;
        ] );
      ( "bq",
        [
          Alcotest.test_case "bounds and close" `Quick test_bq_bounds;
          Alcotest.test_case "blocking pop" `Quick test_bq_blocking_pop;
        ] );
      ("addr", [ Alcotest.test_case "parse" `Quick test_addr_parse ]);
      ( "deadline",
        [
          Alcotest.test_case "scopes" `Quick test_deadline_scopes;
          Alcotest.test_case "carry installs the submitter's deadline"
            `Quick test_deadline_carry;
          Alcotest.test_case "a helper's deadline stays off others' tasks"
            `Quick test_deadline_helper_keeps_its_own;
          Alcotest.test_case "grid holes under expired budget" `Quick
            test_grid_deadline_holes;
        ] );
      ( "server",
        [
          Alcotest.test_case "framing round-trip" `Quick test_server_framing;
          Alcotest.test_case "malformed line, then alive" `Quick
            test_server_malformed_then_alive;
          Alcotest.test_case "queue-full typed rejection" `Quick
            test_server_queue_full_rejection;
          Alcotest.test_case "deadline expiry typed error" `Quick
            test_server_deadline_expiry;
          Alcotest.test_case "wire bytes == local Api bytes" `Quick
            test_server_bit_identical_to_local;
          Alcotest.test_case "injected fault is typed, not fatal" `Quick
            test_server_fault_injection_typed;
          Alcotest.test_case "drain (SIGTERM path)" `Quick test_server_drain;
        ] );
      ( "stats",
        [ Alcotest.test_case "golden JSON snapshot" `Quick test_stats_golden ]
      );
      ("properties", props);
    ]
