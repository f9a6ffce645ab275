(* df-paper: one in-process caller, closed loop, running Shil requests
   through [Api.execute] with the result cache off. Loads the
   describing-function path (Numerics.Kernel, Shil.Grid,
   Shil.Lock_range); runs no Spice.Transient, Hb, Cache or Serve code. *)

(* The measured call: parse the generated line, then [Api.execute] —
   or, traced, the same steps with a span on each layer boundary.
   Returns the outcome and the render time (traced only). *)
let execute ~traced line =
  if traced then
    Run.span "bench.unit" @@ fun () ->
    match Run.span "bench.api.parse" (fun () -> Api.parse_request line) with
    | Error e -> (Error e, 0.0)
    | Ok req -> Run.execute_split req
  else
    match Api.parse_request line with
    | Error e -> (Error e, 0.0)
    | Ok req -> (Api.execute req, 0.0)

(* A round is one deck: all 72 paper cells, in a seeded stratified
   order. *)
let run_phase ~ref_tbl ~seed ~seconds ~trace =
  let rng = Random.State.make [| seed |] in
  let lat = ref [] and units = ref 0 and failed = ref 0 and render_ms = ref 0.0 in
  let rounds = ref 0 in
  let t_start = Util.now () in
  while Run.another_round ~seconds ~t_start ~rounds:!rounds do
    Array.iter
      (fun cell ->
        let line =
          Api.Request.to_string
            { id = Printf.sprintf "r%d" !units; deadline_s = None; payload = Cells.payload cell }
        in
        let (outcome, render), dt =
          Util.time (fun () -> execute ~traced:(Option.is_some trace) line)
        in
        render_ms := !render_ms +. render;
        Option.iter Trace.take trace;
        incr units;
        lat := (dt *. 1e3) :: !lat;
        match outcome with
        | Ok text when Cells.check_report ref_tbl cell text -> ()
        | Ok _ | Error _ -> incr failed)
      (Cells.deck rng);
    incr rounds
  done;
  {
    Run.lat = List.rev !lat;
    units = !units;
    rounds = !rounds;
    failed = !failed;
    mismatches = !failed;
    elapsed = Util.now () -. t_start;
    data = !render_ms;
  }

let run ~seconds ~seed ~traced =
  Cache.Store.set_enabled false;
  let ref_tbl = Cells.load_reference () in
  let setup_s, extract_ms, () =
    Run.repeat_setup ~setup:(fun () -> ((), Run.warm_up ())) ~teardown:ignore
  in
  Run.measure ~seconds ~traced ~setup_s ~extract_ms ~notes:[]
    ~run_phase:(run_phase ~ref_tbl ~seed)
    ~extra:(fun tr p x ->
      let units = float_of_int (max 1 p.units) in
      {
        x with
        parse_us = Trace.total_ms tr "bench.api.parse" *. 1e3 /. units;
        render_ms = p.data /. units;
      })
