type budget = {
  max_retries : int;
  max_rejected_steps : int;
  wall_clock_s : float option;
}

let default_budget =
  { max_retries = 64; max_rejected_steps = 100_000; wall_clock_s = None }

(* Global degrade-vs-abort switch. Degradation sites consult it and
   re-raise instead of recording a hole when fail-fast is on. *)
let fail_fast_flag = Atomic.make false
let set_fail_fast b = Atomic.set fail_fast_flag b
let fail_fast () = Atomic.get fail_fast_flag

type 'a rung = { name : string; attempt : unit -> ('a, string) result }

let rung name attempt = { name; attempt }

let budget_error ~subsystem ~phase ~budget_name ~limit ~spent last_err =
  Obs.Metrics.incr "resilience.budget.exhausted";
  Oshil_error.make subsystem ~phase Budget_exhausted
    (Printf.sprintf "%s budget exhausted (%d of %d)" budget_name spent limit)
    ~context:
      [
        ("budget", budget_name);
        ("limit", string_of_int limit);
        ("spent", string_of_int spent);
        ("last_error", last_err);
      ]
    ~remedy:"raise the budget or relax tolerances"

let wall_error ~subsystem ~phase ~cap ~spent last_err =
  Obs.Metrics.incr "resilience.budget.exhausted";
  Oshil_error.make subsystem ~phase Budget_exhausted
    (Printf.sprintf "wall-clock budget exhausted (%.3fs of %.3fs cap)" spent cap)
    ~context:
      [
        ("budget", "wall-clock");
        ("cap_s", Printf.sprintf "%.3f" cap);
        ("spent_s", Printf.sprintf "%.3f" spent);
        ("last_error", last_err);
      ]
    ~remedy:"raise wall_clock_s or shrink the problem"

let escalate ?(budget = default_budget) ~subsystem ~phase rungs =
  let t0 = Obs.Clock.wall_s () in
  let metric name = "resilience." ^ phase ^ "." ^ name in
  let over_wall () =
    match budget.wall_clock_s with
    | None -> None
    | Some cap ->
      let spent = Obs.Clock.wall_s () -. t0 in
      if spent > cap then Some (cap, spent) else None
  in
  let rec go i names_tried last = function
    | [] ->
      Obs.Metrics.incr (metric "failed");
      Error
        (Oshil_error.make subsystem ~phase Solver_divergence
           (Printf.sprintf "all %d recovery rungs failed: %s" i last)
           ~context:
             [
               ("rungs", String.concat "," (List.rev names_tried));
               ("last_error", last);
             ]
           ~remedy:"inspect the rung errors; the circuit may be ill-posed")
    | r :: rest -> (
      if i >= budget.max_retries then
        Error
          (budget_error ~subsystem ~phase ~budget_name:"max_retries"
             ~limit:budget.max_retries ~spent:i last)
      else
        match over_wall () with
        | Some (cap, spent) -> Error (wall_error ~subsystem ~phase ~cap ~spent last)
        | None -> (
          if i > 0 then Obs.Metrics.incr (metric "rung." ^ r.name);
          match r.attempt () with
          | Ok v ->
            if i > 0 then Obs.Metrics.incr (metric "recovered");
            Ok v
          | Error msg -> go (i + 1) (r.name :: names_tried) msg rest
          | exception Oshil_error.Error e -> Error e))
  in
  go 0 [] "no rungs attempted" rungs

(* Rejected-step accounting for transient integration. *)
type step_tracker = {
  tbudget : budget;
  tsubsystem : Oshil_error.subsystem;
  tphase : string;
  tstart : float;
  mutable rejected : int;
}

let track_steps ?(budget = default_budget) ~subsystem ~phase () =
  {
    tbudget = budget;
    tsubsystem = subsystem;
    tphase = phase;
    tstart = Obs.Clock.wall_s ();
    rejected = 0;
  }

let note_rejection ?(context = []) t =
  t.rejected <- t.rejected + 1;
  Obs.Metrics.incr ("resilience." ^ t.tphase ^ ".rejected_steps");
  ignore context;
  if t.rejected > t.tbudget.max_rejected_steps then
    Error
      (budget_error ~subsystem:t.tsubsystem ~phase:t.tphase
         ~budget_name:"max_rejected_steps" ~limit:t.tbudget.max_rejected_steps
         ~spent:t.rejected "too many rejected steps")
  else
    match t.tbudget.wall_clock_s with
    | None -> Ok ()
    | Some cap ->
      let spent = Obs.Clock.wall_s () -. t.tstart in
      if spent > cap then
        Error
          (wall_error ~subsystem:t.tsubsystem ~phase:t.tphase ~cap ~spent
             "too slow")
      else Ok ()
