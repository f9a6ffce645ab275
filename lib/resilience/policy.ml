type budget = { max_retries : int; max_rejected_steps : int }

let default_budget = { max_retries = 64; max_rejected_steps = 100_000 }

(* Global degrade-vs-abort switch, read by [Guard]'s hole rule and by
   the transient's truncated-waveform degrade. *)
let fail_fast_flag = Atomic.make false
let set_fail_fast b = Atomic.set fail_fast_flag b
let fail_fast () = Atomic.get fail_fast_flag

type 'a rung = { name : string; attempt : unit -> ('a, string) result }

let rung name attempt = { name; attempt }

let budget_error ?(context = []) ~subsystem ~phase ~budget_name ~limit ~spent
    last_err =
  Obs.Metrics.incr "resilience.budget.exhausted";
  Oshil_error.make subsystem ~phase Budget_exhausted
    (Printf.sprintf "%s budget exhausted (%d of %d)" budget_name spent limit)
    ~context:
      ([
         ("budget", budget_name);
         ("limit", string_of_int limit);
         ("spent", string_of_int spent);
         ("last_error", last_err);
       ]
      @ context)
    ~remedy:"raise the budget or relax tolerances"

let escalate ?(budget = default_budget) ~subsystem ~phase rungs =
  let metric name = "resilience." ^ phase ^ "." ^ name in
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
      else begin
        if i > 0 then Obs.Metrics.incr (metric "rung." ^ r.name);
        match r.attempt () with
        | Ok v ->
          if i > 0 then Obs.Metrics.incr (metric "recovered");
          Ok v
        | Error msg -> go (i + 1) (r.name :: names_tried) msg rest
        | exception Oshil_error.Error e -> Error e
      end)
  in
  go 0 [] "no rungs attempted" rungs

(* Rejected-step accounting for transient integration. *)
type step_tracker = {
  tbudget : budget;
  tsubsystem : Oshil_error.subsystem;
  tphase : string;
  mutable rejected : int;
}

let track_steps ?(budget = default_budget) ~subsystem ~phase () =
  { tbudget = budget; tsubsystem = subsystem; tphase = phase; rejected = 0 }

let note_rejection ?context t =
  t.rejected <- t.rejected + 1;
  Obs.Metrics.incr ("resilience." ^ t.tphase ^ ".rejected_steps");
  if t.rejected > t.tbudget.max_rejected_steps then
    Error
      (budget_error ?context ~subsystem:t.tsubsystem ~phase:t.tphase
         ~budget_name:"max_rejected_steps" ~limit:t.tbudget.max_rejected_steps
         ~spent:t.rejected "too many rejected steps")
  else Ok ()
