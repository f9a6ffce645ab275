type 'k t = {
  fault : string option;
  counter : string option;
  label : 'k -> string;
  subsystem : Oshil_error.subsystem;
  phase : string;
  attempts : int Atomic.t;
  expired : bool Atomic.t;
  mu : Mutex.t;
  mutable holes : (int * Summary.failure) list;
}

let make ?fault ?counter ~label subsystem ~phase =
  { fault; counter; label; subsystem; phase; attempts = Atomic.make 0;
    expired = Atomic.make false; mu = Mutex.create (); holes = [] }

let fail e = raise (Oshil_error.Error e)

let run ?at g k f =
  let n = Atomic.fetch_and_add g.attempts 1 in
  if Deadline.expired () then begin
    (* counted by the first item to see it, however many items do *)
    if not (Atomic.exchange g.expired true) then
      Deadline.check g.subsystem ~phase:g.phase;
    fail (Deadline.error g.subsystem ~phase:g.phase)
  end;
  Option.iter (fun c -> Obs.Metrics.incr c) g.counter;
  let fires site =
    match at with Some k -> Fault.fire_at site ~k | None -> Fault.fire site
  in
  match
    match g.fault with
    | Some site when fires site ->
      fail (Fault.error ~site g.subsystem ~phase:g.phase)
    | _ -> f ()
  with
  | v -> Ok v
  | exception e ->
    let err = Oshil_error.of_exn g.subsystem ~phase:g.phase e in
    if err.kind = Budget_exhausted || Policy.fail_fast () then fail err;
    Obs.Metrics.incr ("resilience." ^ g.phase ^ ".holes");
    let hole = { Summary.site = g.label k; error = err } in
    Mutex.protect g.mu (fun () ->
        g.holes <- (Option.value at ~default:n, hole) :: g.holes);
    Error err

let summary g =
  Mutex.protect g.mu (fun () ->
      Summary.make ~attempted:(Atomic.get g.attempts)
        (List.map snd
           (List.stable_sort
              (fun (a, _) (b, _) -> Int.compare a b)
              (List.rev g.holes))))
