(* Thread-keyed deadline registry. [active] counts threads that currently
   hold a deadline so that the common no-deadline case costs one atomic
   load and never touches the mutex. *)

let active = Atomic.make 0
let mu = Mutex.create ()
let table : (int, float) Hashtbl.t = Hashtbl.create 8

let locked f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

let current () =
  if Atomic.get active = 0 then None
  else
    let id = Thread.id (Thread.self ()) in
    locked (fun () -> Hashtbl.find_opt table id)

let set_current d =
  let id = Thread.id (Thread.self ()) in
  locked (fun () ->
      match d with
      | Some abs ->
        if not (Hashtbl.mem table id) then Atomic.incr active;
        Hashtbl.replace table id abs
      | None ->
        if Hashtbl.mem table id then begin
          Hashtbl.remove table id;
          Atomic.decr active
        end)

let within abs f =
  let prev = current () in
  let abs = match prev with Some p -> Float.min p abs | None -> abs in
  set_current (Some abs);
  Fun.protect ~finally:(fun () -> set_current prev) f

let with_deadline ~seconds f = within (Obs.Clock.wall_s () +. seconds) f

(* a task runs under exactly the submitter's deadline, or under none: the
   helping thread's own deadline (another request's) must not leak in *)
let carry () =
  let d = current () in
  fun f ->
    let prev = current () in
    if prev = d then f ()
    else begin
      set_current d;
      Fun.protect ~finally:(fun () -> set_current prev) f
    end

let expired () =
  match current () with
  | None -> false
  | Some abs -> Obs.Clock.wall_s () >= abs

let error subsystem ~phase =
  Oshil_error.make subsystem ~phase Budget_exhausted
    "wall-clock deadline exceeded"
    ~remedy:"raise the request deadline or reduce the work per request"

let note subsystem ~phase =
  Obs.Metrics.incr "resilience.deadline.expired";
  Obs.Metrics.incr
    ("resilience.deadline.expired." ^ Oshil_error.subsystem_name subsystem);
  error subsystem ~phase

let check subsystem ~phase =
  if expired () then raise (Oshil_error.Error (note subsystem ~phase))
