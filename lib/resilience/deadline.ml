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

let save = current

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

let with_deadline ~seconds f =
  let prev = current () in
  let abs = Obs.Clock.wall_s () +. seconds in
  let abs = match prev with Some p -> Float.min p abs | None -> abs in
  set_current (Some abs);
  Fun.protect ~finally:(fun () -> set_current prev) f

let expired_abs = function
  | None -> false
  | Some abs -> Obs.Clock.wall_s () >= abs

let expired () = expired_abs (current ())

let error subsystem ~phase =
  Oshil_error.make subsystem ~phase Budget_exhausted
    "wall-clock deadline exceeded"
    ~remedy:"raise the request deadline or reduce the work per request"

let note subsystem ~phase =
  Obs.Metrics.incr "resilience.deadline.expired";
  Obs.Metrics.incr
    ("resilience.deadline.expired." ^ Oshil_error.subsystem_name subsystem);
  error subsystem ~phase

let check_abs d subsystem ~phase =
  if expired_abs d then raise (Oshil_error.Error (note subsystem ~phase))

let check subsystem ~phase = check_abs (current ()) subsystem ~phase
