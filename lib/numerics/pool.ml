type t = {
  size : int;
  mutable workers : unit Domain.t array;
  mutex : Mutex.t;  (* guards [jobs] and [live] *)
  cond : Condition.t;  (* "a job was pushed" / "shutting down" *)
  jobs : (unit -> unit) Queue.t;
  mutable live : bool;
}

(* ------------------------------------------------------------------ *)
(* Execution statistics: per-domain cells registered on first use, read
   by [stats]. Always on — the cost is two clock reads per chunk, not
   per element. Cross-domain reads of the mutable fields are only
   guaranteed fresh after a completed [parallel_for] (the pending
   countdown publishes them); mid-flight reads may lag, which is fine
   for telemetry. *)

type stat_cell = {
  sdom : int;
  mutable c_tasks : int;
  mutable c_busy_ns : int64;
}

type domain_stat = { dom : int; tasks : int; busy_ns : int64 }
type stats = { tasks : int; busy_ns : int64; per_domain : domain_stat array }

let stat_cells : stat_cell list ref = ref []
let stat_mu = Mutex.create ()

let stat_key =
  Domain.DLS.new_key (fun () ->
      let c =
        { sdom = (Domain.self () :> int); c_tasks = 0; c_busy_ns = 0L }
      in
      Mutex.lock stat_mu;
      stat_cells := c :: !stat_cells;
      Mutex.unlock stat_mu;
      c)

let record_task ~t0 =
  let c = Domain.DLS.get stat_key in
  c.c_tasks <- c.c_tasks + 1;
  c.c_busy_ns <- Int64.add c.c_busy_ns (Int64.sub (Obs.Clock.now_ns ()) t0)

let stats () =
  let cells =
    Mutex.lock stat_mu;
    let cs = !stat_cells in
    Mutex.unlock stat_mu;
    cs
  in
  let per_domain =
    List.map
      (fun c -> { dom = c.sdom; tasks = c.c_tasks; busy_ns = c.c_busy_ns })
      cells
    |> List.sort (fun a b -> Int.compare a.dom b.dom)
    |> Array.of_list
  in
  let tasks =
    Array.fold_left (fun acc (d : domain_stat) -> acc + d.tasks) 0 per_domain
  in
  let busy_ns =
    Array.fold_left
      (fun acc (d : domain_stat) -> Int64.add acc d.busy_ns)
      0L per_domain
  in
  { tasks; busy_ns; per_domain }

(* Set while a domain is executing pool tasks; nested parallel calls
   check it and degrade to sequential. *)
let in_worker_key = Domain.DLS.new_key (fun () -> false)
let in_worker () = Domain.DLS.get in_worker_key

let with_task_flag f =
  let prev = Domain.DLS.get in_worker_key in
  Domain.DLS.set in_worker_key true;
  Fun.protect ~finally:(fun () -> Domain.DLS.set in_worker_key prev) f

(* Every live pool, so at_exit can join stray workers (a spawned domain
   that is never joined keeps the process alive). *)
let live_pools : t list ref = ref []
let live_pools_mutex = Mutex.create ()

let register p =
  Mutex.lock live_pools_mutex;
  live_pools := p :: !live_pools;
  Mutex.unlock live_pools_mutex

let unregister p =
  Mutex.lock live_pools_mutex;
  (* mlint: allow phys-eq — pool identity, not structural equality *)
  live_pools := List.filter (fun q -> q != p) !live_pools;
  Mutex.unlock live_pools_mutex

let rec worker_loop pool =
  Mutex.lock pool.mutex;
  while Queue.is_empty pool.jobs && pool.live do
    Condition.wait pool.cond pool.mutex
  done;
  if Queue.is_empty pool.jobs then Mutex.unlock pool.mutex (* shutdown *)
  else begin
    let job = Queue.pop pool.jobs in
    Mutex.unlock pool.mutex;
    job ();
    worker_loop pool
  end

let create ~size =
  if size < 1 then invalid_arg "Pool.create: size must be >= 1";
  let pool =
    {
      size;
      workers = [||];
      mutex = Mutex.create ();
      cond = Condition.create ();
      jobs = Queue.create ();
      live = true;
    }
  in
  pool.workers <-
    Array.init (size - 1) (fun _ ->
        Domain.spawn (fun () ->
            Domain.DLS.set in_worker_key true;
            worker_loop pool));
  register pool;
  pool

let size p = p.size

let shutdown p =
  Mutex.lock p.mutex;
  if p.live then begin
    p.live <- false;
    Condition.broadcast p.cond;
    Mutex.unlock p.mutex;
    Array.iter Domain.join p.workers;
    p.workers <- [||];
    unregister p
  end
  else Mutex.unlock p.mutex

let () =
  at_exit (fun () ->
      let ps =
        Mutex.lock live_pools_mutex;
        let ps = !live_pools in
        Mutex.unlock live_pools_mutex;
        ps
      in
      List.iter shutdown ps)

(* ------------------------------------------------------------------ *)
(* Default pool *)

let jobs_override = ref None

let env_jobs () =
  match Sys.getenv_opt "OSHIL_JOBS" with
  | None -> None
  | Some s -> begin
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> Some n
    | _ -> None
  end

let default_size () =
  match !jobs_override with
  | Some n -> n
  | None -> begin
    match env_jobs () with
    | Some n -> n
    | None -> Domain.recommended_domain_count ()
  end

let default_pool = ref None
let default_mutex = Mutex.create ()

let set_jobs n =
  if n < 1 then invalid_arg "Pool.set_jobs: jobs must be >= 1";
  Mutex.lock default_mutex;
  jobs_override := Some n;
  (match !default_pool with
  | Some p when p.size <> n ->
    default_pool := None;
    Mutex.unlock default_mutex;
    shutdown p
  | _ -> Mutex.unlock default_mutex)

let get_default () =
  Mutex.lock default_mutex;
  let sz = default_size () in
  let res =
    if sz <= 1 then None
    else begin
      match !default_pool with
      | Some p when p.size = sz && p.live -> Some p
      | stale ->
        let p = create ~size:sz in
        default_pool := Some p;
        (match stale with
        | Some old ->
          (* resize (or replace a shut-down pool): retire the old one *)
          Mutex.unlock default_mutex;
          shutdown old;
          Mutex.lock default_mutex
        | None -> ());
        Some p
    end
  in
  Mutex.unlock default_mutex;
  res

(* ------------------------------------------------------------------ *)
(* Parallel iteration *)

let sequential_for n f =
  for i = 0 to n - 1 do
    f i
  done

let parallel_for ?pool ?chunk ~n f =
  if n <= 0 then ()
  else if in_worker () then sequential_for n f
  else begin
    let pool = match pool with Some p -> Some p | None -> get_default () in
    match pool with
    | None -> sequential_for n f
    | Some p when p.size <= 1 || not p.live -> sequential_for n f
    | Some p ->
      let chunk =
        match chunk with
        | Some c when c >= 1 -> c
        | Some _ -> invalid_arg "Pool.parallel_for: chunk must be >= 1"
        | None -> max 1 ((n + (4 * p.size) - 1) / (4 * p.size))
      in
      let n_chunks = (n + chunk - 1) / chunk in
      if n_chunks <= 1 then sequential_for n f
      else begin
        let pending = Atomic.make n_chunks in
        (* lowest failing chunk wins, so the surfaced exception does not
           depend on scheduling *)
        let first_error = Atomic.make None in
        let done_mutex = Mutex.create () and done_cond = Condition.create () in
        (* every chunk runs under the submitting thread's deadline *)
        let under_deadline = Resilience.Deadline.carry () in
        let run_chunk c =
          let t0 = Obs.Clock.now_ns () in
          (try
             under_deadline (fun () ->
                 with_task_flag (fun () ->
                     let lo = c * chunk and hi = min n ((c + 1) * chunk) in
                     for i = lo to hi - 1 do
                       f i
                     done))
           with e ->
             let bt = Printexc.get_raw_backtrace () in
             let rec save () =
               match Atomic.get first_error with
               | Some (c0, _, _) when c0 <= c -> ()
               | cur ->
                 if not (Atomic.compare_and_set first_error cur (Some (c, e, bt)))
                 then save ()
             in
             save ());
          record_task ~t0;
          if Atomic.fetch_and_add pending (-1) = 1 then begin
            Mutex.lock done_mutex;
            Condition.broadcast done_cond;
            Mutex.unlock done_mutex
          end
        in
        (* the fan-out's wall time stays with the caller's open span *)
        let busy0 = if Obs.enabled () then (stats ()).busy_ns else 0L in
        let w0 = Obs.Clock.now_ns () in
        Mutex.lock p.mutex;
        for c = 1 to n_chunks - 1 do
          Queue.push (fun () -> run_chunk c) p.jobs
        done;
        Condition.broadcast p.cond;
        Mutex.unlock p.mutex;
        (* the caller works too: run the first chunk, then help drain *)
        run_chunk 0;
        let rec help () =
          Mutex.lock p.mutex;
          if Queue.is_empty p.jobs then Mutex.unlock p.mutex
          else begin
            let job = Queue.pop p.jobs in
            Mutex.unlock p.mutex;
            job ();
            help ()
          end
        in
        help ();
        Mutex.lock done_mutex;
        while Atomic.get pending > 0 do
          Condition.wait done_cond done_mutex
        done;
        Mutex.unlock done_mutex;
        if Obs.enabled () then begin
          let wall = Int64.sub (Obs.Clock.now_ns ()) w0 in
          let busy = Int64.sub (stats ()).busy_ns busy0 in
          (* idle = capacity the pool had during this call minus the time
             its domains spent in chunks; clamped because concurrent
             parallel_for calls share the busy counters. *)
          let idle =
            Int64.sub (Int64.mul (Int64.of_int p.size) wall) busy
          in
          let idle = if Int64.compare idle 0L < 0 then 0L else idle in
          Obs.Metrics.incr ~by:n_chunks "numerics.pool.tasks";
          Obs.Metrics.incr ~by:(Int64.to_int idle) "numerics.pool.idle_ns";
          (* utilization timeline: one sample per fan-out, events stream *)
          if Obs.Event.enabled () then
            Obs.Event.emit
              (Obs.Event.Pool_sample
                 { domains = p.size; tasks = n_chunks; busy_ns = busy })
        end;
        match Atomic.get first_error with
        | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
        | None -> ()
      end
  end

let parallel_init ?pool ?chunk n f =
  if n < 0 then invalid_arg "Pool.parallel_init"
  else if n = 0 then [||]
  else begin
    let out = Array.make n None in
    parallel_for ?pool ?chunk ~n (fun i -> out.(i) <- Some (f i));
    Array.map (function Some v -> v | None -> assert false) out
  end

let parallel_map_array ?pool ?chunk f xs =
  parallel_init ?pool ?chunk (Array.length xs) (fun i -> f xs.(i))

let guarded_map ?pool ?chunk g f xs =
  parallel_init ?pool ?chunk (Array.length xs) (fun i ->
      Resilience.Guard.run ~at:i g xs.(i) (fun () -> f xs.(i)))
