module Request = Api.Request
module Oshil_error = Resilience.Oshil_error
module Deadline = Resilience.Deadline
module Fault = Resilience.Fault

type config = {
  address : Addr.t;
  capacity : int;
  workers : int;
  default_deadline_s : float option;
  max_retries : int;
  retry_backoff_s : float;
}

let default_config address =
  {
    address;
    capacity = 16;
    workers = 2;
    default_deadline_s = Some 30.0;
    max_retries = 2;
    retry_backoff_s = 0.05;
  }

type stats = {
  draining : bool;
  workers : int;
  queue_depth : int;
  queue_capacity : int;
  in_flight : int;
  connections : int;
  received : int;
  ok : int;
  errors : int;
  rejected_overload : int;
  rejected_draining : int;
  retries : int;
  deadline_expired : int;
  cache_hits : int;
  cache_misses : int;
  cache_corrupt : int;
}

let stats_to_json ?(health = "null") (s : stats) =
  let server =
    Json.Obj
      [
        ("draining", Json.Bool s.draining);
        ("workers", Json.Num (float_of_int s.workers));
        ( "queue",
          Json.Obj
            [
              ("depth", Json.Num (float_of_int s.queue_depth));
              ("capacity", Json.Num (float_of_int s.queue_capacity));
            ] );
        ("in_flight", Json.Num (float_of_int s.in_flight));
        ("connections", Json.Num (float_of_int s.connections));
        ( "requests",
          Json.Obj
            [
              ("received", Json.Num (float_of_int s.received));
              ("ok", Json.Num (float_of_int s.ok));
              ("errors", Json.Num (float_of_int s.errors));
              ("rejected_overload", Json.Num (float_of_int s.rejected_overload));
              ("rejected_draining", Json.Num (float_of_int s.rejected_draining));
              ("retries", Json.Num (float_of_int s.retries));
              ("deadline_expired", Json.Num (float_of_int s.deadline_expired));
            ] );
        ( "cache",
          Json.Obj
            [
              ("hits", Json.Num (float_of_int s.cache_hits));
              ("misses", Json.Num (float_of_int s.cache_misses));
              ("corrupt", Json.Num (float_of_int s.cache_corrupt));
            ] );
      ]
  in
  Printf.sprintf {|{"server":%s,"health":%s}|} (Json.to_string server) health

(* --- drain flag ----------------------------------------------------- *)

(* Process-global so a signal handler can reach it with one atomic
   store; reset at the top of [run]. *)
let drain_flag = Atomic.make false
let request_drain () = Atomic.set drain_flag true
let draining () = Atomic.get drain_flag

(* --- connections ---------------------------------------------------- *)

type conn = {
  id : int;
  fd : Unix.file_descr;
  ic : in_channel;
  oc : out_channel;
  wmu : Mutex.t;
  alive : bool Atomic.t;
}

type job = { conn : conn; req : Request.t }

type state = {
  cfg : config;
  queue : job Bq.t;
  (* counters; plain Atomics — the stats endpoint reads a snapshot *)
  connections : int Atomic.t;
  received : int Atomic.t;
  ok : int Atomic.t;
  errors : int Atomic.t;
  rejected_overload : int Atomic.t;
  rejected_draining : int Atomic.t;
  retries : int Atomic.t;
  deadline_expired : int Atomic.t;
  in_flight : int Atomic.t;
  conns_mu : Mutex.t;
  conns : (int, conn) Hashtbl.t;
  mutable readers : Thread.t list;  (* under conns_mu *)
}

let make_state cfg =
  {
    cfg;
    queue = Bq.create ~capacity:cfg.capacity;
    connections = Atomic.make 0;
    received = Atomic.make 0;
    ok = Atomic.make 0;
    errors = Atomic.make 0;
    rejected_overload = Atomic.make 0;
    rejected_draining = Atomic.make 0;
    retries = Atomic.make 0;
    deadline_expired = Atomic.make 0;
    in_flight = Atomic.make 0;
    conns_mu = Mutex.create ();
    conns = Hashtbl.create 16;
    readers = [];
  }

let locked mu f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

let snapshot st =
  {
    draining = draining ();
    workers = st.cfg.workers;
    queue_depth = Bq.length st.queue;
    queue_capacity = Bq.capacity st.queue;
    in_flight = Atomic.get st.in_flight;
    connections = Atomic.get st.connections;
    received = Atomic.get st.received;
    ok = Atomic.get st.ok;
    errors = Atomic.get st.errors;
    rejected_overload = Atomic.get st.rejected_overload;
    rejected_draining = Atomic.get st.rejected_draining;
    retries = Atomic.get st.retries;
    deadline_expired = Atomic.get st.deadline_expired;
    cache_hits = Obs.Metrics.counter_value "cache.hits";
    cache_misses = Obs.Metrics.counter_value "cache.misses";
    cache_corrupt = Obs.Metrics.counter_value "cache.corrupt";
  }

(* --- responses ------------------------------------------------------ *)

let send conn line =
  if Atomic.get conn.alive then
    locked conn.wmu (fun () ->
        try
          output_string conn.oc line;
          output_char conn.oc '\n';
          flush conn.oc
        with Sys_error _ | Unix.Unix_error _ ->
          (* client went away mid-response; the reader loop will reap
             the connection on its next read *)
          Atomic.set conn.alive false)

let respond st conn ~id outcome =
  (match outcome with
  | Ok _ ->
    Atomic.incr st.ok;
    Obs.Metrics.incr "serve.ok"
  | Error (e : Oshil_error.t) ->
    Atomic.incr st.errors;
    Obs.Metrics.incr "serve.errors";
    if e.kind = Budget_exhausted then Atomic.incr st.deadline_expired);
  send conn (Api.response_of_outcome ~id outcome)

let overload_error ~phase msg ~context =
  Oshil_error.make Serve ~phase Overload msg ~context
    ~remedy:"retry after a backoff, or raise --capacity / --workers"

(* --- request processing --------------------------------------------- *)

let transient (e : Oshil_error.t) =
  match e.kind with
  | Fault_injected | Solver_divergence | Singular_system -> true
  | Step_failure | No_oscillation | Root_failure | Budget_exhausted
  | Measurement_failure | Parse_failure | Overload ->
    false

let process st (job : job) =
  let req = job.req in
  let attempt_once () =
    if Fault.fire "serve-request" then
      Error (Fault.error ~site:"serve-request" Serve ~phase:"request")
    else Api.execute req
  in
  let rec attempts k =
    match attempt_once () with
    | Error e
      when transient e && k < st.cfg.max_retries && not (Deadline.expired ())
      ->
      Atomic.incr st.retries;
      Obs.Metrics.incr "serve.retries";
      Thread.delay (st.cfg.retry_backoff_s *. float_of_int (1 lsl k));
      attempts (k + 1)
    | out -> out
  in
  let deadline =
    match req.deadline_s with
    | Some s -> Some s
    | None -> st.cfg.default_deadline_s
  in
  let outcome =
    match deadline with
    | Some seconds -> Deadline.with_deadline ~seconds (fun () -> attempts 0)
    | None -> attempts 0
  in
  respond st job.conn ~id:req.id outcome

let worker st () =
  let rec loop () =
    match Bq.pop st.queue with
    | None -> ()
    | Some job ->
      Atomic.incr st.in_flight;
      Fun.protect
        ~finally:(fun () -> Atomic.decr st.in_flight)
        (fun () ->
          (* [process] only raises on programming errors in the server
             itself ([Api.execute] is total); even then the worker
             survives and the client gets a typed response *)
          try process st job
          with e ->
            respond st job.conn ~id:job.req.id
              (Error (Oshil_error.of_exn Serve ~phase:"worker" e)));
      loop ()
  in
  loop ()

(* --- reader threads ------------------------------------------------- *)

let health_report () =
  Printf.sprintf {|{"status":"%s"}|}
    (if draining () then "draining" else "ok")

let handle_line st conn line =
  match Api.parse_request line with
  | Error e ->
    Atomic.incr st.errors;
    Obs.Metrics.incr "serve.protocol_errors";
    send conn (Api.response_of_outcome ~id:"" (Error e))
  | Ok req -> (
    Atomic.incr st.received;
    Obs.Metrics.incr "serve.requests";
    match req.payload with
    (* control endpoints answer inline — they must respond even when
       the queue is saturated, or they are useless for diagnosis *)
    | Request.Health -> respond st conn ~id:req.id (Ok (health_report ()))
    | Request.Stats ->
      let report =
        stats_to_json ~health:(Api.run_health_json ()) (snapshot st)
      in
      respond st conn ~id:req.id (Ok report)
    | _ ->
      if draining () then begin
        Atomic.incr st.rejected_draining;
        respond st conn ~id:req.id
          (Error
             (overload_error ~phase:"drain" "server is draining"
                ~context:[ ("state", "draining") ]))
      end
      else if not (Bq.try_push st.queue { conn; req }) then begin
        Atomic.incr st.rejected_overload;
        Obs.Metrics.incr "serve.rejected_overload";
        respond st conn ~id:req.id
          (Error
             (overload_error ~phase:"enqueue" "job queue full"
                ~context:
                  [
                    ("capacity", string_of_int (Bq.capacity st.queue));
                    ("in_flight", string_of_int (Atomic.get st.in_flight));
                  ]))
      end)

let reader st conn () =
  let rec loop () =
    match input_line conn.ic with
    | line ->
      if String.trim line <> "" then begin
        (try handle_line st conn line
         with e ->
           send conn
             (Api.response_of_outcome ~id:""
                (Error (Oshil_error.of_exn Serve ~phase:"reader" e))))
      end;
      loop ()
    | exception (End_of_file | Sys_error _ | Unix.Unix_error _) -> ()
  in
  loop ();
  Atomic.set conn.alive false;
  locked st.conns_mu (fun () -> Hashtbl.remove st.conns conn.id);
  (try Unix.close conn.fd with Unix.Unix_error _ -> ());
  Atomic.decr st.connections

(* --- accept loop ---------------------------------------------------- *)

let listen_socket addr =
  match
    let fd = Unix.socket (Addr.domain addr) Unix.SOCK_STREAM 0 in
    (match addr with
    | Addr.Tcp _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true
    | Addr.Unix_sock path ->
      (* a stale socket file from a crashed run blocks bind *)
      if Sys.file_exists path then ( try Sys.remove path with Sys_error _ -> ()));
    Unix.bind fd (Addr.sockaddr addr);
    Unix.listen fd 64;
    fd
  with
  | fd -> fd
  | exception e ->
    raise (Oshil_error.Error (Oshil_error.of_exn Serve ~phase:"listen" e))

let conn_counter = Atomic.make 0

let accept_loop st listen_fd =
  let rec loop () =
    if not (draining ()) then begin
      match Unix.select [ listen_fd ] [] [] 0.2 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | [], _, _ -> loop ()
      | _ :: _, _, _ ->
        (match Unix.accept ~cloexec:true listen_fd with
        | exception Unix.Unix_error _ -> ()
        | fd, _ ->
          let conn =
            {
              id = Atomic.fetch_and_add conn_counter 1;
              fd;
              ic = Unix.in_channel_of_descr fd;
              oc = Unix.out_channel_of_descr fd;
              wmu = Mutex.create ();
              alive = Atomic.make true;
            }
          in
          Atomic.incr st.connections;
          Obs.Metrics.incr "serve.connections";
          let t = Thread.create (reader st conn) () in
          locked st.conns_mu (fun () ->
              Hashtbl.replace st.conns conn.id conn;
              st.readers <- t :: st.readers));
        loop ()
    end
  in
  loop ()

(* --- lifecycle ------------------------------------------------------ *)

let run cfg =
  Atomic.set drain_flag false;
  (* a client disconnecting mid-write must not kill the process *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  let listen_fd = listen_socket cfg.address in
  let st = make_state cfg in
  let workers = List.init cfg.workers (fun _ -> Thread.create (worker st) ()) in
  accept_loop st listen_fd;
  (* drain: stop listening, finish queued + in-flight work, then force
     the readers out and flush telemetry *)
  (try Unix.close listen_fd with Unix.Unix_error _ -> ());
  (match cfg.address with
  | Addr.Unix_sock path -> ( try Sys.remove path with Sys_error _ -> ())
  | Addr.Tcp _ -> ());
  Bq.close st.queue;
  List.iter Thread.join workers;
  let readers =
    locked st.conns_mu (fun () ->
        Hashtbl.iter
          (fun _ conn ->
            Atomic.set conn.alive false;
            try Unix.shutdown conn.fd Unix.SHUTDOWN_ALL
            with Unix.Unix_error _ -> ())
          st.conns;
        st.readers)
  in
  List.iter Thread.join readers;
  Obs.flush ()
