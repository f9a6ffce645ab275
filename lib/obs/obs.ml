(* Facade for the telemetry layer: re-exports the submodules and owns
   the process-wide sink configuration + at_exit flush. *)

module Clock = Clock
module Registry = Registry
module Span = Span
module Metrics = Metrics
module Event = Event
module Sink = Sink
module Trace_read = Trace_read
module Report = Report

let enabled () = Atomic.get Registry.enabled
let set_enabled b = Atomic.set Registry.enabled b
let set_events_enabled b = Atomic.set Registry.events_enabled b
let snapshot = Registry.snapshot
let reset = Registry.reset

type config = {
  mutable chrome : string option;
  mutable jsonl : string option;
  mutable summary : bool;
  mutable flush_registered : bool;
}

let config_mu = Mutex.create ()
let config =
  { chrome = None; jsonl = None; summary = false; flush_registered = false }

let flush () =
  let chrome, jsonl, summary =
    Mutex.lock config_mu;
    let c = (config.chrome, config.jsonl, config.summary) in
    Mutex.unlock config_mu;
    c
  in
  if chrome <> None || jsonl <> None || summary then begin
    let s = snapshot () in
    Option.iter (fun path -> Sink.chrome_trace ~path s) chrome;
    Option.iter (fun path -> Sink.jsonl ~path s) jsonl;
    if summary then Format.eprintf "%a@." Sink.summary s
  end

let configure ?chrome_file ?jsonl_file ?summary ?enabled ?events () =
  Mutex.lock config_mu;
  Option.iter (fun p -> config.chrome <- Some p) chrome_file;
  Option.iter (fun p -> config.jsonl <- Some p) jsonl_file;
  Option.iter (fun b -> config.summary <- b) summary;
  let need_flush =
    (config.chrome <> None || config.jsonl <> None || config.summary)
    && not config.flush_registered
  in
  if need_flush then config.flush_registered <- true;
  Mutex.unlock config_mu;
  (* Registered lazily at configure time, i.e. after module-init
     at_exit handlers such as the pool shutdown — LIFO order then runs
     this flush first, while worker domains are still alive. *)
  if need_flush then at_exit flush;
  Option.iter set_enabled enabled;
  Option.iter set_events_enabled events

(* "-" routes the JSONL log to stderr (pipeline-friendly); a ".jsonl"
   suffix selects the JSONL file sink, anything else the Chrome
   trace. *)
let trace_to_file path =
  if path = "-" || Filename.check_suffix path ".jsonl" then
    configure ~jsonl_file:path ~enabled:true ()
  else configure ~chrome_file:path ~enabled:true ()

let configure_from_env () =
  (match Sys.getenv_opt "OSHIL_TRACE" with
  | Some path when path <> "" -> trace_to_file path
  | _ -> ());
  (match Sys.getenv_opt "OSHIL_EVENTS" with
  | Some ("1" | "true" | "yes") -> configure ~events:true ()
  | _ -> ());
  match Sys.getenv_opt "OSHIL_METRICS" with
  | Some ("1" | "true" | "yes") -> configure ~summary:true ~enabled:true ()
  | _ -> ()
