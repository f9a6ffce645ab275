type subsystem =
  | Numerics
  | Spice
  | Shil
  | Waveform
  | Circuits
  | Experiments
  | Serve

type kind =
  | Solver_divergence
  | Singular_system
  | Step_failure
  | No_oscillation
  | Root_failure
  | Budget_exhausted
  | Measurement_failure
  | Parse_failure
  | Fault_injected
  | Overload

type t = {
  subsystem : subsystem;
  phase : string;
  kind : kind;
  msg : string;
  context : (string * string) list;
  remedy : string option;
}

exception Error of t

let subsystem_name = function
  | Numerics -> "numerics"
  | Spice -> "spice"
  | Shil -> "shil"
  | Waveform -> "waveform"
  | Circuits -> "circuits"
  | Experiments -> "experiments"
  | Serve -> "serve"

let code t =
  match t.kind with
  | Solver_divergence -> "solver-divergence"
  | Singular_system -> "singular-system"
  | Step_failure -> "step-failure"
  | No_oscillation -> "no-oscillation"
  | Root_failure -> "root-failure"
  | Budget_exhausted -> "budget-exhausted"
  | Measurement_failure -> "measurement-failure"
  | Parse_failure -> "parse-failure"
  | Fault_injected -> "fault-injected"
  | Overload -> "overload"

let loc t = subsystem_name t.subsystem ^ "." ^ t.phase

let make ?(context = []) ?remedy subsystem ~phase kind msg =
  { subsystem; phase; kind; msg; context; remedy }

let raise_ ?context ?remedy subsystem ~phase kind msg =
  let t = make ?context ?remedy subsystem ~phase kind msg in
  Obs.Metrics.incr "resilience.errors";
  Obs.Metrics.incr ("resilience.errors." ^ subsystem_name t.subsystem);
  raise (Error t)

let of_exn subsystem ~phase = function
  | Error t -> t
  | Check.Diagnostic.Failed ds ->
    make subsystem ~phase Parse_failure
      (Format.asprintf "pre-flight checks failed: %a" Check.Diagnostic.pp_report
         (Check.Diagnostic.errors ds))
  | e ->
    make subsystem ~phase Solver_divergence (Printexc.to_string e)
      ~context:[ ("exception", Printexc.exn_slot_name e) ]

let context_string t =
  match t.context with
  | [] -> ""
  | ctx ->
    " ["
    ^ String.concat ", " (List.map (fun (k, v) -> k ^ "=" ^ v) ctx)
    ^ "]"

let to_diagnostic t =
  Check.Diagnostic.error ~code:(code t) ~loc:(loc t)
    (t.msg ^ context_string t
    ^ match t.remedy with None -> "" | Some r -> " (remedy: " ^ r ^ ")")

let pp ppf t = Check.Diagnostic.pp ppf (to_diagnostic t)
let to_string t = Format.asprintf "%a" pp t

let () =
  Printexc.register_printer (function
    | Error t -> Some ("Oshil_error.Error: " ^ to_string t)
    | _ -> None)
