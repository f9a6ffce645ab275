type severity = Error | Warning | Info

type t = { severity : severity; code : string; loc : string; msg : string }

let make severity ~code ~loc msg = { severity; code; loc; msg }
let error ~code ~loc msg = make Error ~code ~loc msg
let warning ~code ~loc msg = make Warning ~code ~loc msg
let info ~code ~loc msg = make Info ~code ~loc msg

let severity_label = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let is_error d = match d.severity with Error -> true | Warning | Info -> false
let errors ds = List.filter is_error ds

let count_severity sev ds =
  List.length (List.filter (fun d -> d.severity = sev) ds)

let pp ppf d =
  Format.fprintf ppf "%s[%s] %s: %s" (severity_label d.severity) d.code d.loc
    d.msg

let pp_report ppf ds =
  Format.fprintf ppf "@[<v>%a@]"
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut pp)
    ds

let to_json d =
  Printf.sprintf
    {|{"severity":"%s","code":"%s","loc":"%s","msg":"%s"}|}
    (severity_label d.severity) (Json.escape d.code) (Json.escape d.loc)
    (Json.escape d.msg)

let list_to_json ds =
  Printf.sprintf "[%s]" (String.concat "," (List.map to_json ds))

let file_to_json ~file ds =
  Printf.sprintf {|{"file":"%s","errors":%d,"warnings":%d,"diagnostics":%s}|}
    (Json.escape file) (count_severity Error ds) (count_severity Warning ds)
    (list_to_json ds)

exception Failed of t list

let () =
  Printexc.register_printer (function
    | Failed ds ->
      Some
        (Format.asprintf "Check failed with %d error(s):@,%a"
           (List.length (errors ds))
           pp_report (errors ds))
    | _ -> None)

type gate_mode = [ `Enforce | `Warn | `Off ]

let gate ?(mode = `Enforce) ~emit ds =
  match (mode : gate_mode) with
  | `Off -> ()
  | `Warn -> List.iter emit ds
  | `Enforce ->
    let errs, rest = List.partition is_error ds in
    List.iter emit rest;
    if errs <> [] then raise (Failed errs)
