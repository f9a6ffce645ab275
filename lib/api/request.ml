type osc_spec =
  | Builtin of string
  | Custom of { g0 : float; isat : float; r : float; fc : float; q : float }

type hb_mode = Hb_osc | Hb_injected of float | Hb_lockrange

type payload =
  | Ping
  | Sleep of { s : float }
  | Natural of { osc : osc_spec }
  | Shil of {
      osc : osc_spec;
      n : int;
      vi : float;
      reduced : bool;
      finj : float option;
    }
  | Lockrange of { osc : osc_spec; n : int; vi : float; validate : bool }
  | Hb of {
      osc : osc_spec;
      n : int;
      vi : float;
      k_max : int;
      samples : int;
      mode : hb_mode;
    }
  | Dcsweep of { osc : osc_spec }
  | Transient of {
      osc : osc_spec;
      n : int;
      vi : float;
      cycles : float;
      finj : float option;
    }
  | Scenario of { name : string; text : string }
  | Lint of { name : string; text : string }
  | Netlist_op of { name : string; text : string }
  | Netlist_tran of {
      name : string;
      text : string;
      t_stop : float;
      dt : float;
      probes : string list;
    }
  | Health
  | Stats

type t = { id : string; deadline_s : float option; payload : payload }

let op_name = function
  | Ping -> "ping"
  | Sleep _ -> "sleep"
  | Natural _ -> "natural"
  | Shil _ -> "shil"
  | Lockrange _ -> "lockrange"
  | Hb _ -> "hb"
  | Dcsweep _ -> "dcsweep"
  | Transient _ -> "transient"
  | Scenario _ -> "scenario"
  | Lint _ -> "lint"
  | Netlist_op _ -> "netlist-op"
  | Netlist_tran _ -> "netlist-tran"
  | Health -> "health"
  | Stats -> "stats"

(* the CLI defaults of the --g0 family *)
let custom ?(isat = 1e-3) ?(r = 1e3) ?(fc = 1e6) ?(q = 10.0) g0 =
  Custom { g0; isat; r; fc; q }

let hb_mode ~lockrange finj =
  match (lockrange, finj) with
  | true, Some _ -> None
  | true, None -> Some Hb_lockrange
  | false, Some f -> Some (Hb_injected f)
  | false, None -> Some Hb_osc

(* --- encoding ------------------------------------------------------- *)

let osc_to_json = function
  | Builtin name -> Json.Str name
  | Custom { g0; isat; r; fc; q } ->
    Json.Obj
      [
        ("g0", Json.Num g0);
        ("isat", Json.Num isat);
        ("r", Json.Num r);
        ("fc", Json.Num fc);
        ("q", Json.Num q);
      ]

let cell_to_json osc n vi =
  [
    ("osc", osc_to_json osc);
    ("n", Json.Num (float_of_int n));
    ("vi", Json.Num vi);
  ]

let finj_to_json = function None -> [] | Some f -> [ ("finj", Json.Num f) ]

let params_to_json = function
  | Ping | Health | Stats -> []
  | Sleep { s } -> [ ("s", Json.Num s) ]
  | Natural { osc } | Dcsweep { osc } -> [ ("osc", osc_to_json osc) ]
  | Shil { osc; n; vi; reduced; finj } ->
    cell_to_json osc n vi
    @ (if reduced then [ ("reduced", Json.Bool true) ] else [])
    @ finj_to_json finj
  | Lockrange { osc; n; vi; validate } ->
    cell_to_json osc n vi
    @ if validate then [ ("validate", Json.Bool true) ] else []
  | Transient { osc; n; vi; cycles; finj } ->
    cell_to_json osc n vi @ [ ("cycles", Json.Num cycles) ] @ finj_to_json finj
  | Hb { osc; n; vi; k_max; samples; mode } ->
    cell_to_json osc n vi
    @ [
      ("kmax", Json.Num (float_of_int k_max));
      ("samples", Json.Num (float_of_int samples));
    ]
    @ (match mode with
      | Hb_osc -> []
      | Hb_injected f -> [ ("finj", Json.Num f) ]
      | Hb_lockrange -> [ ("lockrange", Json.Bool true) ])
  | Scenario { name; text } | Lint { name; text } | Netlist_op { name; text }
    ->
    [ ("name", Json.Str name); ("text", Json.Str text) ]
  | Netlist_tran { name; text; t_stop; dt; probes } ->
    [
      ("name", Json.Str name);
      ("text", Json.Str text);
      ("tstop", Json.Num t_stop);
      ("dt", Json.Num dt);
    ]
    @
    if probes = [] then []
    else [ ("probes", Json.List (List.map (fun p -> Json.Str p) probes)) ]

let to_json t =
  Json.Obj
    ([ ("id", Json.Str t.id); ("op", Json.Str (op_name t.payload)) ]
    @ (match t.deadline_s with
      | None -> []
      | Some s -> [ ("deadline_s", Json.Num s) ])
    @
    match params_to_json t.payload with
    | [] -> []
    | ps -> [ ("params", Json.Obj ps) ])

let to_string t = Json.to_string (to_json t)

(* --- decoding ------------------------------------------------------- *)

let ( let* ) = Result.bind

let field ?default name get params what =
  match Json.member name params with
  | None -> (
    match default with
    | Some d -> Ok d
    | None -> Error (Printf.sprintf "missing field %S" name))
  | Some v -> (
    match get v with
    | Some x -> Ok x
    | None -> Error (Printf.sprintf "field %S: expected %s" name what))

let str ?default name p = field ?default name Json.get_string p "a string"
let num ?default name p = field ?default name Json.get_float p "a number"
let int_ ?default name p = field ?default name Json.get_int p "an integer"
let bool_ ?default name p = field ?default name Json.get_bool p "a boolean"

let opt_num name p =
  match Json.member name p with
  | None -> Ok None
  | Some v -> (
    match Json.get_float v with
    | Some x -> Ok (Some x)
    | None -> Error (Printf.sprintf "field %S: expected a number" name))

let osc_of_json params =
  match Json.member "osc" params with
  | None -> Ok (Builtin "tanh")
  | Some (Json.Str name) -> Ok (Builtin name)
  | Some (Json.Obj _ as o) ->
    let* g0 = num "g0" o in
    let* isat = opt_num "isat" o in
    let* r = opt_num "r" o in
    let* fc = opt_num "fc" o in
    let* q = opt_num "q" o in
    Ok (custom ?isat ?r ?fc ?q g0)
  | Some _ -> Error "field \"osc\": expected a name or an object"

(* the oscillator and the injection every analysis op starts from, with
   the CLI's defaults *)
let cell_of_json params =
  let* osc = osc_of_json params in
  let* n = int_ ~default:3 "n" params in
  let* vi = num ~default:0.03 "vi" params in
  Ok (osc, n, vi)

let source_of_json params =
  let* name = str ~default:"<request>" "name" params in
  let* text = str "text" params in
  Ok (name, text)

let payload_of_json ~op params =
  match op with
  | "ping" -> Ok Ping
  | "health" -> Ok Health
  | "stats" -> Ok Stats
  | "sleep" ->
    let* s = num "s" params in
    Ok (Sleep { s })
  | "natural" ->
    let* osc = osc_of_json params in
    Ok (Natural { osc })
  | "shil" ->
    let* osc, n, vi = cell_of_json params in
    let* reduced = bool_ ~default:false "reduced" params in
    let* finj = opt_num "finj" params in
    Ok (Shil { osc; n; vi; reduced; finj })
  | "lockrange" ->
    let* osc, n, vi = cell_of_json params in
    let* validate = bool_ ~default:false "validate" params in
    Ok (Lockrange { osc; n; vi; validate })
  | "dcsweep" ->
    let* osc = osc_of_json params in
    Ok (Dcsweep { osc })
  | "transient" ->
    let* osc, n, vi = cell_of_json params in
    let* cycles = num ~default:200.0 "cycles" params in
    let* finj = opt_num "finj" params in
    Ok (Transient { osc; n; vi; cycles; finj })
  | "hb" ->
    let* osc, n, vi = cell_of_json params in
    let* k_max = int_ ~default:7 "kmax" params in
    let* samples = int_ ~default:1024 "samples" params in
    let* lockrange = bool_ ~default:false "lockrange" params in
    let* finj = opt_num "finj" params in
    let* mode =
      Option.to_result (hb_mode ~lockrange finj)
        ~none:"fields \"lockrange\" and \"finj\" conflict"
    in
    Ok (Hb { osc; n; vi; k_max; samples; mode })
  | "scenario" ->
    let* name, text = source_of_json params in
    Ok (Scenario { name; text })
  | "lint" ->
    let* name, text = source_of_json params in
    Ok (Lint { name; text })
  | "netlist-op" ->
    let* name, text = source_of_json params in
    Ok (Netlist_op { name; text })
  | "netlist-tran" ->
    let* name, text = source_of_json params in
    let* t_stop = num ~default:1e-3 "tstop" params in
    let* dt = num ~default:1e-6 "dt" params in
    let* probes =
      match Json.member "probes" params with
      | None -> Ok []
      | Some v -> (
        match Json.get_list v with
        | None -> Error "field \"probes\": expected a list"
        | Some vs ->
          List.fold_right
            (fun v acc ->
              let* acc = acc in
              match Json.get_string v with
              | Some s -> Ok (s :: acc)
              | None -> Error "field \"probes\": expected strings")
            vs (Ok []))
    in
    Ok (Netlist_tran { name; text; t_stop; dt; probes })
  | other -> Error (Printf.sprintf "unknown op %S" other)

let of_json j =
  match j with
  | Json.Obj _ ->
    let* id = str ~default:"" "id" j in
    let* op = str "op" j in
    let* deadline_s = opt_num "deadline_s" j in
    let params =
      match Json.member "params" j with Some p -> p | None -> Json.Obj []
    in
    let* payload = payload_of_json ~op params in
    Ok { id; deadline_s; payload }
  | _ -> Error "request must be a JSON object"

let of_string s =
  let* j = Json.parse s in
  of_json j
