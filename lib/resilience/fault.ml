let site_names =
  [
    ("newton-singular", "singular Jacobian at the k-th MNA Newton solve");
    ("device-nan", "NaN device evaluation at the k-th MNA Newton solve");
    ("tran-reject", "reject the k-th transient Newton step attempt");
    ("roots-fail", "the k-th 2-D lock-point Newton fails (Solutions.refine)");
    ("grid-point", "fail the k-th Grid.sample phi row (torus: amplitude column)");
    ("pool-task", "fail the k-th task of a resilient pool fan-out");
    ("lock-probe", "fail the k-th lock-range stability probe");
    ("validate-point", "fail the k-th Validate.lock_range transient probe");
    ("serve-request", "fail the k-th request handled by the oshil serve daemon");
    ("hb-newton", "fail the k-th harmonic-balance Newton solve attempt");
  ]

type window = { start : int; count : int }

type site_state = {
  name : string;
  window : window;
  occurrences : int Atomic.t;  (* serial occurrence counter for [fire] *)
}

(* The active plan. [None] keeps the hot path to a single atomic load. *)
let plan : site_state list option Atomic.t = Atomic.make None

let armed () = Atomic.get plan <> None
let clear () = Atomic.set plan None

exception Bad_spec of string

let parse_spec spec =
  (* site | site@START | site@STARTxCOUNT *)
  let name, window =
    match String.index_opt spec '@' with
    | None -> (spec, { start = 0; count = max_int })
    | Some i ->
      let name = String.sub spec 0 i in
      let rest = String.sub spec (i + 1) (String.length spec - i - 1) in
      let start_s, count_s =
        match String.index_opt rest 'x' with
        | None -> (rest, None)
        | Some j ->
          ( String.sub rest 0 j,
            Some (String.sub rest (j + 1) (String.length rest - j - 1)) )
      in
      let parse_int what s =
        match int_of_string_opt s with
        | Some n when n >= 0 -> n
        | _ ->
          (* dsa: allow raise-escape — Bad_spec is internal: [parse] converts it to [Error] before it crosses the interface *)
          raise (Bad_spec (Printf.sprintf "invalid %s %S in fault %S" what s spec))
      in
      let start = parse_int "start" start_s in
      let count =
        match count_s with
        | None -> 1
        | Some s ->
          let n = parse_int "count" s in
          if n = 0 then
            (* dsa: allow raise-escape — Bad_spec is internal: [parse] converts it to [Error] before it crosses the interface *)
            raise (Bad_spec (Printf.sprintf "zero count in fault %S" spec));
          n
      in
      (name, { start; count })
  in
  if not (List.mem_assoc name site_names) then
    (* dsa: allow raise-escape — Bad_spec is internal: [parse] converts it to [Error] before it crosses the interface *)
    raise
      (Bad_spec
         (Printf.sprintf "unknown fault site %S (known: %s)" name
            (String.concat ", " (List.map fst site_names))));
  (name, window)

let parse text =
  let specs =
    String.split_on_char ',' text
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  if specs = [] then Error "empty fault plan"
  else
    match List.map parse_spec specs with
    | sites -> Ok sites
    | exception Bad_spec msg -> Error msg

let set_windows sites =
  match sites with
  | [] -> clear ()
  | _ ->
    let states =
      List.map
        (fun (name, window) -> { name; window; occurrences = Atomic.make 0 })
        sites
    in
    Atomic.set plan (Some states)

let configure text =
  match parse text with
  | Error _ as e -> e
  | Ok sites ->
    set_windows sites;
    Ok ()

let configure_from_env () =
  match Sys.getenv_opt "OSHIL_FAULTS" with
  | None | Some "" -> ()
  | Some text -> (
    match configure text with
    | Ok () -> ()
    | Error msg ->
      Oshil_error.raise_ Numerics ~phase:"fault-plan" Parse_failure
        ("OSHIL_FAULTS: " ^ msg)
        ~remedy:"use site[@START[xCOUNT]], comma-separated")

let in_window w k = k >= w.start && k - w.start < w.count

let hit name =
  Obs.Metrics.incr "resilience.faults.injected";
  Obs.Metrics.incr ("resilience.faults." ^ name)

let fire name =
  match Atomic.get plan with
  | None -> false
  | Some states -> (
    match List.find_opt (fun s -> s.name = name) states with
    | None -> false
    | Some s ->
      let k = Atomic.fetch_and_add s.occurrences 1 in
      let f = in_window s.window k in
      if f then hit name;
      f)

let fire_at name ~k =
  match Atomic.get plan with
  | None -> false
  | Some states -> (
    match List.find_opt (fun s -> s.name = name) states with
    | None -> false
    | Some s ->
      let f = in_window s.window k in
      if f then hit name;
      f)

let error ~site subsystem ~phase =
  Oshil_error.make subsystem ~phase Fault_injected
    ("injected fault at site " ^ site)
    ~context:[ ("site", site) ]
    ~remedy:"remove the fault plan (OSHIL_FAULTS / --inject-fault)"
