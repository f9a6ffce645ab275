(* A tiny key = value format describing a SHIL study, so that analysis
   configurations can be linted (and later run) without writing OCaml:

     # tanh oscillator, 3rd sub-harmonic
     osc = tanh
     r = 1e3
     fc = 1e6
     q = 10
     n = 3
     vi = 0.03

   Lines are `key = value`; `#`, `;` or `*` start comments. The tank is
   given either as r/l/c or as r/fc/q (the latter pair is converted).
   Unknown keys are reported as warnings so that typos do not silently
   fall back to defaults. *)

module D = Diagnostic

type t = {
  osc : string;
  g0 : float option;
  isat : float option;
  r : float option;
  l : float option;
  c : float option;
  fc : float option;
  q : float option;
  n : int;
  vi : float;
  a_lo : float option;
  a_hi : float option;
  n_phi : int option;
  n_amp : int option;
  points : int option;
}

let default =
  {
    osc = "tanh";
    g0 = None;
    isat = None;
    r = None;
    l = None;
    c = None;
    fc = None;
    q = None;
    n = 3;
    vi = 0.03;
    a_lo = None;
    a_hi = None;
    n_phi = None;
    n_amp = None;
    points = None;
  }

let strip_comment line =
  let cut c s =
    match String.index_opt s c with Some i -> String.sub s 0 i | None -> s
  in
  line |> cut '#' |> cut ';' |> String.trim

let known_keys =
  [ "osc"; "g0"; "isat"; "r"; "l"; "c"; "fc"; "q"; "n"; "vi"; "a_lo";
    "a_hi"; "n_phi"; "n_amp"; "points" ]

let parse_string ?(name = "<scenario>") text =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let loc lineno = Printf.sprintf "%s:%d" name lineno in
  let scenario = ref default in
  let float_field lineno key v k =
    match float_of_string_opt v with
    | Some f -> scenario := k !scenario f
    | None ->
      add
        (D.error ~code:"scenario-parse" ~loc:(loc lineno)
           (Printf.sprintf "cannot parse %s value %S as a number" key v))
  in
  let int_field lineno key v k =
    match int_of_string_opt v with
    | Some i -> scenario := k !scenario i
    | None ->
      add
        (D.error ~code:"scenario-parse" ~loc:(loc lineno)
           (Printf.sprintf "cannot parse %s value %S as an integer" key v))
  in
  List.iteri
    (fun i raw ->
      let lineno = i + 1 in
      let line = strip_comment raw in
      if String.length line > 0 && line.[0] <> '*' then begin
        match String.index_opt line '=' with
        | None ->
          add
            (D.error ~code:"scenario-parse" ~loc:(loc lineno)
               (Printf.sprintf "expected `key = value`, got %S" line))
        | Some eq ->
          let key =
            String.lowercase_ascii (String.trim (String.sub line 0 eq))
          in
          let v =
            String.trim
              (String.sub line (eq + 1) (String.length line - eq - 1))
          in
          if not (List.mem key known_keys) then
            add
              (D.warning ~code:"scenario-unknown-key" ~loc:(loc lineno)
                 (Printf.sprintf
                    "unknown key %S is ignored (known keys: %s)" key
                    (String.concat ", " known_keys)))
          else begin
            match key with
            | "osc" -> scenario := { !scenario with osc = String.lowercase_ascii v }
            | "g0" -> float_field lineno key v (fun s f -> { s with g0 = Some f })
            | "isat" -> float_field lineno key v (fun s f -> { s with isat = Some f })
            | "r" -> float_field lineno key v (fun s f -> { s with r = Some f })
            | "l" -> float_field lineno key v (fun s f -> { s with l = Some f })
            | "c" -> float_field lineno key v (fun s f -> { s with c = Some f })
            | "fc" -> float_field lineno key v (fun s f -> { s with fc = Some f })
            | "q" -> float_field lineno key v (fun s f -> { s with q = Some f })
            | "n" -> int_field lineno key v (fun s i -> { s with n = i })
            | "vi" -> float_field lineno key v (fun s f -> { s with vi = f })
            | "a_lo" -> float_field lineno key v (fun s f -> { s with a_lo = Some f })
            | "a_hi" -> float_field lineno key v (fun s f -> { s with a_hi = Some f })
            | "n_phi" -> int_field lineno key v (fun s i -> { s with n_phi = Some i })
            | "n_amp" -> int_field lineno key v (fun s i -> { s with n_amp = Some i })
            | "points" -> int_field lineno key v (fun s i -> { s with points = Some i })
            | _ -> ()
          end
      end)
    (String.split_on_char '\n' text);
  (!scenario, List.rev !diags)

(* Resolve the tank to r/l/c: explicit l/c win; otherwise fc/q are
   converted (L = R/(Q wc), C = Q/(R wc)); remaining holes take the
   defaults of the `oshil` custom oscillator (r = 1 kOhm, fc = 1 MHz,
   Q = 10). Sign is NOT forced here — a negative q deliberately flows
   into a negative l/c so that Shil.check_tank reports it. *)
let resolve_tank s =
  let r = Option.value s.r ~default:1e3 in
  let fc = Option.value s.fc ~default:1e6 in
  let q = Option.value s.q ~default:10.0 in
  let wc = 2.0 *. Float.pi *. fc in
  let l = match s.l with Some l -> l | None -> r /. (q *. wc) in
  let c = match s.c with Some c -> c | None -> q /. (r *. wc) in
  (r, l, c)

let to_config s =
  let r, l, c = resolve_tank s in
  let a_range =
    match (s.a_lo, s.a_hi) with
    | Some lo, Some hi -> Some (lo, hi)
    | Some lo, None -> Some (lo, lo)  (* empty: flagged by check_grid *)
    | None, Some hi -> Some (hi, hi)
    | None, None -> None
  in
  Shil.config ?a_range ?n_phi:s.n_phi ?n_amp:s.n_amp ?points:s.points ~r ~l
    ~c ~n:s.n ~vi:s.vi ()

let check ?nl s =
  let cfg = to_config s in
  let osc_diag =
    match s.osc with
    | "custom" -> []
    | name when Option.is_some (Cell.of_name name) -> []
    | other ->
      [ D.error ~code:"scenario-osc" ~loc:"osc"
          (Printf.sprintf
             "unknown oscillator %S (expected tanh, custom, diffpair or \
              tunnel)"
             other) ]
  in
  osc_diag @ Shil.check ?nl ?v_scale:None cfg
