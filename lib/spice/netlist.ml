type error = { line : int; message : string }

(* ------------------------------------------------------------------ *)
(* Lexical helpers *)

let strip_comment line =
  let cut_at c s = match String.index_opt s c with Some i -> String.sub s 0 i | None -> s in
  line |> cut_at ';' |> String.trim

let is_comment_line line =
  String.length line > 0 && (line.[0] = '*' || line.[0] = '#')

let suffixes =
  (* longest first so "meg" wins over "m" *)
  [ ("meg", 1e6); ("t", 1e12); ("g", 1e9); ("k", 1e3); ("m", 1e-3);
    ("u", 1e-6); ("n", 1e-9); ("p", 1e-12); ("f", 1e-15) ]

let parse_value s =
  let s = String.lowercase_ascii (String.trim s) in
  if s = "" then Error "empty value"
  else begin
    let num_part, mult =
      let rec try_suffix = function
        | [] -> (s, 1.0)
        | (suf, m) :: rest ->
          let ls = String.length suf and ln = String.length s in
          if ln > ls && String.sub s (ln - ls) ls = suf then
            (String.sub s 0 (ln - ls), m)
          else try_suffix rest
      in
      try_suffix suffixes
    in
    match float_of_string_opt num_part with
    | Some v -> Ok (v *. mult)
    | None -> Error (Printf.sprintf "cannot parse number %S" s)
  end

(* split a card into tokens, keeping (...) argument groups attached to
   their keyword: "SIN(0 1 1meg)" -> one token *)
let tokenize line =
  let n = String.length line in
  let tokens = ref [] and buf = Buffer.create 16 and depth = ref 0 in
  let flush () =
    if Buffer.length buf > 0 then begin
      tokens := Buffer.contents buf :: !tokens;
      Buffer.clear buf
    end
  in
  for i = 0 to n - 1 do
    let c = line.[i] in
    match c with
    | '(' ->
      incr depth;
      Buffer.add_char buf c
    | ')' ->
      decr depth;
      Buffer.add_char buf c
    | ' ' | '\t' when !depth = 0 -> flush ()
    | c -> Buffer.add_char buf c
  done;
  flush ();
  List.rev !tokens

let key_values tokens =
  (* split ["IC=0.5"; "IS=1e-12"] style trailing parameters *)
  List.filter_map
    (fun tok ->
      match String.index_opt tok '=' with
      | Some i ->
        Some
          ( String.uppercase_ascii (String.sub tok 0 i),
            String.sub tok (i + 1) (String.length tok - i - 1) )
      | None -> None)
    tokens

let positional tokens = List.filter (fun t -> not (String.contains t '=')) tokens

let ( let* ) = Result.bind

let lookup_value kvs key =
  match List.assoc_opt key kvs with
  | None -> Ok None
  | Some s ->
    let* v = parse_value s in
    Ok (Some v)

(* parse "SIN(a b c ...)" style source descriptions *)
let parse_source tokens =
  match tokens with
  | [ one ] when String.length one >= 4 -> begin
    let upper = String.uppercase_ascii one in
    let args_of prefix =
      let body =
        String.sub one (String.length prefix + 1)
          (String.length one - String.length prefix - 2)
      in
      let parts =
        String.split_on_char ' ' (String.map (fun c -> if c = ',' then ' ' else c) body)
        |> List.filter (fun s -> s <> "")
      in
      let rec all = function
        | [] -> Ok []
        | x :: rest ->
          let* v = parse_value x in
          let* vs = all rest in
          Ok (v :: vs)
      in
      all parts
    in
    if String.length upper > 4 && String.sub upper 0 4 = "SIN(" then begin
      let* args = args_of "SIN" in
      match args with
      | [ offset; ampl; freq ] ->
        Ok (Wave.Sine { offset; ampl; freq; phase = 0.0; delay = 0.0 })
      | [ offset; ampl; freq; delay ] ->
        Ok (Wave.Sine { offset; ampl; freq; phase = 0.0; delay })
      | [ offset; ampl; freq; delay; phase_deg ] ->
        Ok
          (Wave.Sine
             { offset; ampl; freq; delay;
               phase = phase_deg *. Float.pi /. 180.0 })
      | _ -> Error "SIN needs 3-5 arguments"
    end
    else if String.length upper > 6 && String.sub upper 0 6 = "PULSE(" then begin
      let* args = args_of "PULSE" in
      match args with
      | [ v1; v2; delay; rise; fall; width ] ->
        Ok (Wave.Pulse { v1; v2; delay; rise; fall; width; period = 0.0 })
      | [ v1; v2; delay; rise; fall; width; period ] ->
        Ok (Wave.Pulse { v1; v2; delay; rise; fall; width; period })
      | _ -> Error "PULSE needs 6-7 arguments"
    end
    else if String.length upper > 4 && String.sub upper 0 4 = "PWL(" then begin
      let* args = args_of "PWL" in
      let rec pairs = function
        | [] -> Ok []
        | t :: v :: rest ->
          let* tl = pairs rest in
          Ok ((t, v) :: tl)
        | [ _ ] -> Error "PWL needs an even number of arguments"
      in
      let* pts = pairs args in
      Ok (Wave.Pwl pts)
    end
    else begin
      let* v = parse_value one in
      Ok (Wave.Dc v)
    end
  end
  | [ dc; v ] when String.uppercase_ascii dc = "DC" ->
    let* value = parse_value v in
    Ok (Wave.Dc value)
  | [ v ] ->
    let* value = parse_value v in
    Ok (Wave.Dc value)
  | _ -> Error "cannot parse source value"

let parse_device tokens =
  match tokens with
  | [] -> Error "empty card"
  | name :: rest -> begin
    let kind = String.uppercase_ascii name in
    let kvs = key_values rest in
    let pos = positional rest in
    let starts_with p =
      String.length kind >= String.length p && String.sub kind 0 (String.length p) = p
    in
    if starts_with "TD" then begin
      match pos with
      | [ np; nn ] ->
        let d = Device.paper_tunnel in
        let* is = lookup_value kvs "IS" in
        let* r0 = lookup_value kvs "R0" in
        let* v0 = lookup_value kvs "V0" in
        let* m = lookup_value kvs "M" in
        let* eta = lookup_value kvs "ETA" in
        let p =
          {
            d with
            is = Option.value is ~default:d.is;
            r0 = Option.value r0 ~default:d.r0;
            v0 = Option.value v0 ~default:d.v0;
            m = Option.value m ~default:d.m;
            eta = Option.value eta ~default:d.eta;
          }
        in
        Ok (Device.Tunnel_diode { name; np; nn; p })
      | _ -> Error "tunnel diode needs 2 nodes"
    end
    else begin
      match kind.[0] with
      | 'R' -> begin
        match pos with
        | [ n1; n2; v ] ->
          let* r = parse_value v in
          Ok (Device.Resistor { name; n1; n2; r })
        | _ -> Error "resistor needs 2 nodes and a value"
      end
      | 'C' -> begin
        match pos with
        | [ n1; n2; v ] ->
          let* c = parse_value v in
          let* ic = lookup_value kvs "IC" in
          Ok (Device.Capacitor { name; n1; n2; c; ic })
        | _ -> Error "capacitor needs 2 nodes and a value"
      end
      | 'L' -> begin
        match pos with
        | [ n1; n2; v ] ->
          let* l = parse_value v in
          let* ic = lookup_value kvs "IC" in
          Ok (Device.Inductor { name; n1; n2; l; ic })
        | _ -> Error "inductor needs 2 nodes and a value"
      end
      | 'V' -> begin
        match pos with
        | np :: nn :: src when src <> [] ->
          let* wave = parse_source src in
          Ok (Device.Vsource { name; np; nn; wave })
        | _ -> Error "voltage source needs 2 nodes and a value"
      end
      | 'I' -> begin
        match pos with
        | np :: nn :: src when src <> [] ->
          let* wave = parse_source src in
          Ok (Device.Isource { name; np; nn; wave })
        | _ -> Error "current source needs 2 nodes and a value"
      end
      | 'D' -> begin
        match pos with
        | [ np; nn ] ->
          let d = Device.default_diode in
          let* is = lookup_value kvs "IS" in
          let* n = lookup_value kvs "N" in
          let p =
            { d with is = Option.value is ~default:d.is; n = Option.value n ~default:d.n }
          in
          Ok (Device.Diode { name; np; nn; p })
        | _ -> Error "diode needs 2 nodes"
      end
      | 'M' -> begin
        match pos with
        | [ nd; ng; ns ] ->
          let d = Device.default_nmos in
          let* kp = lookup_value kvs "KP" in
          let* vth = lookup_value kvs "VTH" in
          let* lambda = lookup_value kvs "LAMBDA" in
          let p =
            {
              Device.kp = Option.value kp ~default:d.kp;
              vth = Option.value vth ~default:d.vth;
              lambda = Option.value lambda ~default:d.lambda;
            }
          in
          Ok (Device.Mosfet { name; nd; ng; ns; p })
        | _ -> Error "mosfet needs 3 nodes (drain gate source)"
      end
      | 'Q' -> begin
        match pos with
        | [ nc; nb; ne ] ->
          let d = Device.default_npn in
          let* is = lookup_value kvs "IS" in
          let* bf = lookup_value kvs "BF" in
          let* br = lookup_value kvs "BR" in
          let p =
            {
              d with
              is = Option.value is ~default:d.is;
              beta_f = Option.value bf ~default:d.beta_f;
              beta_r = Option.value br ~default:d.beta_r;
            }
          in
          Ok (Device.Bjt { name; nc; nb; ne; p })
        | _ -> Error "bjt needs 3 nodes (collector base emitter)"
      end
      | _ -> Error (Printf.sprintf "unknown device kind %S" name)
    end
  end

let parse_string text =
  let lines = String.split_on_char '\n' text in
  let rec go lineno acc = function
    | [] -> Ok (Circuit.of_devices (List.rev acc))
    | raw :: rest -> begin
      let line = strip_comment raw in
      if line = "" || is_comment_line line then go (lineno + 1) acc rest
      else begin
        let lower = String.lowercase_ascii line in
        if lower = ".end" || lower = ".ends" then go (lineno + 1) acc rest
        else begin
          match parse_device (tokenize line) with
          | Ok d -> begin
            match
              List.exists (fun d' -> Device.name d' = Device.name d) acc
            with
            | true -> Error { line = lineno; message = "duplicate device name" }
            | false -> go (lineno + 1) (d :: acc) rest
          end
          | Error message -> Error { line = lineno; message }
        end
      end
    end
  in
  go 1 [] lines

let wave_to_string = function
  | Wave.Dc v -> Printf.sprintf "DC %g" v
  | Wave.Sine { offset; ampl; freq; phase; delay } ->
    Printf.sprintf "SIN(%g %g %g %g %g)" offset ampl freq delay
      (phase *. 180.0 /. Float.pi)
  | Wave.Pulse { v1; v2; delay; rise; fall; width; period } ->
    Printf.sprintf "PULSE(%g %g %g %g %g %g %g)" v1 v2 delay rise fall width period
  | Wave.Pwl pts ->
    Printf.sprintf "PWL(%s)"
      (String.concat " " (List.map (fun (t, v) -> Printf.sprintf "%g %g" t v) pts))

let to_string circuit =
  let buf = Buffer.create 256 in
  List.iter
    (fun (d : Device.t) ->
      let line =
        match d with
        | Resistor { name; n1; n2; r } -> Printf.sprintf "%s %s %s %g" name n1 n2 r
        | Capacitor { name; n1; n2; c; ic } ->
          Printf.sprintf "%s %s %s %g%s" name n1 n2 c
            (match ic with Some v -> Printf.sprintf " IC=%g" v | None -> "")
        | Inductor { name; n1; n2; l; ic } ->
          Printf.sprintf "%s %s %s %g%s" name n1 n2 l
            (match ic with Some v -> Printf.sprintf " IC=%g" v | None -> "")
        | Vsource { name; np; nn; wave } | Isource { name; np; nn; wave } ->
          Printf.sprintf "%s %s %s %s" name np nn (wave_to_string wave)
        | Diode { name; np; nn; p } ->
          Printf.sprintf "%s %s %s IS=%g N=%g" name np nn p.is p.n
        | Bjt { name; nc; nb; ne; p } ->
          Printf.sprintf "%s %s %s %s IS=%g BF=%g BR=%g" name nc nb ne p.is
            p.beta_f p.beta_r
        | Tunnel_diode { name; np; nn; p } ->
          Printf.sprintf "%s %s %s IS=%g R0=%g V0=%g M=%g ETA=%g" name np nn
            p.is p.r0 p.v0 p.m p.eta
        | Mosfet { name; nd; ng; ns; p } ->
          Printf.sprintf "%s %s %s %s KP=%g VTH=%g LAMBDA=%g" name nd ng ns
            p.kp p.vth p.lambda
        | Nonlinear_cs { name; np; nn; _ } ->
          Printf.sprintf "* %s %s %s (behavioural source: no textual form)" name np nn
      in
      Buffer.add_string buf line;
      Buffer.add_char buf '\n')
    (Circuit.devices circuit);
  Buffer.add_string buf ".end\n";
  Buffer.contents buf
