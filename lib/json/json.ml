type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* --- printing ------------------------------------------------------- *)

let number_to_string v =
  if not (Float.is_finite v) then "null"
  else if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let escape_of = function
  | '"' -> Some "\\\""
  | '\\' -> Some "\\\\"
  | '\n' -> Some "\\n"
  | '\r' -> Some "\\r"
  | '\t' -> Some "\\t"
  | '\b' -> Some "\\b"
  | '\012' -> Some "\\f"
  | c when Char.code c < 0x20 -> Some (Printf.sprintf "\\u%04x" (Char.code c))
  | _ -> None

(* runs of plain bytes go in as one substring *)
let add_escaped b s =
  let start = ref 0 in
  String.iteri
    (fun i c ->
      match escape_of c with
      | None -> ()
      | Some e ->
        Buffer.add_substring b s !start (i - !start);
        Buffer.add_string b e;
        start := i + 1)
    s;
  Buffer.add_substring b s !start (String.length s - !start)

let escape s =
  let b = Buffer.create (String.length s + 8) in
  add_escaped b s;
  Buffer.contents b

(* A response is an object around a report string of up to a few
   hundred KB: sizing the buffer from the top-level strings, with room
   for escapes, spares the doubling copies of a growing buffer. *)
let size_hint v =
  let str_len = function
    | Str s -> String.length s + (String.length s / 8)
    | _ -> 0
  in
  256
  +
  match v with
  | Obj fields -> List.fold_left (fun acc (_, v) -> acc + str_len v) 0 fields
  | v -> str_len v

let to_string v =
  let b = Buffer.create (size_hint v) in
  let rec go = function
    | Null -> Buffer.add_string b "null"
    | Bool true -> Buffer.add_string b "true"
    | Bool false -> Buffer.add_string b "false"
    | Num v -> Buffer.add_string b (number_to_string v)
    | Str s ->
      Buffer.add_char b '"';
      add_escaped b s;
      Buffer.add_char b '"'
    | List vs ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char b ',';
          go v)
        vs;
      Buffer.add_char b ']'
    | Obj fields ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_char b '"';
          add_escaped b k;
          Buffer.add_string b "\":";
          go v)
        fields;
      Buffer.add_char b '}'
  in
  go v;
  Buffer.contents b

(* --- parsing -------------------------------------------------------- *)

(* Recursive descent with an explicit depth cap: a hostile request of
   100k nested brackets must produce [Error], not a stack overflow. *)
let max_depth = 256

exception Bad of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  (* dsa: allow raise-escape — Bad is internal control flow: [parse] catches it below and returns [Error] *)
  let fail msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some x when x = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal lit v =
    let l = String.length lit in
    if !pos + l <= n && String.equal (String.sub s !pos l) lit then begin
      pos := !pos + l;
      v
    end
    else fail (Printf.sprintf "bad literal (expected %s)" lit)
  in
  let parse_hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let h = String.sub s !pos 4 in
    pos := !pos + 4;
    match int_of_string_opt ("0x" ^ h) with
    | Some v -> v
    | None -> fail "bad \\u escape"
  in
  let add_utf8 b cp =
    (* encode a code point as UTF-8; lone surrogates pass through as the
       replacement character *)
    let cp = if cp >= 0xD800 && cp <= 0xDFFF then 0xFFFD else cp in
    if cp < 0x80 then Buffer.add_char b (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char b (Char.chr (0xC0 lor (cp lsr 6)));
      Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else if cp < 0x10000 then begin
      Buffer.add_char b (Char.chr (0xE0 lor (cp lsr 12)));
      Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else begin
      Buffer.add_char b (Char.chr (0xF0 lor (cp lsr 18)));
      Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
    end
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec loop () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      advance ();
      match c with
      | '"' -> Buffer.contents b
      | '\\' -> (
        if !pos >= n then fail "unterminated escape";
        let e = s.[!pos] in
        advance ();
        match e with
        | '"' -> Buffer.add_char b '"'; loop ()
        | '\\' -> Buffer.add_char b '\\'; loop ()
        | '/' -> Buffer.add_char b '/'; loop ()
        | 'n' -> Buffer.add_char b '\n'; loop ()
        | 't' -> Buffer.add_char b '\t'; loop ()
        | 'r' -> Buffer.add_char b '\r'; loop ()
        | 'b' -> Buffer.add_char b '\b'; loop ()
        | 'f' -> Buffer.add_char b '\012'; loop ()
        | 'u' ->
          let cp = parse_hex4 () in
          let cp =
            (* surrogate pair *)
            if cp >= 0xD800 && cp <= 0xDBFF && !pos + 6 <= n
               && s.[!pos] = '\\' && s.[!pos + 1] = 'u'
            then begin
              pos := !pos + 2;
              let lo = parse_hex4 () in
              if lo >= 0xDC00 && lo <= 0xDFFF then
                0x10000 + ((cp - 0xD800) * 0x400) + (lo - 0xDC00)
              else 0xFFFD
            end
            else cp
          in
          add_utf8 b cp;
          loop ()
        | _ -> fail "bad escape")
      | c when Char.code c < 0x20 -> fail "raw control character in string"
      | c ->
        Buffer.add_char b c;
        loop ()
    in
    loop ()
  in
  let parse_number () =
    let start = !pos in
    if peek () = Some '-' then advance ();
    let digits () =
      let d0 = !pos in
      while !pos < n && s.[!pos] >= '0' && s.[!pos] <= '9' do
        advance ()
      done;
      if !pos = d0 then fail "bad number"
    in
    digits ();
    if peek () = Some '.' then begin
      advance ();
      digits ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
      advance ();
      (match peek () with Some ('+' | '-') -> advance () | _ -> ());
      digits ()
    | _ -> ());
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some v -> Num v
    | None -> fail "bad number"
  in
  let rec parse_value depth =
    if depth > max_depth then fail "nesting too deep";
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let acc = ref [] in
        let rec items () =
          acc := parse_value (depth + 1) :: !acc;
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            items ()
          | Some ']' -> advance ()
          | _ -> fail "expected ',' or ']'"
        in
        items ();
        List (List.rev !acc)
      end
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let acc = ref [] in
        let rec fields () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value (depth + 1) in
          acc := (k, v) :: !acc;
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            fields ()
          | Some '}' -> advance ()
          | _ -> fail "expected ',' or '}'"
        in
        fields ();
        Obj (List.rev !acc)
      end
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected character %C" c)
  in
  match
    let v = parse_value 0 in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Bad msg -> Error msg

(* --- accessors ------------------------------------------------------ *)

let member k = function
  | Obj fields -> List.assoc_opt k fields
  | _ -> None

let get_string = function Str s -> Some s | _ -> None
let get_float = function Num v -> Some v | _ -> None

let get_int = function
  | Num v when Float.is_integer v && Float.abs v <= 1e9 ->
    Some (int_of_float v)
  | _ -> None

let get_bool = function Bool b -> Some b | _ -> None
let get_list = function List vs -> Some vs | _ -> None
