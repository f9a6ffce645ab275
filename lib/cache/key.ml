type field = string

let sanitize s =
  String.map
    (fun c -> match c with ';' | '\n' | '\r' | '|' -> '_' | c -> c)
    s

let str name v = Printf.sprintf "%s=%s" (sanitize name) (sanitize v)
let int name v = Printf.sprintf "%s=%d" (sanitize name) v
(* %h is bit-exact for finite floats; nan/infinity render as words. The
   explicit check keeps -0.0 distinct from 0.0 (%h already does, but be
   explicit about the contract: equal bits <-> equal field). *)
let float name v = Printf.sprintf "%s=%h" (sanitize name) v


let digest_of_string s = Digest.to_hex (Digest.string s)

type t = { kind : string; preimage : string }

let v ~kind ~version fields =
  let kind = sanitize kind in
  {
    kind;
    preimage =
      Printf.sprintf "%s/v%d|%s" kind version (String.concat ";" fields);
  }

let kind t = t.kind
let preimage t = t.preimage
let digest t = Digest.to_hex (Digest.string t.preimage)
