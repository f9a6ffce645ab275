type t =
  | Unix_sock of string
  | Tcp of string * int

let drop_prefix ~prefix s =
  let lp = String.length prefix in
  if String.length s >= lp && String.equal (String.sub s 0 lp) prefix then
    Some (String.sub s lp (String.length s - lp))
  else None

let host_port s =
  match String.rindex_opt s ':' with
  | None -> None
  | Some i -> (
    let host = String.sub s 0 i in
    let port = String.sub s (i + 1) (String.length s - i - 1) in
    match int_of_string_opt port with
    | Some p when p > 0 && p < 65536 && host <> "" -> Some (host, p)
    | _ -> None)

let of_string s =
  let s = String.trim s in
  if s = "" then Error "empty address"
  else
    match drop_prefix ~prefix:"unix:" s with
    | Some path -> Ok (Unix_sock path)
    | None -> (
      match drop_prefix ~prefix:"tcp:" s with
      | Some rest -> (
        match host_port rest with
        | Some (h, p) -> Ok (Tcp (h, p))
        | None -> Error (Printf.sprintf "bad tcp address %S (want HOST:PORT)" s))
      | None -> (
        (* bare HOST:PORT if the suffix parses as a port, else a path *)
        match host_port s with
        | Some (h, p) when not (String.contains s '/') -> Ok (Tcp (h, p))
        | _ -> Ok (Unix_sock s)))

let sockaddr = function
  | Unix_sock path -> Unix.ADDR_UNIX path
  | Tcp (host, port) ->
    let ip =
      try (Unix.gethostbyname host).h_addr_list.(0)
      with Not_found | Invalid_argument _ -> Unix.inet_addr_loopback
    in
    Unix.ADDR_INET (ip, port)

let domain = function
  | Unix_sock _ -> Unix.PF_UNIX
  | Tcp _ -> Unix.PF_INET
