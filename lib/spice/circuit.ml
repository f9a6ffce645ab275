type t = { devices : Device.t list (* reversed *) }

let empty = { devices = [] }

let is_ground n =
  match String.lowercase_ascii n with "0" | "gnd" -> true | _ -> false

let add t d =
  let n = Device.name d in
  if List.exists (fun d' -> Device.name d' = n) t.devices then
    invalid_arg (Printf.sprintf "Circuit.add: duplicate device %S" n);
  { devices = d :: t.devices }

let of_devices ds = List.fold_left add empty ds
let devices t = List.rev t.devices
let node_names t =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun d ->
      List.iter
        (fun n -> if not (is_ground n) then Hashtbl.replace tbl n ())
        (Device.nodes d))
    t.devices;
  List.sort String.compare (Hashtbl.fold (fun k () acc -> k :: acc) tbl [])
