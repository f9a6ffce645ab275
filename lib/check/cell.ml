type t = Tanh | Diffpair | Tunnel

let names =
  [
    (Tanh, [ "tanh" ]);
    (Diffpair, [ "diffpair"; "diff-pair"; "dp" ]);
    (Tunnel, [ "tunnel"; "td" ]);
  ]

let of_name s =
  List.find_map (fun (c, ns) -> if List.mem s ns then Some c else None) names

let name c = List.hd (List.assoc c names)
