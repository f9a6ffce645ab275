(** The builtin oscillator cells and the names they answer to: the one
    alias list that the CLI's [--osc], a request's ["osc"] and a
    scenario's [osc] key all resolve through. *)

type t = Tanh | Diffpair | Tunnel

val of_name : string -> t option
(** [tanh]; [diffpair], [diff-pair] or [dp]; [tunnel] or [td]. *)

val name : t -> string
(** The canonical name, the first of {!of_name}'s list. *)
