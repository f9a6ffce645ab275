(** A circuit is an immutable collection of named devices. Ground is node
    ["0"] (alias ["gnd"], case-insensitive). *)

type t

val of_devices : Device.t list -> t
(** Raises [Invalid_argument] on a duplicate device name. *)

val devices : t -> Device.t list
(** In insertion order. *)

val node_names : t -> string list
(** All non-ground node names, sorted, after ground aliasing. *)

val is_ground : string -> bool
