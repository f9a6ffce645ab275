(** Server addresses: a Unix-domain socket path or a TCP endpoint. *)

type t =
  | Unix_sock of string  (** filesystem path *)
  | Tcp of string * int  (** host, port *)

val of_string : string -> (t, string) result
(** Accepts [unix:PATH], [tcp:HOST:PORT], a bare [HOST:PORT] whose
    suffix parses as a port, or a bare filesystem path (anything
    else). *)

val sockaddr : t -> Unix.sockaddr
val domain : t -> Unix.socket_domain
