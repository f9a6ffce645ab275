(** Line-protocol client for the [oshil serve] daemon.

    Connection failures and mid-request disconnects raise the typed
    {!Resilience.Oshil_error.Error} (subsystem [Serve]); nothing else
    escapes. *)

type conn

val connect : Addr.t -> conn
val close : conn -> unit

val request : conn -> string -> string
(** [request conn line] sends one request line and blocks for the one
    response line. The payload must not contain newlines (the protocol
    is newline-framed); {!Json.to_string} output never does. *)

val call : Addr.t -> string -> string
(** One-shot [with_conn] + {!request}. *)
