(** Bounded blocking FIFO: the server's job queue.

    Producers never block — {!try_push} reports a full (or closed)
    queue immediately, which is the backpressure signal the protocol
    turns into a typed [overload] rejection. Consumers block in {!pop}
    until an item arrives or the queue is closed and drained. *)

type 'a t

val create : capacity:int -> 'a t
(** Raises [Invalid_argument] ([invalid_arg]) when [capacity < 1]. *)

val capacity : 'a t -> int
val length : 'a t -> int

val try_push : 'a t -> 'a -> bool
(** [false] when the queue is full or closed; never blocks. *)

val pop : 'a t -> 'a option
(** Blocks until an item is available ([Some]) or the queue is closed
    and empty ([None]). FIFO order. *)

val close : 'a t -> unit
(** Reject further pushes; wake every blocked {!pop}. Items already
    queued still drain. Idempotent. *)
