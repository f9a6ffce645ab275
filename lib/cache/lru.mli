(** Bounded in-memory LRU map from key strings to value blobs.

    The hot tier of {!Store}: most-recently-used entries stay resident,
    and inserting past either capacity (entry count or total payload
    bytes) evicts from the cold end. Not thread-safe on its own —
    {!Store} serialises access behind one mutex. *)

type t

val create : ?max_entries:int -> ?max_bytes:int -> unit -> t
(** Defaults: 512 entries, 64 MiB of payload. [max_entries >= 1];
    [max_bytes] counts key + data bytes plus a small per-entry
    overhead. Raises [Invalid_argument] if [max_entries < 1]. *)

val find : t -> string -> string option
(** Refreshes the entry's recency on hit. *)

val add : t -> string -> string -> unit
(** Insert or replace, making the entry most-recent, then evict
    least-recently-used entries until both capacities hold. A single
    blob larger than [max_bytes] is accepted on its own (the cache then
    holds just that entry) so oversized values degrade to a 1-slot
    cache rather than thrashing. *)

(* dsa: allow unused-export — test hook: the eviction tests check which keys stay resident *)
val mem : t -> string -> bool
(** Does not refresh recency. *)

(* dsa: allow unused-export — test hook: the eviction tests check the entry count *)
val length : t -> int
val bytes : t -> int

val evictions : t -> int
(** Cumulative evictions since [create]/[clear]. *)

val clear : t -> unit
