(** Content-addressed result store: in-memory LRU tier over an optional
    on-disk tier.

    Off by default — while disabled every entry point returns
    immediately and the instrumented kernels compute exactly as before,
    so zero-cache runs are bit-identical to a build without this
    library. Enable with {!set_enabled} (the CLI [--cache] flag) or the
    [OSHIL_CACHE] environment variable; [OSHIL_CACHE_DIR] /
    [--cache-dir] relocate the disk tier from its default
    [out/cache/].

    The bit-identity contract: values are stored as [Marshal] blobs,
    which round-trip every float bit-exactly, and keys ({!Key}) cover
    the full kernel input, so a cache hit returns precisely the value a
    cold computation would have produced. Kernels enforce the contract
    in the test suite by diffing hot and cold outputs byte-for-byte.

    Disk entries are one file per key, [<dir>/<kind>/<digest>.bin],
    written atomically (temp file + rename). Each file carries the key
    preimage in its header; a read whose header does not match the
    requested preimage — digest collision, truncated write, stale
    format — or whose payload fails to decode is treated as a miss and
    the file is quarantined: renamed to [<digest>.bin.bad] (removed if
    the rename fails) so a clean recompute can repopulate the slot, with
    the [cache.corrupt] counter bumped. A long-lived daemon therefore
    survives a torn write or disk bit-rot without manual intervention.
    Version numbers live inside the key, so bumping a kernel's version
    simply stops referencing old entries.

    Metered through [Obs.Metrics] (visible in [oshil stats] when
    tracing): [cache.hits], [cache.memory_hits], [cache.disk_hits],
    [cache.misses], [cache.evictions], [cache.disk_writes],
    [cache.decode_failures], [cache.corrupt] and the
    [cache.store_bytes] gauge.

    Thread-safe: one process-wide mutex serialises tier access, so
    kernels running inside [Numerics.Pool] workers may share the
    cache. *)

val enabled : unit -> bool
val set_enabled : bool -> unit

(* dsa: allow unused-export — test hook: the tests inspect and restore the disk tier's directory *)
val dir : unit -> string
val set_dir : string -> unit

val configure_from_env : unit -> unit
(** [OSHIL_CACHE] ([1]/[true]/[yes] — enable), [OSHIL_CACHE_DIR] (path,
    implies nothing about enablement). Unset or empty variables change
    nothing. *)

val set_memory_capacity : ?entries:int -> ?bytes:int -> unit -> unit
(** Replace the memory tier with a fresh one of the given capacity
    (defaults as {!Lru.create}). Discards resident entries. *)

(* dsa: allow unused-export — test hook: forces disk-tier round-trips in the tests *)
val clear_memory : unit -> unit
(** Drop the memory tier (the disk tier is untouched) — lets tests
    force disk-tier round-trips. *)

val to_marshal : 'a -> string
(** [Marshal]-encode (with closure marshalling disabled, so attempting
    to cache a closure-bearing value raises instead of storing garbage). *)

val of_marshal : string -> 'a option
(** [None] on any decode failure. Type safety rests on the key: a blob
    is only ever decoded at the type of the kernel that wrote it,
    because the kind/version/fields of the key pin the producing
    call site. *)

val find :
  ?memory:bool -> key:Key.t -> decode:(string -> 'a option) -> unit ->
  'a option
(** Memory tier first (when [memory], default [true]), then the disk
    tier; a disk hit is promoted into the memory tier unless [memory]
    is [false]. Returns [None] without touching any tier while the
    store is disabled. Meters hits/misses. *)

val add : ?memory:bool -> key:Key.t -> encode:('a -> string) -> 'a -> unit
(** Store into the disk tier and (when [memory], default [true]) the
    memory tier. [~memory:false] keeps large, rarely re-read values
    (grid tiles) from displacing the small request-level entries the
    memory tier exists for. A failed disk write (permissions, disk
    full) is silently dropped — caching is an optimisation, never a
    failure source. No-op while disabled. *)

val find_or_compute :
  ?cache_if:('a -> bool) -> key:Key.t -> encode:('a -> string) ->
  decode:(string -> 'a option) -> (unit -> 'a) -> 'a
(** [find_or_compute ~key ~encode ~decode f] — the memoization
    combinator: hit returns the cached value, miss computes [f ()] and
    stores it in both tiers when [cache_if] (default: always) accepts
    it. While the store is disabled this is exactly [f ()]. *)

(* dsa: allow unused-export — test hook: the tests check what the memory tier holds *)
val stats_bytes : unit -> int
(** Current memory-tier payload bytes (also exported as the
    [cache.store_bytes] gauge on every mutation). *)
