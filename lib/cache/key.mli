(** Canonical cache keys: a content address for one kernel invocation.

    A key is built from the {e full} input of an expensive computation —
    tank parameters, nonlinearity identity, grid geometry, tolerances,
    solver options — rendered into a canonical single-line preimage and
    hashed. Two invocations share a cache slot iff their preimages are
    byte-identical, so every field that can influence the result must be
    part of the key.

    Canonical encoding rules:
    - floats are rendered as hexadecimal literals ([%h]) — bit-exact, no
      rounding ambiguity, NaN/infinity safe;
    - fields are [name=value] pairs joined by [;] in the order given
      (callers list fields in a fixed order, so equal inputs produce
      equal preimages);
    - the kernel [kind] and a [version] number prefix the preimage, so
      bumping a kernel's version orphans every stale entry (stale
      formats self-invalidate — nothing ever reads them again). *)

type field

val str : string -> string -> field
(** [str name v] — [v] is sanitized: [';'], ['\n'], ['\r'] and ['|']
    become ['_'] so a hostile value cannot alias another field list. *)

val int : string -> int -> field

val float : string -> float -> field
(** Bit-exact ([%h]); distinguishes [0.0] from [-0.0] and preserves
    NaN/infinity. *)

val digest_of_string : string -> string
(** Hex digest of arbitrary bytes — for embedding large blobs (sampled
    tables, netlist text) as fixed-size fields. *)

type t

val v : kind:string -> version:int -> field list -> t
(** [v ~kind ~version fields] — [kind] names the kernel
    (e.g. ["shil.grid"]) and doubles as the on-disk shard directory. *)

val kind : t -> string

val preimage : t -> string
(** The canonical single-line rendering, e.g.
    ["shil.grid/v1|nl=neg_tanh(...);n=3;r=0x1.f4p+9;..."]. Stored in
    the header of every disk entry and compared on read, so a digest
    collision can never alias two different computations. *)

val digest : t -> string
(** Hex digest of {!preimage} — the content address used for the
    in-memory table and the on-disk file name. *)
