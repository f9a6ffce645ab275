(** Read JSONL traces ({!Sink.jsonl} output) back into a
    {!Registry.snapshot} — the engine behind [oshil stats]. Each line
    is parsed by the strict [Json.parse]; a line that is not RFC-8259
    JSON is a {!Parse_error}.

    Merging semantics when loading several files (or several flushes
    appended to one file): counters sum, histograms with identical
    buckets sum elementwise, gauges take the maximum value, spans and
    introspection events concatenate and re-sort under a total order
    (timestamp, domain id, then every remaining field) — so the merged
    snapshot is independent of the order the files were passed in.
    Timestamps from different processes share no clock origin, so
    cross-file span orderings are only meaningful per file. *)

exception Parse_error of string
(** Raised with a [file:line: reason] message on malformed input. *)

val load_many : string list -> Registry.snapshot
(** Load and merge JSONL trace files. Raises {!Parse_error} on
    malformed lines and [Sys_error] if a file cannot be read. *)
