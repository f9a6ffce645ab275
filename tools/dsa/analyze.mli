(** Typed-AST domain-safety & determinism analyzer.

    Reads the [.cmt] artifacts dune already produces for every module
    under [lib/] and walks their Typedtree, proving (to a static
    approximation) the contracts the runtime tests can only spot-check:
    parallel maps bit-identical to sequential runs, cache hits
    byte-identical to cold computes, no order-dependent float
    reductions, no untyped exceptions crossing library interfaces.

    Rule families (stable codes, each waivable with
    [(* dsa: allow CODE — justification *)]):

    - [domain-escape] — mutable state bound outside a closure passed to
      [Numerics.Pool.parallel_*] is written (refs, arrays, bytes,
      mutable record fields) or used as a shared container
      ([Hashtbl]/[Buffer]/[Queue]/[Stack]) inside it, without an
      [Atomic]/[Mutex] or a per-domain scope ([Kernel.with_bufs]
      buffers and [Domain.DLS] keys are recognized as safe).
    - [cache-purity] — expressions flowing into [Cache.Key.v] read
      module-level mutable state or call nondeterministic primitives
      (clocks, [Random], [Domain.self]); [Shil.Nonlinearity.make]
      called without [~key] (an uncacheable nonlinearity silently
      bypasses every keyed kernel).
    - [float-order] — [Hashtbl.fold] whose accumulator carries a
      [float] (iteration order is unspecified, float addition is not
      associative), [Hashtbl.iter] mutating float state, and
      [Seq.fold_left] over [Hashtbl.to_seq*] into a float.
    - [raise-escape] — [raise]/[invalid_arg]/[failwith] of an exception
      that is not [Resilience.Oshil_error.Error], not declared or
      mentioned in the module's own [.mli], and not caught by a
      lexically enclosing handler.
    - [unused-export] — a [val] in an analyzed [.mli] (nested
      signatures included) that no other compilation unit references.
      Uses come from the analyzed roots and the [uses] directories;
      references from [test/] never count, so a value only a test calls
      is a finding. Paths are resolved through dune's wrapper aliases
      ([Numerics.Roots] is [Numerics__Roots]) and facade re-exports
      ([Obs.Report]); a module included, packed or passed to a functor
      uses all its values. Waive next to the [val] in the [.mli].

    Meta codes: [bad-waiver] (waiver without justification — does not
    suppress), [unused-waiver] (justified waiver matching no finding),
    [cmt-read] (unreadable artifact). Meta findings are warnings;
    rule findings are errors.

    Known approximations (documented in DESIGN §10): the analysis is
    intraprocedural (state reached through a function call in another
    module is not followed — that module is analyzed at its own
    definition site), a [Mutex.lock] anywhere inside a pool closure is
    trusted to guard its shared accesses, and type inspection is
    syntactic on constructor heads (no environment-based expansion of
    user aliases for [Hashtbl.t] & co). *)

val rule_codes : string list
(** The five stable rule-family codes. *)

val analyze_file : ?src_root:string -> string -> Check.Diagnostic.t list
(** Analyze one [.cmt] file: raw rule findings filtered through the
    waivers of its source file, plus [bad-waiver]/[unused-waiver]
    warnings. [unused-export] needs the whole program and is reported
    by {!run} only. [src_root] locates sources when the analyzer does not run
    from the directory [cmt_sourcefile] paths are relative to (the
    workspace/build root); resolution tries [src_root/path], [path] and
    [_build/default/path]. *)

type report = {
  diags : (string * Check.Diagnostic.t list) list;
      (** per source file, findings sorted by line; only files with
          findings appear; sorted by file name *)
  modules : int;  (** modules analyzed *)
  waived : int;  (** findings suppressed by justified waivers *)
}

val run : ?src_root:string -> ?uses:string list -> string list -> report
(** [run ~uses roots] walks each root (directory or literal [.cmt]
    path) for artifacts and analyzes them, then reports the [val]s of
    the roots' interfaces that no unit of [roots] or [uses] references
    from outside its own module. The [uses] directories only supply
    references; nothing in them is checked. When the roots contain no
    [.cmt], roots and [uses] are retried under [_build/default/] so
    the tool works both from a dune action (cwd = build context) and
    from a source checkout. *)
