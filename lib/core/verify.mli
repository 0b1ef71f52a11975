(** Inter-pass verifier.

    Independent re-checks of the invariants each pipeline stage claims,
    run between passes (and from [occ --verify]):

    - [V001] every optimized layout's [U] is unimodular;
    - [V002] the Data-to-Core solution still solves its weighted system
      ([Bᵀ·gᵥ = 0] recheck, and the satisfied weight matches);
    - [V003] every [Perm] home table is a permutation, and all layouts
      agree on it (a single [__home] array is emitted);
    - [V004] sampled original indices stay inside the transformed
      allocation and map injectively;
    - [V005] the cluster map is a thread ↔ node bijection;
    - [V006] the transformed program is semantically equivalent to the
      original on sampled iterations: every statement-level reference
      evaluates to the element [Layout.offset_of_index] predicts;
    - [V007] the emitted C program's access sequence — the transformed
      program traced under row-major addressing over the padded
      declarations, [__home] resolved through the permutation table —
      matches, access by access, the original program traced under the
      chosen layouts' [Layout.addr_map] ({!check_codegen}, run when
      codegen is enabled).

    Violations come back as located diagnostics (span of the offending
    declaration or reference), never exceptions. *)

val run :
  cfg:Customize.config ->
  solved:Transform.solved list ->
  report:Transform.report ->
  original:Lang.Ast.program ->
  transformed:Lang.Ast.program ->
  Lang.Diag.t list

val check_codegen :
  report:Transform.report ->
  original:Lang.Ast.program ->
  transformed:Lang.Ast.program ->
  Lang.Diag.t list
(** The V007 replay alone.  Traces both programs with a small thread
    count (the chunk arithmetic is exercised; trace length is
    thread-independent) through {!Lang.Interp.trace_capped}, the
    transformed side with its [__home] reads excluded, and compares
    per-nest per-thread streams — access counts in full, elements up to
    65536 per thread per nest, the only prefix either side stores or
    addresses.  Both sides address through {!Lang.Interp.Separable}
    maps, so past the cap an affine reference only counts; the emitted
    side's row-major map takes only references of the declaration's
    rank, as {!Lang.Parser.check_result} guarantees.  The first
    violation, in nest, then thread, then length-before-elements order,
    is reported at the offending nest's span.  A program that fails to
    trace with a located diagnostic (a run-time zero divisor, [I002])
    reports that diagnostic itself. *)
