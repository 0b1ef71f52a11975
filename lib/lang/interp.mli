(** Trace-generating interpreter.

    Runs a mini-language program with OpenMP-style static scheduling:
    the iterations of each [parfor] are split into contiguous chunks, one
    per thread, threads bound to cores in order (paper, footnote 5).  The
    interpreter does not compute array values — it enumerates the memory
    accesses each thread performs and encodes each as a virtual address,
    using a caller-supplied address map (which is where the layout
    transformation plugs in).

    A top-level nest is a {e phase}; phases are separated by barriers
    (OpenMP join), which the downstream engine honours.

    The program is staged once before it runs: parameters and loop
    indices are resolved to integer slots and every expression and
    reference becomes a closure, so no name is looked up per access.
    An operator with an integer-literal operand ([e + k], [e - k],
    [k * e], [e * k], [e / k], [e mod k]) becomes one closure, and so
    do [x / k] or [x mod k] on a bound name [x] and [(e / k1) mod k2];
    a chain [(e / k1) / k2] of positive literals is one division by
    [k1·k2], which truncation makes equal.  A chain of [/] and [mod] by
    positive literals over an operand whose range the loop bounds and
    parameters determine (at most 65536 values) is one lookup into a
    table of the chain's values over that range, computed with the same
    operators; an operand outside the table evaluates the chain
    directly.  A literal emits no access, so this moves nothing in the
    order below.  Accesses are
    emitted in this evaluation order, which the trace (and every golden
    built from it) encodes:
    - a binary operator evaluates its {e right} operand first;
    - an [if] evaluates its lhs before its rhs;
    - an assignment evaluates its rhs before the lhs subscripts;
    - subscripts are evaluated left to right, each reference's nested
      loads before the reference itself.

    Names resolve statically, so a program should pass
    {!Parser.check_result} (no unbound variable, no shadowing loop
    index).  An unbound variable still fails only when it is evaluated,
    with a [Diag.Fatal] carrying [I001]; a [/] or [%] whose divisor is
    zero when it runs fails with [I002], located at the reference, [if]
    header or loop header that evaluates it, after its operands'
    accesses. *)

type access = int
(** [(vaddr lsl 1) lor w] with [w = 1] for writes. *)

val addr_of_access : access -> int

val is_write : access -> bool

type phase = access array array
(** [phase.(t)] is thread [t]'s access stream for one top-level nest, in
    program order. *)

(** One component's share of a {!Separable} address. *)
type component =
  | Coef of int  (** [f(x) = g·x] for every [x] *)
  | Table of { lo : int; values : int array }
      (** [f(x) = values.(x - lo)]; the component {e misses} where [x]
          falls outside the table or the entry is [min_int] *)

(** Where an array's elements live, as a function of the index vector
    [a] of a reference. *)
type addr_map =
  | Fn of (Affine.Vec.t -> int)  (** any function of [a] *)
  | Separable of {
      base : int;
      u : Affine.Matrix.t;
      shift : Affine.Vec.t;
      comps : component array;  (** one per row of [u] *)
      whole : Affine.Vec.t -> int;
    }
      (** With [a' = u·a + shift]: [base + Σ_r f_r(a'_r)] where [f_r] is
          [comps.(r)], or [whole a'] when a component misses.  [whole]
          must agree with the sum wherever no component misses; it is
          the exact evaluation that also raises what the layout raises.
          An index whose rank is not [u]'s column count raises
          [Invalid_argument "Matrix.mul_vec"]. *)

val apply : addr_map -> Affine.Vec.t -> int
(** The address of one index vector.  [apply m] stages [m] once, as the
    same form {!trace} stages a reference into (over the index vector's
    components), and allocates nothing per call unless a component
    misses. *)

val trace :
  threads:int ->
  ?threads_per_core:int ->
  addr_of:(string -> addr_map) ->
  ?index_lookup:(string -> Affine.Vec.t -> int) ->
  Ast.program ->
  phase list
(** [trace ~threads ~addr_of p] runs [p] with [threads] threads.
    [addr_of array] must give the map from an element's index vector to
    its virtual address (layout-dependent).  It is applied once per
    reference, on that reference's first stored run (a reference that
    never runs never resolves), and its result serves every later access
    of that reference — so resolve the array there, not per access.

    A reference whose subscripts are affine in the loop indices, or
    chains of [/] and [mod] by positive literals over affine operands
    (names resolved as the interpreter resolves them, a parameter as its
    value), is staged against a {!Separable} map once, as one form over
    the loop slots: a linear part [c + Σ g·i] (every {!Coef} component,
    a chain's share included) plus terms [g·T[a - lo]], each a {!Table}
    component over an affine [a'_r] or a chain's table over its affine
    operand.  No index vector is built; a {!Table} miss evaluates
    [whole], and a chain operand outside its table evaluates the chain.
    A {!Table} component over a chain, a rank other than [u]'s column
    count, any other reference — an index-array subscript, a product of
    two iterators, a load of an index array — or an {!Fn} map evaluates
    the subscripts into the reference's own buffer and applies the map
    to it; an {!Fn} function receives that buffer, overwritten on the
    next access: read it, never retain it.

    An innermost loop whose body is only assignments that cannot raise
    (bound names, positive literal divisors, loads of non-index arrays)
    over such references is stepped through their forms: once every
    reference has resolved, each entry folds the outer indices, and the
    terms that do not read the loop index, into one base per reference,
    and the loop emits [base + Lx·x + Σ g·T[a0 + ax·x - lo]] per access
    ([whole] where a {!Table} term misses).  Streams fill fixed-size
    chunks and are copied out once per phase, at their exact length.
    [index_lookup] supplies the {e values} of index arrays (default: 0),
    used to resolve indexed subscripts; it receives a fresh copy of the
    index vector.  Reads of index arrays still appear in the trace via
    [addr_of].

    [threads_per_core] (default 1) only affects how a [parfor] is split:
    with [t] threads per core, threads [c·t .. c·t+t-1] share core [c] and
    split that core's chunk among themselves, so the Data-to-Core mapping
    is the same as with one thread per core (the paper's Fig. 24 setup).

    Loops whose bounds are not constant at entry (they may depend on outer
    iterators) are evaluated dynamically.  Statements outside any [parfor]
    run on thread 0. *)

val trace_tagged :
  threads:int ->
  ?threads_per_core:int ->
  addr_of:(string -> addr_map) ->
  ?index_lookup:(string -> Affine.Vec.t -> int) ->
  site_of:(Ast.ref_ -> int) ->
  Ast.program ->
  (phase * int array array) list
(** Like {!trace}, but each phase additionally carries a {e site stream}
    per thread, index-parallel to the access stream: element [i] is
    [site_of r] for the reference that emitted access [i] (typically
    {!Sites.id_of_ref}).  Site ids travel in this side band — not in the
    access encoding — because the verifier's synthetic replay addresses
    own the access int's high bits. *)

val trace_capped :
  threads:int ->
  cap:int ->
  ?exclude:(string -> bool) ->
  addr_of:(string -> addr_map) ->
  ?index_lookup:(string -> Affine.Vec.t -> int) ->
  Ast.program ->
  (phase * int array) list
(** Like {!trace}, but each thread stores only its first [cap] accesses
    of a phase: [(streams, counts)] where [counts.(t)] is the number of
    accesses thread [t] performed and [streams.(t)] the first
    [min cap counts.(t)] of them.  Past the cap a reference whose
    subscripts cannot fail — no array read, only bound names, division
    only by positive literals, as every affine and strip-mined subscript
    is — only counts; any other still evaluates its subscripts (and
    [index_lookup] still runs), so it raises where {!trace} would.
    [addr_of] is not called past the cap, so a reference whose first
    run lies past the cap never resolves; a stepped loop that reaches
    the cap adds the rest of its range's count at once.  A
    reference to an array for which [exclude] (default: none) holds
    emits nothing and is not counted; its non-affine subscripts and
    [index_lookup] still run.  The stored prefix is
    exactly the head of what {!trace} would give with the excluded
    arrays' accesses removed. *)
