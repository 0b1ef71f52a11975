(** Transformed data layouts.

    A layout describes where each element of one array lives after the
    pass: first the unimodular transformation [a' = U·a] (Data-to-Core
    mapping), then the strip-mining/permutation customization that turns
    [a'] into the final multi-dimensional index vector, laid out row-major
    (Section 5.3).  Output dimensions are expressions over the components
    of [a'] built from integer division and modulo — exactly the
    subscripts of the transformed source code (Fig. 9c).

    For the shared-L2 case a layout additionally carries the δ-skip table:
    an order-preserving forward shift of [p]-element blocks that moves
    data off controllers that are not adjacent to the desired one
    (Section 5.3, "shared L2 case"). *)

type dim_expr =
  | D of int  (** component [i] of [a' = U·a] *)
  | Div of dim_expr * int
  | Mod of dim_expr * int
  | Perm of dim_expr * int array
      (** table lookup: remaps a bounded index through a permutation.
          Used by the shared-L2 customization to send each data block to
          a home bank near its owning core whose controller is acceptable
          - the bounded-drift equivalent of the paper's running delta skip
          (see DESIGN.md).  In generated code this appears as a small
          compiler-emitted index array. *)

type out_dim = { expr : dim_expr; extent : int }

type t = {
  array : string;
  u : Affine.Matrix.t;
  a_shift : Affine.Vec.t;
      (** constant added after [U]: [a' = U·a + a_shift], normalizing
          every component to start at 0 when [U] is not a permutation *)
  out : out_dim array;  (** output dimensions, slowest-varying first *)
  orig_extents : int array;
  elem_bytes : int;
  p_elems : int;  (** interleaving unit in elements *)
}

val identity : array:string -> extents:int array -> elem_bytes:int -> t
(** The untransformed row-major layout. *)

val make :
  array:string ->
  u:Affine.Matrix.t ->
  ?a_shift:Affine.Vec.t ->
  out:out_dim array ->
  orig_extents:int array ->
  elem_bytes:int ->
  p_elems:int ->
  unit ->
  t

val simplify : t -> t
(** Removes degenerate output dimensions (extent 1) and rewrites
    [e/1 -> e]: cosmetic, the linearized offsets are unchanged. *)

val size_elems : t -> int
(** Padded size in elements (product of output extents, plus δ-skip
    growth). *)

val size_bytes : t -> int

val offset_of_index : t -> Affine.Vec.t -> int
(** Element offset (within the array allocation) of an {e original} data
    vector: [a' = U·a + a_shift], then every output dimension in order,
    row-major.  Injective on the original data space. *)

val addr_map : ?base:int -> ?scale:int -> t -> Lang.Interp.addr_map
(** [addr_map ~base ~scale l] is [fun a -> base + scale · offset_of_index
    l a] as a {!Lang.Interp.Separable} map, for the trace generator to
    compose with each affine reference.  Every output dimension reads
    exactly one component [a'_r], so the offset is a sum of one-variable
    functions [Σ_r F_r(a'_r)].  A component whose dimensions are all
    plain [D r] is one coefficient ({!Lang.Interp.Coef}); any other is a
    table ({!Lang.Interp.Table}) over the range [a'_r] takes on the
    original data space's bounding box (from [U]'s row, the shift and
    [orig_extents]), filled once with the out-dimension evaluator
    {!offset_of_index} uses.  A table holds at most
    twice as many entries as the array has elements; a longer range gets
    no table.  Outside its table, where filling it raised
    ([Division_by_zero], a [Perm] index out of range), and wherever a
    dimension reads a component [U] does not have, the address is
    evaluated directly, so addresses and exceptions are exactly those of
    {!offset_of_index}.  Raises [Invalid_argument "Vec.add"] when the
    shift's length is not [U]'s row count. *)

val transformed_subscripts : t -> Lang.Ast.expr list -> Lang.Ast.expr list
(** Rewrites the subscript expressions of a reference: given the original
    subscripts [s], produces the transformed subscripts (one per output
    dimension) over [U·s] — this is what turns Fig. 9b into Fig. 9c. *)

val pp : Format.formatter -> t -> unit
