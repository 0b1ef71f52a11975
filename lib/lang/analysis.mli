(** Affine analysis of a mini-language program.

    Extracts, for every array reference, the access matrix and offset
    ([r = A·i + o]) with respect to its enclosing iteration vector, the
    position of the enclosing parallel loop (the iteration-partition
    dimension [u]), and an estimated trip count (the weight [n_j] used in
    Section 5.2 for the multiple-references case).  References whose
    subscripts are not affine — in particular subscripts through index
    arrays — are classified [Indexed] and handled by the profiling path
    (Section 5.4). *)

type kind = Affine_ref of Affine.Access.t | Indexed_ref

type occurrence = {
  array : string;
  kind : kind;
  iters : string list;  (** enclosing loop iterators, outermost first *)
  par_dim : int option;
      (** position of the innermost enclosing parallel iterator in
          [iters], if any *)
  trip_count : int;  (** estimated number of dynamic executions *)
  is_write : bool;
  nest_id : int;  (** index of the enclosing top-level nest *)
}

type array_info = {
  decl : Ast.decl;
  extents : int array;  (** evaluated dimension sizes *)
  occurrences : occurrence list;  (** in program order *)
}

type t = {
  program : Ast.program;
  params : (string * int) list;
  arrays : array_info list;  (** every declared array, in program order *)
}

exception Unsupported of string

val analyze : Ast.program -> t
(** Raises {!Unsupported} if an extent is not constant. *)

val analyze_result : Ast.program -> (t, Diag.t list) result
(** Like {!analyze}, but returns one located diagnostic ([S008]) per
    declaration whose extents are not constant. *)

val array_info : t -> string -> array_info
(** Raises [Not_found] for an undeclared array. *)

val affine_of_expr :
  params:(string * int) list ->
  iters:string list ->
  Ast.expr ->
  (Affine.Vec.t * int) option
(** [affine_of_expr ~params ~iters e] is [Some (coeffs, const)] when [e]
    is an affine function of the iterators, i.e. [e = coeffs·iters +
    const]; [None] otherwise. *)
