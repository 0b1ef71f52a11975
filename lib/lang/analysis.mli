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

val analyze : Ast.program -> t
(** {!analyze_result} for programs known to be well formed (the built-in
    apps): raises [Diag.Fatal] with its first diagnostic. *)

val analyze_result : Ast.program -> (t, Diag.t list) result
(** The analysis, or one located diagnostic per declaration whose extents
    do not evaluate ([S008] non-constant, [S009] zero divisor) and per
    loop header whose bounds divide by zero ([S009]).  Each extent and
    each loop bound is evaluated once. *)

val array_info : t -> string -> array_info
(** Raises [Not_found] for an undeclared array. *)
