(** Access-site table: one entry per static array reference of a program.

    The attribution layer ties every memory access a run performs back to
    the source construct that issued it.  A {e site} is a static array
    reference — the [B[i-1][j]] of a stencil — identified by a small dense
    id.  {!of_program} numbers the references of a program in the order
    the interpreter emits their accesses (reads of a statement before its
    write, subscript loads before the enclosing reference), so the table
    doubles as a legend for tagged traces.

    Site ids are attached to dynamic accesses through {!id_of_ref}: the
    interpreter holds the very [Ast.ref_] node it is about to emit, and
    the table resolves it by physical identity — no id field on the AST,
    no structural collisions between equal-looking references at different
    source locations. *)

type site = {
  id : int;
  array : string;  (** referenced array *)
  write : bool;
  span : Span.t;  (** source location of the reference *)
  phase : int;  (** index of the top-level nest containing it *)
}

type t

val of_program : Ast.program -> t
(** Numbers every array reference of the program (loop bounds, condition
    operands, subscripts, right-hand sides, left-hand sides), densely from
    0, in interpreter emission order.  A physically shared reference node
    gets one site. *)

val sites : t -> site array
(** All sites, index = id. *)

val id_of_ref : t -> Ast.ref_ -> int
(** The site id of a reference node of the program the table was built
    from, by physical identity; [-1] for foreign nodes. *)

val pp : ?src:string -> Format.formatter -> t -> unit
(** One line per site: id, array, R/W, phase, location ([src] renders
    line:column positions, as in {!Span.pp}). *)
