(** Recursive-descent parser for the mini language.

    Grammar (see README for examples):
    {v
    program  ::= item*
    item     ::= "param" IDENT "=" expr ";"
               | ("array"|"index") IDENT ("[" expr "]")+ ";"
               | loop
    loop     ::= ("for"|"parfor") IDENT "=" expr "to" expr body
    body     ::= "{" stmt* "}" | stmt
    stmt     ::= loop | "if" "(" expr relop expr ")" block ("else" block)?
               | ref "=" expr ";"
    ref      ::= IDENT ("[" expr "]")+
    expr     ::= term (("+"|"-") term)*
    term     ::= factor (("*"|"/"|"%") factor)*
    factor   ::= INT | "-" factor | "(" expr ")" | IDENT | ref
    v}

    All entry points return located diagnostics as [Result] values — there
    are no raising variants. *)

val parse_program_result :
  ?file:string -> string -> (Ast.program, Diag.t list) result
(** Lex and parse only — no scope check.  The pipeline runs the check as
    its own pass. *)

val parse_result :
  ?file:string -> string -> (Ast.program, Diag.t list) result
(** Parses a full source string and scope-checks it (see
    {!check_result}).  Lexical and syntax errors stop at the first
    diagnostic; semantic checking collects one located diagnostic per
    offending reference or loop header. *)

val check_result : Ast.program -> (Ast.program, Diag.t list) result
(** Scope check alone, for programmatically constructed programs: every
    referenced array declared with a matching subscript count ([S004],
    [S005]); every variable a parameter or an enclosing loop index
    ([S006], at the enclosing reference, loop header or [if] header);
    no loop index shadowing a parameter or an enclosing loop index
    ([S007], at the loop header). *)
