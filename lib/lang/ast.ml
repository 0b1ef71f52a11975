(** Abstract syntax of the mini affine loop-nest language.

    This is the input language of the layout-transformation pass: array
    declarations plus (possibly parallel) rectangular loop nests whose
    statements assign between affine array references.  Subscripts may also
    go through integer index arrays ([a[col[j]]]), which is the irregular
    case handled by profiling-based approximation (paper, Section 5.4). *)

type expr =
  | Int of int
  | Var of string  (** loop iterator or program parameter *)
  | Neg of expr
  | Add of expr * expr
  | Sub of expr * expr
  | Mul of expr * expr
  | Div of expr * expr  (** integer division, used by transformed code *)
  | Mod of expr * expr
  | Load of ref_  (** array read appearing inside an expression *)

and ref_ = { array : string; subs : expr list; ref_span : Span.t }

type relop = Lt | Le | Gt | Ge | Eq | Ne

type stmt =
  | Assign of ref_ * expr  (** [ref = expr;] — one write, several reads *)
  | Loop of loop
  | If of cond  (** the pass conservatively assumes both branches run *)

and cond = {
  lhs : expr;
  op : relop;
  rhs : expr;
  then_ : stmt list;
  else_ : stmt list;
  cond_span : Span.t;  (** the [if (...)] header *)
}

and loop = {
  index : string;
  lo : expr;
  hi : expr;  (** inclusive: [for i = lo to hi] *)
  parallel : bool;  (** [parfor]: iterations block-distributed over cores *)
  body : stmt list;
  loop_span : Span.t;  (** the [for i = lo to hi] header *)
}

type decl = {
  name : string;
  extents : expr list;  (** per-dimension sizes, constant after params *)
  index_array : bool;
      (** integer-valued array used only in subscripts (e.g. CRS column
          indices); never layout-transformed *)
  decl_span : Span.t;
}

type program = {
  params : (string * int) list;  (** symbolic size parameters *)
  decls : decl list;
  nests : stmt list;  (** top-level loop nests, executed in order *)
}

(* Constructors for programmatically-built nodes (rewrites, tests): the
   span defaults to {!Span.dummy}. *)

let mk_ref ?(span = Span.dummy) ~array ~subs () =
  { array; subs; ref_span = span }

let mk_decl ?(span = Span.dummy) ?(index_array = false) ~name ~extents () =
  { name; extents; index_array; decl_span = span }

(* The one evaluator of integer expressions outside the interpreter's
   staged closures: parameters, extents, loop bounds, the verifier's
   sampled subscripts and the profiler.  [/] and [%] truncate as OCaml's
   do, operands left before right; a failure is a value, never raised. *)
type eval_error =
  | Unbound of string  (** a name [lookup] does not bind *)
  | Read  (** an array read, and no [read] callback *)
  | Zero_divisor  (** [/] or [%] by zero *)

let eval ?read lookup e =
  let exception Fail of eval_error in
  let divisor b = if b = 0 then raise_notrace (Fail Zero_divisor) else b in
  let rec go = function
    | Int n -> n
    | Var x -> (
      match lookup x with Some v -> v | None -> raise_notrace (Fail (Unbound x)))
    | Neg a -> -go a
    | Add (a, b) -> bin a b ( + )
    | Sub (a, b) -> bin a b ( - )
    | Mul (a, b) -> bin a b ( * )
    | Div (a, b) -> bin a b (fun x y -> x / divisor y)
    | Mod (a, b) -> bin a b (fun x y -> x mod divisor y)
    | Load r -> (
      match read with
      | Some f -> f r.array (List.map go r.subs)
      | None -> raise_notrace (Fail Read))
  and bin a b op =
    let x = go a in
    op x (go b)
  in
  match go e with v -> Ok v | exception Fail err -> Error err

let span_of_stmt = function
  | Assign (r, _) -> r.ref_span
  | Loop l -> l.loop_span
  | If c -> c.cond_span

(* Structural identity with every span replaced by {!Span.dummy} — what
   the parse∘print round-trip preserves. *)
let rec strip_spans_expr = function
  | (Int _ | Var _) as e -> e
  | Neg a -> Neg (strip_spans_expr a)
  | Add (a, b) -> Add (strip_spans_expr a, strip_spans_expr b)
  | Sub (a, b) -> Sub (strip_spans_expr a, strip_spans_expr b)
  | Mul (a, b) -> Mul (strip_spans_expr a, strip_spans_expr b)
  | Div (a, b) -> Div (strip_spans_expr a, strip_spans_expr b)
  | Mod (a, b) -> Mod (strip_spans_expr a, strip_spans_expr b)
  | Load r -> Load (strip_spans_ref r)

and strip_spans_ref r =
  { r with subs = List.map strip_spans_expr r.subs; ref_span = Span.dummy }

let rec strip_spans_stmt = function
  | Assign (r, e) -> Assign (strip_spans_ref r, strip_spans_expr e)
  | Loop l ->
    Loop
      {
        l with
        lo = strip_spans_expr l.lo;
        hi = strip_spans_expr l.hi;
        body = List.map strip_spans_stmt l.body;
        loop_span = Span.dummy;
      }
  | If c ->
    If
      {
        c with
        lhs = strip_spans_expr c.lhs;
        rhs = strip_spans_expr c.rhs;
        then_ = List.map strip_spans_stmt c.then_;
        else_ = List.map strip_spans_stmt c.else_;
        cond_span = Span.dummy;
      }

let strip_spans p =
  {
    p with
    decls =
      List.map
        (fun d ->
          { d with extents = List.map strip_spans_expr d.extents; decl_span = Span.dummy })
        p.decls;
    nests = List.map strip_spans_stmt p.nests;
  }

let equal_program a b = strip_spans a = strip_spans b

let rec pp_expr ppf = function
  | Int n -> Format.pp_print_int ppf n
  | Var s -> Format.pp_print_string ppf s
  | Neg e -> Format.fprintf ppf "-%a" pp_atom e
  | Add (a, b) -> Format.fprintf ppf "%a + %a" pp_expr a pp_expr b
  | Sub (a, b) -> Format.fprintf ppf "%a - %a" pp_expr a pp_atom b
  | Mul (a, b) -> Format.fprintf ppf "%a*%a" pp_atom a pp_atom b
  | Div (a, b) -> Format.fprintf ppf "%a/%a" pp_atom a pp_atom b
  | Mod (a, b) -> Format.fprintf ppf "%a%%%a" pp_atom a pp_atom b
  | Load r -> pp_ref ppf r

and pp_atom ppf e =
  match e with
  | Int _ | Var _ | Load _ -> pp_expr ppf e
  | Neg _ | Add _ | Sub _ | Mul _ | Div _ | Mod _ ->
    Format.fprintf ppf "(%a)" pp_expr e

and pp_ref ppf { array; subs; _ } =
  Format.pp_print_string ppf array;
  List.iter (fun s -> Format.fprintf ppf "[%a]" pp_expr s) subs

let pp_relop ppf op =
  Format.pp_print_string ppf
    (match op with
    | Lt -> "<"
    | Le -> "<="
    | Gt -> ">"
    | Ge -> ">="
    | Eq -> "=="
    | Ne -> "!=")

let rec pp_stmt ppf = function
  | Assign (r, e) -> Format.fprintf ppf "@[<h>%a = %a;@]" pp_ref r pp_expr e
  | Loop l ->
    Format.fprintf ppf "@[<v 2>%s %s = %a to %a {@,%a@]@,}"
      (if l.parallel then "parfor" else "for")
      l.index pp_expr l.lo pp_expr l.hi pp_body l.body
  | If c ->
    Format.fprintf ppf "@[<v 2>if (%a %a %a) {@,%a@]@,}" pp_expr c.lhs pp_relop
      c.op pp_expr c.rhs pp_body c.then_;
    if c.else_ <> [] then
      Format.fprintf ppf "@[<v 2> else {@,%a@]@,}" pp_body c.else_

and pp_body ppf body =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.fprintf ppf "@,")
    pp_stmt ppf body

let pp_decl ppf d =
  Format.fprintf ppf "@[<h>%s %s%a;@]"
    (if d.index_array then "index" else "array")
    d.name
    (fun ppf -> List.iter (fun e -> Format.fprintf ppf "[%a]" pp_expr e))
    d.extents

let pp_program ppf p =
  Format.fprintf ppf "@[<v>";
  List.iter (fun (n, v) -> Format.fprintf ppf "param %s = %d;@," n v) p.params;
  List.iter (fun d -> Format.fprintf ppf "%a@," pp_decl d) p.decls;
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.fprintf ppf "@,")
    pp_stmt ppf p.nests;
  Format.fprintf ppf "@]"

let program_to_string p = Format.asprintf "%a" pp_program p
