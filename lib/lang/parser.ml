exception Error of Diag.t

type state = {
  mutable toks : Lexer.spanned list;
  file : string;
  mutable last_end : int;  (* end offset of the most recently consumed token *)
}

let peek st = match st.toks with [] -> Lexer.EOF | t :: _ -> t.Lexer.tok

let peek_span st =
  match st.toks with
  | [] -> Span.make ~file:st.file ~lo:st.last_end ~hi:st.last_end
  | t :: _ -> t.Lexer.span

let advance st =
  match st.toks with
  | [] -> ()
  | t :: r ->
    st.last_end <- t.Lexer.span.Span.hi;
    st.toks <- r

(* Span from a start offset to the end of the last consumed token. *)
let since st lo = Span.make ~file:st.file ~lo ~hi:st.last_end

let syntax_error ?(code = "P001") st msg = raise (Error (Diag.error ~code (peek_span st) msg))

let expect st t =
  if peek st = t then advance st
  else
    syntax_error st
      (Format.asprintf "expected %a, found %a" Lexer.pp_token t Lexer.pp_token
         (peek st))

let ident st =
  match peek st with
  | Lexer.IDENT s ->
    advance st;
    s
  | t ->
    syntax_error ~code:"P002" st
      (Format.asprintf "expected identifier, found %a" Lexer.pp_token t)

(* expr := term (("+"|"-") term)* *)
let rec expr st =
  let lhs = term st in
  let rec loop acc =
    match peek st with
    | Lexer.PLUS ->
      advance st;
      loop (Ast.Add (acc, term st))
    | Lexer.MINUS ->
      advance st;
      loop (Ast.Sub (acc, term st))
    | _ -> acc
  in
  loop lhs

and term st =
  let lhs = factor st in
  let rec loop acc =
    match peek st with
    | Lexer.STAR ->
      advance st;
      loop (Ast.Mul (acc, factor st))
    | Lexer.SLASH ->
      advance st;
      loop (Ast.Div (acc, factor st))
    | Lexer.PERCENT ->
      advance st;
      loop (Ast.Mod (acc, factor st))
    | _ -> acc
  in
  loop lhs

and factor st =
  match peek st with
  | Lexer.INT n ->
    advance st;
    Ast.Int n
  | Lexer.MINUS ->
    advance st;
    Ast.Neg (factor st)
  | Lexer.LPAREN ->
    advance st;
    let e = expr st in
    expect st Lexer.RPAREN;
    e
  | Lexer.IDENT name ->
    let lo = (peek_span st).Span.lo in
    advance st;
    if peek st = Lexer.LBRACKET then begin
      let subs = subscripts st in
      Ast.Load { Ast.array = name; subs; ref_span = since st lo }
    end
    else Ast.Var name
  | t ->
    syntax_error ~code:"P003" st
      (Format.asprintf "unexpected token %a" Lexer.pp_token t)

and subscripts st =
  let rec loop acc =
    if peek st = Lexer.LBRACKET then begin
      advance st;
      let e = expr st in
      expect st Lexer.RBRACKET;
      loop (e :: acc)
    end
    else List.rev acc
  in
  loop []

let relop st =
  match peek st with
  | Lexer.LT -> advance st; Ast.Lt
  | Lexer.LE -> advance st; Ast.Le
  | Lexer.GT -> advance st; Ast.Gt
  | Lexer.GE -> advance st; Ast.Ge
  | Lexer.EQEQ -> advance st; Ast.Eq
  | Lexer.NE -> advance st; Ast.Ne
  | t ->
    syntax_error ~code:"P004" st
      (Format.asprintf "expected comparison, found %a" Lexer.pp_token t)

let rec stmt st =
  match peek st with
  | Lexer.KW_FOR | Lexer.KW_PARFOR -> Ast.Loop (loop_stmt st)
  | Lexer.KW_IF -> if_stmt st
  | Lexer.IDENT name ->
    let lo = (peek_span st).Span.lo in
    advance st;
    let subs = subscripts st in
    let ref_span = since st lo in
    if subs = [] then
      raise
        (Error
           (Diag.error ~code:"P006" ref_span
              ("assignment target must be an array reference: " ^ name)));
    expect st Lexer.EQUALS;
    let rhs = expr st in
    expect st Lexer.SEMI;
    Ast.Assign ({ Ast.array = name; subs; ref_span }, rhs)
  | t ->
    syntax_error ~code:"P005" st
      (Format.asprintf "expected statement, found %a" Lexer.pp_token t)

and if_stmt st =
  let lo = (peek_span st).Span.lo in
  expect st Lexer.KW_IF;
  expect st Lexer.LPAREN;
  let lhs = expr st in
  let op = relop st in
  let rhs = expr st in
  expect st Lexer.RPAREN;
  let cond_span = since st lo in
  let block () =
    expect st Lexer.LBRACE;
    let rec items acc =
      if peek st = Lexer.RBRACE then begin
        advance st;
        List.rev acc
      end
      else items (stmt st :: acc)
    in
    items []
  in
  let then_ = block () in
  let else_ =
    if peek st = Lexer.KW_ELSE then begin
      advance st;
      block ()
    end
    else []
  in
  Ast.If { Ast.lhs; op; rhs; then_; else_; cond_span }

and loop_stmt st =
  let lo_off = (peek_span st).Span.lo in
  let parallel =
    match peek st with
    | Lexer.KW_PARFOR -> true
    | Lexer.KW_FOR -> false
    | _ -> assert false
  in
  advance st;
  let index = ident st in
  expect st Lexer.EQUALS;
  let lo = expr st in
  expect st Lexer.KW_TO;
  let hi = expr st in
  let loop_span = since st lo_off in
  let body =
    if peek st = Lexer.LBRACE then begin
      advance st;
      let rec items acc =
        if peek st = Lexer.RBRACE then begin
          advance st;
          List.rev acc
        end
        else items (stmt st :: acc)
      in
      items []
    end
    else [ stmt st ]
  in
  { Ast.index; lo; hi; parallel; body; loop_span }

let program st =
  let params = ref [] and decls = ref [] and nests = ref [] in
  (* parameters may be used in later param definitions *)
  let const_eval ~name ~span e =
    let fail code msg = raise (Error (Diag.error ~code span msg)) in
    match Ast.eval (fun x -> List.assoc_opt x !params) e with
    | Ok v -> v
    | Result.Error (Ast.Unbound x) -> fail "S001" ("unknown parameter " ^ x)
    | Result.Error Ast.Read ->
      fail "S002" "array reference in constant expression"
    | Result.Error Ast.Zero_divisor ->
      fail "S009" ("zero divisor in the definition of parameter " ^ name)
  in
  let rec items () =
    match peek st with
    | Lexer.EOF -> ()
    | Lexer.KW_PARAM ->
      let lo = (peek_span st).Span.lo in
      advance st;
      let name = ident st in
      expect st Lexer.EQUALS;
      let e = expr st in
      let v = const_eval ~name ~span:(since st lo) e in
      expect st Lexer.SEMI;
      params := !params @ [ (name, v) ];
      items ()
    | Lexer.KW_ARRAY | Lexer.KW_INDEX ->
      let lo = (peek_span st).Span.lo in
      let index_array = peek st = Lexer.KW_INDEX in
      advance st;
      let name = ident st in
      let extents = subscripts st in
      if extents = [] then
        raise
          (Error
             (Diag.error ~code:"S003" (since st lo)
                ("array without dimensions: " ^ name)));
      expect st Lexer.SEMI;
      decls := !decls @ [ { Ast.name; extents; index_array; decl_span = since st lo } ];
      items ()
    | Lexer.KW_FOR | Lexer.KW_PARFOR ->
      nests := !nests @ [ stmt st ];
      items ()
    | t ->
      syntax_error ~code:"P007" st
        (Format.asprintf "unexpected top-level token %a" Lexer.pp_token t)
  in
  items ();
  { Ast.params = !params; decls = !decls; nests = !nests }

(* Scope checking: every referenced array declared, with matching rank;
   every variable a parameter or an enclosing loop index; no loop index
   shadowing either.  All violations are collected — one located
   diagnostic per offending reference or loop header — instead of dying
   at the first.  A checked program binds each name to exactly one
   parameter or loop, which is what lets the interpreter resolve names
   to slots statically. *)
let check_result (p : Ast.program) =
  let ranks = Hashtbl.create 16 in
  List.iter
    (fun (d : Ast.decl) ->
      Hashtbl.replace ranks d.name (List.length d.extents, d.decl_span))
    p.decls;
  let diags = ref [] in
  let emit d = diags := d :: !diags in
  let check_ref (r : Ast.ref_) =
    match Hashtbl.find_opt ranks r.array with
    | None ->
      emit (Diag.error ~code:"S004" r.ref_span ("undeclared array " ^ r.array))
    | Some (rk, dspan) ->
      if rk <> List.length r.subs then
        emit
          (Diag.error ~code:"S005" r.ref_span
             ~notes:
               (if Span.is_dummy dspan then []
                else [ Diag.note ~span:dspan (r.array ^ " declared here") ])
             (Printf.sprintf "array %s has rank %d, used with %d subscripts"
                r.array rk (List.length r.subs)))
  in
  (* [scope]: the names in scope, innermost first, each with what binds
     it; [span]: the enclosing reference or header an unbound variable is
     reported at.  (String.equal, not the polymorphic List.assoc: the
     built-in apps are parsed on every set-up.) *)
  let rec binder x = function
    | [] -> None
    | (n, b) :: rest -> if String.equal n x then Some b else binder x rest
  in
  let rec check_expr scope span = function
    | Ast.Int _ -> ()
    | Ast.Var x ->
      if binder x scope = None then
        emit (Diag.error ~code:"S006" span ("unbound variable " ^ x))
    | Ast.Neg a -> check_expr scope span a
    | Ast.Add (a, b) | Ast.Sub (a, b) | Ast.Mul (a, b) | Ast.Div (a, b) | Ast.Mod (a, b) ->
      check_expr scope span a;
      check_expr scope span b
    | Ast.Load r ->
      check_ref r;
      List.iter (check_expr scope r.ref_span) r.subs
  in
  let rec check_stmt scope = function
    | Ast.Assign (r, e) ->
      check_ref r;
      List.iter (check_expr scope r.ref_span) r.subs;
      check_expr scope r.ref_span e
    | Ast.Loop l ->
      check_expr scope l.loop_span l.lo;
      check_expr scope l.loop_span l.hi;
      (match binder l.index scope with
      | Some binder ->
        emit
          (Diag.error ~code:"S007" l.loop_span
             (Printf.sprintf "loop index %s shadows %s %s" l.index binder
                l.index))
      | None -> ());
      let scope = (l.index, "an enclosing loop index") :: scope in
      List.iter (check_stmt scope) l.body
    | Ast.If c ->
      check_expr scope c.Ast.cond_span c.Ast.lhs;
      check_expr scope c.Ast.cond_span c.Ast.rhs;
      List.iter (check_stmt scope) c.Ast.then_;
      List.iter (check_stmt scope) c.Ast.else_
  in
  let params = List.map (fun (n, _) -> (n, "the parameter")) p.params in
  List.iter (check_stmt params) p.nests;
  match List.rev !diags with [] -> Ok p | ds -> Result.Error ds

let parse_program_result ?(file = "<input>") src =
  match Lexer.scan ~file src with
  | Result.Error d -> Result.Error [ d ]
  | Ok toks -> (
    match program { toks; file; last_end = 0 } with
    | p -> Ok p
    | exception Error d -> Result.Error [ d ])

let parse_result ?file src =
  match parse_program_result ?file src with
  | Result.Error _ as e -> e
  | Ok p -> check_result p
