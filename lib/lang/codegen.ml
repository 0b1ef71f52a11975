(* C back end for the mini language.

   Arrays are flattened: a declaration [array A[N][M]] becomes
   [double A[N*M]] and a reference [A[e1][e2]] becomes [A[(e1)*M + e2]].
   Index arrays are [long].  Parallel loops carry
   [#pragma omp parallel for schedule(static)], matching the
   data-to-core mapping the pass assumed. *)

type env = {
  extents : (string * int list) list;
  index_arrays : string list;
  site_of : (Ast.ref_ -> int) option;
      (* when present, every rendered reference gets a [/*s<id>*/] tag so
         emitted C lines can be matched against the access-site table *)
}

(* All back-end failures are located diagnostics, raised as {!Diag.Fatal}
   and surfaced through {!emit_result}; {!emit} keeps the historical
   [Invalid_argument] for callers that treat them as fatal. *)
let error ~code ~span msg = raise (Diag.Fatal (Diag.error ~code span msg))

let static_extent ~span env e =
  match Ast.eval (fun x -> List.assoc_opt x env) e with
  | Ok v -> v
  | Error (Ast.Unbound x) ->
    error ~code:"G002" ~span ("Codegen: non-constant extent " ^ x)
  | Error Ast.Read -> error ~code:"G002" ~span "Codegen: load in extent"
  | Error Ast.Zero_divisor ->
    error ~code:"G002" ~span "Codegen: zero divisor in extent"

(* flattened reference: A[(e1)*M2*M3 + (e2)*M3 + e3] *)
let rec render_ref env buf (r : Ast.ref_) =
  let extents =
    match List.assoc_opt r.Ast.array env.extents with
    | Some e -> e
    | None ->
      error ~code:"G003" ~span:r.Ast.ref_span
        ("Codegen: unknown array " ^ r.Ast.array)
  in
  Buffer.add_string buf r.Ast.array;
  Buffer.add_char buf '[';
  let n = List.length r.Ast.subs in
  List.iteri
    (fun i sub ->
      if i > 0 then Buffer.add_string buf " + ";
      Buffer.add_char buf '(';
      render_expr env buf sub;
      Buffer.add_char buf ')';
      (* multiply by the product of the remaining extents *)
      let stride =
        List.filteri (fun j _ -> j > i) extents |> List.fold_left ( * ) 1
      in
      if stride <> 1 then Buffer.add_string buf (Printf.sprintf " * %d" stride);
      ignore n)
    r.Ast.subs;
  Buffer.add_char buf ']';
  match env.site_of with
  | Some f ->
    let id = f r in
    if id >= 0 then Buffer.add_string buf (Printf.sprintf "/*s%d*/" id)
  | None -> ()

and render_expr env buf = function
  | Ast.Int n ->
    if n < 0 then Buffer.add_string buf (Printf.sprintf "(%d)" n)
    else Buffer.add_string buf (string_of_int n)
  | Ast.Var x -> Buffer.add_string buf x
  | Ast.Neg a ->
    Buffer.add_string buf "(-";
    render_atom env buf a;
    Buffer.add_char buf ')'
  | Ast.Add (a, b) -> render_binop env buf a "+" b
  | Ast.Sub (a, b) -> render_binop env buf a "-" b
  | Ast.Mul (a, b) -> render_binop env buf a "*" b
  | Ast.Div (a, b) -> render_binop env buf a "/" b
  | Ast.Mod (a, b) -> render_binop env buf a "%" b
  | Ast.Load r -> render_ref env buf r

and render_binop env buf a op b =
  render_atom env buf a;
  Buffer.add_char buf ' ';
  Buffer.add_string buf op;
  Buffer.add_char buf ' ';
  render_atom env buf b

and render_atom env buf e =
  match e with
  | Ast.Int n when n >= 0 -> Buffer.add_string buf (string_of_int n)
  | Ast.Var x -> Buffer.add_string buf x
  | Ast.Load r -> render_ref env buf r
  | _ ->
    Buffer.add_char buf '(';
    render_expr env buf e;
    Buffer.add_char buf ')'

let indent buf depth = Buffer.add_string buf (String.make (2 * depth) ' ')

let relop_str = function
  | Ast.Lt -> "<"
  | Ast.Le -> "<="
  | Ast.Gt -> ">"
  | Ast.Ge -> ">="
  | Ast.Eq -> "=="
  | Ast.Ne -> "!="

let rec render_stmt env buf depth = function
  | Ast.If c ->
    indent buf depth;
    Buffer.add_string buf "if (";
    render_expr env buf c.Ast.lhs;
    Buffer.add_string buf (Printf.sprintf " %s " (relop_str c.Ast.op));
    render_expr env buf c.Ast.rhs;
    Buffer.add_string buf ") {\n";
    List.iter (render_stmt env buf (depth + 1)) c.Ast.then_;
    indent buf depth;
    if c.Ast.else_ = [] then Buffer.add_string buf "}\n"
    else begin
      Buffer.add_string buf "} else {\n";
      List.iter (render_stmt env buf (depth + 1)) c.Ast.else_;
      indent buf depth;
      Buffer.add_string buf "}\n"
    end
  | Ast.Assign (lhs, rhs) ->
    indent buf depth;
    render_ref env buf lhs;
    Buffer.add_string buf " = ";
    render_expr env buf rhs;
    Buffer.add_string buf ";\n"
  | Ast.Loop l ->
    if l.Ast.parallel then begin
      indent buf depth;
      Buffer.add_string buf "#pragma omp parallel for schedule(static)\n"
    end;
    indent buf depth;
    Buffer.add_string buf (Printf.sprintf "for (long %s = " l.Ast.index);
    render_expr env buf l.Ast.lo;
    Buffer.add_string buf (Printf.sprintf "; %s <= " l.Ast.index);
    render_expr env buf l.Ast.hi;
    Buffer.add_string buf (Printf.sprintf "; %s++) {\n" l.Ast.index);
    List.iter (render_stmt env buf (depth + 1)) l.Ast.body;
    indent buf depth;
    Buffer.add_string buf "}\n"

let emit_exn ?(name = "kernel") ?site_of (p : Ast.program) =
  let param_env = p.Ast.params in
  let extents =
    List.map
      (fun (d : Ast.decl) ->
        ( d.Ast.name,
          List.map (static_extent ~span:d.Ast.decl_span param_env) d.Ast.extents
        ))
      p.Ast.decls
  in
  let index_arrays =
    List.filter_map
      (fun (d : Ast.decl) ->
        if d.Ast.index_array then Some d.Ast.name else None)
      p.Ast.decls
  in
  let env = { extents; index_arrays; site_of } in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    "/* generated by occ: off-chip access localization (PLDI 2015) */\n";
  Buffer.add_string buf "#include <stddef.h>\n\n";
  List.iter
    (fun (n, v) -> Buffer.add_string buf (Printf.sprintf "#define %s %d\n" n v))
    p.Ast.params;
  Buffer.add_char buf '\n';
  List.iter
    (fun (d : Ast.decl) ->
      let size =
        List.fold_left ( * ) 1 (List.assoc d.Ast.name extents)
      in
      let ty = if d.Ast.index_array then "long" else "double" in
      Buffer.add_string buf
        (Printf.sprintf "static %s %s[%d];\n" ty d.Ast.name size))
    p.Ast.decls;
  Buffer.add_char buf '\n';
  if index_arrays <> [] then begin
    Buffer.add_string buf
      (Printf.sprintf
         "/* fill in the index-array contents before calling run_%s */\n" name);
    Buffer.add_string buf (Printf.sprintf "void init_%s_index_arrays(void);\n\n" name)
  end;
  Buffer.add_string buf (Printf.sprintf "void run_%s(void)\n{\n" name);
  List.iter (render_stmt env buf 1) p.Ast.nests;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let emit_result ?name ?site_of p =
  match emit_exn ?name ?site_of p with
  | s -> Ok s
  | exception Diag.Fatal d -> Error [ d ]

