type site = {
  id : int;
  array : string;
  write : bool;
  span : Span.t;
  phase : int;
}

(* Lookup buckets by array name keep the per-emission scan short: a
   program has at most a handful of references per array, and the scan
   compares pointers only. *)
type t = {
  site_list : site array;
  by_array : (string, (Ast.ref_ * int) list ref) Hashtbl.t;
}

let sites t = t.site_list

let id_of_ref t (r : Ast.ref_) =
  match Hashtbl.find_opt t.by_array r.Ast.array with
  | None -> -1
  | Some bucket ->
    let rec scan = function
      | [] -> -1
      | (r', id) :: rest -> if r' == r then id else scan rest
    in
    scan !bucket

(* The walk follows the interpreter's emission order (interp.ml) but for
   one case: an expression emits its loads innermost-subscript first, an
   assignment emits its right-hand side, then the left-hand side's
   subscripts, then the write; loop bounds are evaluated before the body;
   both branches of an [if] are walked (only one runs, but ids must cover
   either).  The exception is a binary operator, walked left operand
   first where the interpreter runs its right operand first.  Ids key on
   reference identity, so no output depends on it; reordering the walk
   would renumber every attribution table. *)
let of_program (p : Ast.program) =
  let acc = ref [] in
  let n = ref 0 in
  let by_array = Hashtbl.create 16 in
  let bucket name =
    match Hashtbl.find_opt by_array name with
    | Some b -> b
    | None ->
      let b = ref [] in
      Hashtbl.replace by_array name b;
      b
  in
  let visit phase (r : Ast.ref_) write =
    let b = bucket r.Ast.array in
    if not (List.exists (fun (r', _) -> r' == r) !b) then begin
      let id = !n in
      incr n;
      b := (r, id) :: !b;
      acc :=
        { id; array = r.Ast.array; write; span = r.Ast.ref_span; phase }
        :: !acc
    end
  in
  let rec walk_expr phase = function
    | Ast.Int _ | Ast.Var _ -> ()
    | Ast.Neg a -> walk_expr phase a
    | Ast.Add (a, b)
    | Ast.Sub (a, b)
    | Ast.Mul (a, b)
    | Ast.Div (a, b)
    | Ast.Mod (a, b) ->
      walk_expr phase a;
      walk_expr phase b
    | Ast.Load r ->
      List.iter (walk_expr phase) r.Ast.subs;
      visit phase r false
  in
  let rec walk_stmt phase = function
    | Ast.Assign (lhs, rhs) ->
      walk_expr phase rhs;
      List.iter (walk_expr phase) lhs.Ast.subs;
      visit phase lhs true
    | Ast.Loop l ->
      walk_expr phase l.Ast.lo;
      walk_expr phase l.Ast.hi;
      List.iter (walk_stmt phase) l.Ast.body
    | Ast.If c ->
      walk_expr phase c.Ast.lhs;
      walk_expr phase c.Ast.rhs;
      List.iter (walk_stmt phase) c.Ast.then_;
      List.iter (walk_stmt phase) c.Ast.else_
  in
  List.iteri (fun phase nest -> walk_stmt phase nest) p.Ast.nests;
  let site_list = Array.of_list (List.rev !acc) in
  Array.iteri (fun i s -> assert (s.id = i)) site_list;
  { site_list; by_array }

let pp ?src ppf t =
  Format.fprintf ppf "@[<v>";
  Array.iter
    (fun s ->
      Format.fprintf ppf "s%d %s %s phase %d %a@," s.id
        (if s.write then "W" else "R")
        s.array s.phase (Span.pp ?src) s.span)
    t.site_list;
  Format.fprintf ppf "@]"
