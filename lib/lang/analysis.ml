module Vec = Affine.Vec
module Matrix = Affine.Matrix
module Access = Affine.Access

type kind = Affine_ref of Affine.Access.t | Indexed_ref

type occurrence = {
  array : string;
  kind : kind;
  iters : string list;
  par_dim : int option;
  trip_count : int;
  is_write : bool;
  nest_id : int;
}

type array_info = {
  decl : Ast.decl;
  extents : int array;
  occurrences : occurrence list;
}

type t = {
  program : Ast.program;
  params : (string * int) list;
  arrays : array_info list;
}

exception Unsupported of string

let rec const_expr env = function
  | Ast.Int n -> Some n
  | Ast.Var x -> List.assoc_opt x env
  | Ast.Neg a -> Option.map (fun v -> -v) (const_expr env a)
  | Ast.Add (a, b) -> combine env a b ( + )
  | Ast.Sub (a, b) -> combine env a b ( - )
  | Ast.Mul (a, b) -> combine env a b ( * )
  | Ast.Div (a, b) -> combine env a b ( / )
  | Ast.Mod (a, b) -> combine env a b (fun x y -> x mod y)
  | Ast.Load _ -> None

and combine env a b op =
  match (const_expr env a, const_expr env b) with
  | Some x, Some y -> Some (op x y)
  | _ -> None

let affine_of_expr ~params ~iters e =
  let m = List.length iters in
  let pos x =
    let rec go i = function
      | [] -> None
      | y :: r -> if String.equal x y then Some i else go (i + 1) r
    in
    go 0 iters
  in
  let rec go = function
    | Ast.Int n -> Some (Vec.zero m, n)
    | Ast.Var x -> (
      match pos x with
      | Some i -> Some (Vec.unit m i, 0)
      | None -> (
        match List.assoc_opt x params with
        | Some v -> Some (Vec.zero m, v)
        | None -> None))
    | Ast.Neg a ->
      Option.map (fun (c, k) -> (Vec.neg c, -k)) (go a)
    | Ast.Add (a, b) -> (
      match (go a, go b) with
      | Some (ca, ka), Some (cb, kb) -> Some (Vec.add ca cb, ka + kb)
      | _ -> None)
    | Ast.Sub (a, b) -> (
      match (go a, go b) with
      | Some (ca, ka), Some (cb, kb) -> Some (Vec.sub ca cb, ka - kb)
      | _ -> None)
    | Ast.Mul (a, b) -> (
      match (go a, go b) with
      | Some (ca, ka), Some (cb, kb) ->
        (* affine × affine is affine only if one side is constant *)
        if Vec.is_zero ca then Some (Vec.scale ka cb, ka * kb)
        else if Vec.is_zero cb then Some (Vec.scale kb ca, ka * kb)
        else None
      | _ -> None)
    | Ast.Div (a, b) -> (
      (* only constant/constant stays affine *)
      match (go a, go b) with
      | Some (ca, ka), Some (cb, kb)
        when Vec.is_zero ca && Vec.is_zero cb && kb <> 0 ->
        Some (Vec.zero m, ka / kb)
      | _ -> None)
    | Ast.Mod (a, b) -> (
      match (go a, go b) with
      | Some (ca, ka), Some (cb, kb)
        when Vec.is_zero ca && Vec.is_zero cb && kb <> 0 ->
        Some (Vec.zero m, ka mod kb)
      | _ -> None)
    | Ast.Load _ -> None
  in
  go e

(* Estimated trip count of a loop whose bounds may mention outer iterators:
   outer iterators are bound to the midpoint of their own ranges. *)
let loop_trip env (l : Ast.loop) =
  match (const_expr env l.lo, const_expr env l.hi) with
  | Some lo, Some hi -> max 0 (hi - lo + 1)
  | _ -> 1

let analyze (p : Ast.program) =
  let params = p.params in
  let occs : (string, occurrence list ref) Hashtbl.t = Hashtbl.create 16 in
  List.iter (fun (d : Ast.decl) -> Hashtbl.replace occs d.name (ref [])) p.decls;
  let record occ =
    match Hashtbl.find_opt occs occ.array with
    | Some r -> r := occ :: !r
    | None -> () (* parser guarantees declaredness *)
  in
  let classify_ref ~iters (r : Ast.ref_) =
    let subs =
      List.map (fun s -> affine_of_expr ~params ~iters s) r.subs
    in
    if List.for_all Option.is_some subs then begin
      let rows = List.map (fun s -> fst (Option.get s)) subs in
      let offs = List.map (fun s -> snd (Option.get s)) subs in
      Affine_ref (Access.make (Matrix.of_rows rows) (Vec.of_list offs))
    end
    else Indexed_ref
  in
  (* Walk a nest, tracking: iterator names (outermost first), the position
     of the innermost parallel loop, the environment of midpoint bindings
     for trip estimation, and the cumulative trip count. *)
  let rec walk_stmt nest_id iters par_dim env trip stmt =
    match stmt with
    | Ast.If c ->
      (* conservative: both branches assumed taken (Section 4); references
         in the condition itself are reads too *)
      let record_cond_refs e =
        let rec go = function
          | Ast.Int _ | Ast.Var _ -> ()
          | Ast.Neg a -> go a
          | Ast.Add (a, b) | Ast.Sub (a, b) | Ast.Mul (a, b)
          | Ast.Div (a, b) | Ast.Mod (a, b) ->
            go a;
            go b
          | Ast.Load r ->
            record
              {
                array = r.Ast.array;
                kind = classify_ref ~iters r;
                iters;
                par_dim;
                trip_count = trip;
                is_write = false;
                nest_id;
              };
            List.iter go r.Ast.subs
        in
        go e
      in
      record_cond_refs c.Ast.lhs;
      record_cond_refs c.Ast.rhs;
      List.iter (walk_stmt nest_id iters par_dim env trip) c.Ast.then_;
      List.iter (walk_stmt nest_id iters par_dim env trip) c.Ast.else_
    | Ast.Loop l ->
      let t = loop_trip env l in
      let mid =
        match (const_expr env l.lo, const_expr env l.hi) with
        | Some lo, Some hi -> (lo + hi) / 2
        | _ -> 0
      in
      let iters' = iters @ [ l.index ] in
      let par_dim' = if l.parallel then Some (List.length iters) else par_dim in
      let env' = (l.index, mid) :: env in
      List.iter (walk_stmt nest_id iters' par_dim' env' (trip * t)) l.body
    | Ast.Assign (lhs, rhs) ->
      let rec emit_ref is_write (r : Ast.ref_) =
        record
          {
            array = r.array;
            kind = classify_ref ~iters r;
            iters;
            par_dim;
            trip_count = trip;
            is_write;
            nest_id;
          };
        (* subscripts through index arrays are themselves reads *)
        List.iter (collect_expr ~iters) r.subs
      and collect_expr ~iters e =
        let rec go = function
          | Ast.Int _ | Ast.Var _ -> ()
          | Ast.Neg a -> go a
          | Ast.Add (a, b) | Ast.Sub (a, b) | Ast.Mul (a, b)
          | Ast.Div (a, b) | Ast.Mod (a, b) ->
            go a;
            go b
          | Ast.Load r ->
            record
              {
                array = r.array;
                kind = classify_ref ~iters r;
                iters;
                par_dim;
                trip_count = trip;
                is_write = false;
                nest_id;
              };
            List.iter go r.subs
        in
        go e
      in
      emit_ref true lhs;
      collect_expr ~iters rhs
  in
  List.iteri (fun i nest -> walk_stmt i [] None params 1 nest) p.nests;
  let arrays =
    List.map
      (fun (d : Ast.decl) ->
        let extents =
          List.map
            (fun e ->
              match const_expr params e with
              | Some v -> v
              | None -> raise (Unsupported ("non-constant extent for " ^ d.name)))
            d.extents
        in
        let os = match Hashtbl.find_opt occs d.name with
          | Some r -> List.rev !r
          | None -> []
        in
        { decl = d; extents = Array.of_list extents; occurrences = os })
      p.decls
  in
  { program = p; params; arrays }

(* Pre-checks the one Unsupported condition with a located diagnostic per
   offending declaration, then runs the (infallible) analysis. *)
let analyze_result (p : Ast.program) =
  let bad =
    List.filter_map
      (fun (d : Ast.decl) ->
        if List.exists (fun e -> const_expr p.params e = None) d.extents then
          Some
            (Diag.error ~code:"S008" d.decl_span
               ("non-constant extent for " ^ d.name))
        else None)
      p.decls
  in
  if bad <> [] then Error bad
  else
    match analyze p with
    | t -> Ok t
    | exception Unsupported msg ->
      Error [ Diag.error ~code:"S008" Span.dummy msg ]

let array_info t name =
  List.find (fun a -> String.equal a.decl.name name) t.arrays
