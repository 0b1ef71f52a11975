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

let analyze_result (p : Ast.program) =
  let params = p.params in
  let diags = ref [] in
  let error ~code span msg = diags := Diag.error ~code span msg :: !diags in
  let eval env = Ast.eval (fun x -> List.assoc_opt x env) in
  (* one diagnostic per declaration, at its first extent that fails *)
  let extents_of (d : Ast.decl) =
    let vals = List.map (eval params) d.extents in
    (match List.find_opt (function Error _ -> true | Ok v -> v <= 0) vals with
    | Some (Error Ast.Zero_divisor) ->
      error ~code:"S009" d.decl_span ("zero divisor in an extent of " ^ d.name)
    | Some (Error (Ast.Unbound _ | Ast.Read)) ->
      error ~code:"S008" d.decl_span ("non-constant extent for " ^ d.name)
    | Some (Ok v) ->
      error ~code:"S010" d.decl_span
        (Printf.sprintf "extent %d of %s is not positive" v d.name)
    | None -> ());
    Array.of_list (List.map (Result.value ~default:0) vals)
  in
  let extents = List.map extents_of p.decls in
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
    let record_ref is_write (r : Ast.ref_) =
      record
        {
          array = r.array;
          kind = classify_ref ~iters r;
          iters;
          par_dim;
          trip_count = trip;
          is_write;
          nest_id;
        }
    in
    (* the reads in an expression; subscripts through index arrays are
       themselves reads *)
    let rec reads = function
      | Ast.Int _ | Ast.Var _ -> ()
      | Ast.Neg a -> reads a
      | Ast.Add (a, b) | Ast.Sub (a, b) | Ast.Mul (a, b)
      | Ast.Div (a, b) | Ast.Mod (a, b) ->
        reads a;
        reads b
      | Ast.Load r ->
        record_ref false r;
        List.iter reads r.subs
    in
    match stmt with
    | Ast.If c ->
      (* conservative: both branches assumed taken (Section 4); references
         in the condition itself are reads too *)
      reads c.Ast.lhs;
      reads c.Ast.rhs;
      List.iter (walk_stmt nest_id iters par_dim env trip) c.Ast.then_;
      List.iter (walk_stmt nest_id iters par_dim env trip) c.Ast.else_
    | Ast.Loop l ->
      (* estimated trip count, with outer iterators bound to the midpoint
         of their own ranges; a bound that does not evaluate counts 1 *)
      let t, mid =
        match (eval env l.lo, eval env l.hi) with
        | Ok lo, Ok hi -> (max 0 (hi - lo + 1), (lo + hi) / 2)
        | Error Ast.Zero_divisor, _ | _, Error Ast.Zero_divisor ->
          error ~code:"S009" l.loop_span
            ("zero divisor in the bounds of loop " ^ l.index);
          (1, 0)
        | _ -> (1, 0)
      in
      let iters' = iters @ [ l.index ] in
      let par_dim' = if l.parallel then Some (List.length iters) else par_dim in
      let env' = (l.index, mid) :: env in
      List.iter (walk_stmt nest_id iters' par_dim' env' (trip * t)) l.body
    | Ast.Assign (lhs, rhs) ->
      record_ref true lhs;
      List.iter reads lhs.subs;
      reads rhs
  in
  List.iteri (fun i nest -> walk_stmt i [] None params 1 nest) p.nests;
  match List.rev !diags with
  | _ :: _ as ds -> Error ds
  | [] ->
    let arrays =
      List.map2
        (fun (d : Ast.decl) extents ->
          let os =
            match Hashtbl.find_opt occs d.name with
            | Some r -> List.rev !r
            | None -> []
          in
          { decl = d; extents; occurrences = os })
        p.decls extents
    in
    Ok { program = p; params; arrays }

let analyze p =
  match analyze_result p with
  | Ok t -> t
  | Error ds -> raise (Diag.Fatal (List.hd ds))

let array_info t name =
  List.find (fun a -> String.equal a.decl.name name) t.arrays
