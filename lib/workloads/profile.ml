module Ast = Lang.Ast

let target_samples = 1000.

let rec contains_load = function
  | Ast.Load _ -> true
  | Ast.Int _ | Ast.Var _ -> false
  | Ast.Neg a -> contains_load a
  | Ast.Add (a, b) | Ast.Sub (a, b) | Ast.Mul (a, b) | Ast.Div (a, b)
  | Ast.Mod (a, b) ->
    contains_load a || contains_load b

let samples app (analysis : Lang.Analysis.t) array =
  let prog = analysis.Lang.Analysis.program in
  let env : (string, int) Hashtbl.t = Hashtbl.create 16 in
  List.iter (fun (n, v) -> Hashtbl.replace env n v) analysis.Lang.Analysis.params;
  let index_arrays =
    List.filter_map
      (fun (d : Ast.decl) -> if d.Ast.index_array then Some d.Ast.name else None)
      prog.Ast.decls
  in
  let read array subs =
    if List.exists (String.equal array) index_arrays then
      App.index_lookup app array (Array.of_list subs)
    else 0
  in
  let eval e =
    match Ast.eval ~read (Hashtbl.find_opt env) e with
    | Ok v -> v
    | Error _ ->
      invalid_arg "Profile.samples: a bound or subscript does not evaluate"
  in
  let out = ref [] in
  (* indexed references to [array] inside an expression *)
  let rec refs_in = function
    | Ast.Int _ | Ast.Var _ -> []
    | Ast.Neg a -> refs_in a
    | Ast.Add (a, b) | Ast.Sub (a, b) | Ast.Mul (a, b) | Ast.Div (a, b)
    | Ast.Mod (a, b) ->
      refs_in a @ refs_in b
    | Ast.Load r ->
      let nested = List.concat_map refs_in r.Ast.subs in
      if String.equal r.Ast.array array && List.exists contains_load r.Ast.subs
      then r :: nested
      else nested
  in
  let sample_nest iters refs =
    let m = max 1 (List.length iters) in
    let per_dim =
      int_of_float (ceil (target_samples ** (1. /. float_of_int m)))
    in
    let rec go = function
      | [] ->
        List.iter
          (fun (r : Ast.ref_) ->
            let ivec =
              Array.of_list
                (List.map (fun (l : Ast.loop) -> Hashtbl.find env l.Ast.index) iters)
            in
            let dvec = Array.of_list (List.map eval r.Ast.subs) in
            out := (ivec, dvec) :: !out)
          refs
      | (l : Ast.loop) :: rest ->
        let lo = eval l.Ast.lo and hi = eval l.Ast.hi in
        let trip = hi - lo + 1 in
        if trip > 0 then begin
          let stride = max 1 (trip / per_dim) in
          let x = ref lo in
          while !x <= hi do
            Hashtbl.replace env l.Ast.index !x;
            go rest;
            x := !x + stride
          done;
          Hashtbl.remove env l.Ast.index
        end
    in
    go iters
  in
  let rec walk iters = function
    | Ast.Loop l -> List.iter (walk (iters @ [ l ])) l.Ast.body
    | Ast.If c ->
      List.iter (walk iters) c.Ast.then_;
      List.iter (walk iters) c.Ast.else_
    | Ast.Assign (lhs, rhs) ->
      let refs =
        (if
           String.equal lhs.Ast.array array
           && List.exists contains_load lhs.Ast.subs
         then [ lhs ]
         else [])
        @ List.concat_map refs_in lhs.Ast.subs
        @ refs_in rhs
      in
      if refs <> [] then sample_nest iters refs
  in
  List.iter (walk []) prog.Ast.nests;
  !out

let for_transform = samples
