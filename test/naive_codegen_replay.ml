(* The reference V007 replay: the emitted-C access check as it was
   before the replay traced capped streams.  It traces both programs in
   full, tags the transformed side's [__home] reads with a marker address,
   filters them out of every stream and only then compares.  [Core.Verify]
   computes only the prefix it compares; this copy is kept only as the
   oracle it is checked against (test_codegen_replay.ml), so it favours
   being obviously right over being fast.  The helpers below are copies of
   [Core.Verify]'s private ones. *)

module Ast = Lang.Ast
module Diag = Lang.Diag
module Span = Lang.Span
module Transform = Core.Transform
module Layout = Core.Layout
module Analysis = Lang.Analysis

let name_of (d : Transform.decision) =
  d.Transform.info.Analysis.decl.Ast.name

let rec perm_tables_of_expr acc = function
  | Layout.D _ -> acc
  | Layout.Div (e, _) | Layout.Mod (e, _) -> perm_tables_of_expr acc e
  | Layout.Perm (e, t) -> perm_tables_of_expr (t :: acc) e

let perm_tables (l : Layout.t) =
  Array.fold_left
    (fun acc (od : Layout.out_dim) -> perm_tables_of_expr acc od.Layout.expr)
    [] l.Layout.out

(* Evaluate an expression under an environment of iterator/parameter
   bindings.  Loads resolve through [resolve] — index-array values are
   not modelled, so both sides resolve them identically (to 0), which
   still exercises all the affine arithmetic around them. *)
let rec eval_expr ~resolve env = function
  | Ast.Int n -> n
  | Ast.Var x -> ( match List.assoc_opt x env with Some v -> v | None -> 0)
  | Ast.Neg a -> -eval_expr ~resolve env a
  | Ast.Add (a, b) -> eval_expr ~resolve env a + eval_expr ~resolve env b
  | Ast.Sub (a, b) -> eval_expr ~resolve env a - eval_expr ~resolve env b
  | Ast.Mul (a, b) -> eval_expr ~resolve env a * eval_expr ~resolve env b
  | Ast.Div (a, b) ->
    let d = eval_expr ~resolve env b in
    if d = 0 then 0 else eval_expr ~resolve env a / d
  | Ast.Mod (a, b) ->
    let d = eval_expr ~resolve env b in
    if d = 0 then 0 else eval_expr ~resolve env a mod d
  | Ast.Load r ->
    resolve r.Ast.array (List.map (eval_expr ~resolve env) r.Ast.subs)

let resolve_orig _array _subs = 0

(* The C back end flattens every array row-major over the transformed
   declaration's (padded) extents.  Replay that addressing convention on
   the transformed program and compare, access by access and thread by
   thread, with the trace the compiler intends: the original program under
   [Layout.offset_of_index].  V006 checks the subscript algebra at sampled
   points; this replays whole nests through the interpreter, so the
   parallel chunking, loop structure and write bits are compared too. *)

(* A synthetic address space: array id in the high bits, flat offset in
   the low bits, so both traces agree on a name <-> base correspondence
   without modelling real allocation. *)
let id_shift = 40

(* [__home] reads appear only in the transformed trace (the rewrite
   introduces the lookup); tag them so they can be dropped before the
   comparison. *)
let home_marker = 1 lsl 60

let row_major extents idx =
  let off = ref 0 in
  Array.iteri
    (fun i e ->
      off := (!off * e) + if i < Array.length idx then idx.(i) else 0)
    extents;
  !off

let decl_extents (p : Ast.program) =
  List.map
    (fun (d : Ast.decl) ->
      ( d.Ast.name,
        Array.of_list
          (List.map
             (eval_expr ~resolve:resolve_orig p.Ast.params)
             d.Ast.extents) ))
    p.Ast.decls

(* Cap on element-wise comparison per thread per nest; stream lengths are
   always compared in full. *)
let replay_cap = 1 lsl 16

let check_codegen ~report:(report_ : Transform.report)
    ~(original : Ast.program) ~(transformed : Ast.program) =
  let decision_of name =
    List.find_opt
      (fun (d : Transform.decision) -> String.equal (name_of d) name)
      report_.Transform.decisions
  in
  let home =
    List.fold_left
      (fun acc (d : Transform.decision) ->
        match acc with
        | Some _ -> acc
        | None -> (
          match perm_tables d.Transform.layout with t :: _ -> Some t | [] -> acc))
      None report_.Transform.decisions
  in
  let ids = Hashtbl.create 16 in
  List.iteri
    (fun i (d : Ast.decl) -> Hashtbl.replace ids d.Ast.name i)
    transformed.Ast.decls;
  let base name =
    (match Hashtbl.find_opt ids name with Some i -> i | None -> Hashtbl.length ids)
    lsl id_shift
  in
  let name_of_addr a =
    let id = a lsr id_shift in
    match
      List.find_opt
        (fun (d : Ast.decl) -> Hashtbl.find_opt ids d.Ast.name = Some id)
        transformed.Ast.decls
    with
    | Some d -> Printf.sprintf "%s+%d" d.Ast.name (a land ((1 lsl id_shift) - 1))
    | None -> string_of_int a
  in
  let trans_extents = decl_extents transformed in
  let orig_extents = decl_extents original in
  (* what the emitted C computes: row-major over the padded declaration *)
  let addr_c name =
    if String.equal name "__home" then fun _ -> home_marker
    else
      let b = base name in
      match List.assoc_opt name trans_extents with
      | Some e -> fun idx -> b + row_major e idx
      | None -> fun _ -> b
  in
  (* what the compiler intends: the customized layout's offset *)
  let addr_intended name =
    let b = base name in
    match decision_of name with
    | Some d when d.Transform.optimized ->
      let offset = Lang.Interp.apply (Layout.addr_map d.Transform.layout) in
      fun idx -> b + offset idx
    | _ -> (
      match List.assoc_opt name orig_extents with
      | Some e -> fun idx -> b + row_major e idx
      | None -> fun _ -> b)
  in
  let lookup_home name idx =
    if String.equal name "__home" then
      match (home, idx) with
      | Some t, [| x |] when x >= 0 && x < Array.length t -> t.(x)
      | _ -> 0
    else 0
  in
  (* a handful of threads exercises the parfor chunk arithmetic; the
     trace length itself does not depend on the thread count *)
  let threads = 4 in
  let diags = ref [] in
  let nest_span k =
    match List.nth_opt original.Ast.nests k with
    | Some s -> Ast.span_of_stmt s
    | None -> Span.dummy
  in
  let not_home a = Lang.Interp.addr_of_access a lsr 1 <> home_marker lsr 1 in
  (match
     ( Lang.Interp.trace ~threads
         ~addr_of:(fun a -> Lang.Interp.Fn (addr_intended a))
         original,
       Lang.Interp.trace ~threads
         ~addr_of:(fun a -> Lang.Interp.Fn (addr_c a))
         ~index_lookup:lookup_home
         transformed )
   with
  | exception Diag.Fatal d -> diags := [ d ]
  | exception e ->
    diags :=
      [
        Diag.error ~code:"V007" Span.dummy
          ("codegen replay failed to trace: " ^ Printexc.to_string e);
      ]
  | want, got ->
    if List.length want <> List.length got then
      diags :=
        [
          Diag.error ~code:"V007" Span.dummy
            (Printf.sprintf
               "emitted program has %d top-level nests, original has %d"
               (List.length got) (List.length want));
        ]
    else
      List.iteri
        (fun k (pw, pg) ->
          if !diags = [] then begin
            let pg =
              Array.map
                (fun s -> Array.of_seq (Seq.filter not_home (Array.to_seq s)))
                pg
            in
            Array.iteri
              (fun t sw ->
                if !diags = [] then begin
                  let sg = pg.(t) in
                  if Array.length sw <> Array.length sg then
                    diags :=
                      Diag.error ~code:"V007" (nest_span k)
                        (Printf.sprintf
                           "emitted C replays %d accesses on thread %d of nest \
                            %d, the compiler's layout implies %d"
                           (Array.length sg) t k (Array.length sw))
                      :: !diags
                  else begin
                    let n = min (Array.length sw) replay_cap in
                    let i = ref 0 in
                    while !i < n && !diags = [] do
                      if sw.(!i) <> sg.(!i) then begin
                        let dir a =
                          if Lang.Interp.is_write a then "write" else "read"
                        in
                        diags :=
                          Diag.error ~code:"V007" (nest_span k)
                            (Printf.sprintf
                               "emitted C diverges from the chosen layout at \
                                access %d of thread %d, nest %d: C performs a \
                                %s of %s, the layout implies a %s of %s"
                               !i t k
                               (dir sg.(!i))
                               (name_of_addr (Lang.Interp.addr_of_access sg.(!i)))
                               (dir sw.(!i))
                               (name_of_addr (Lang.Interp.addr_of_access sw.(!i))))
                          :: !diags
                      end;
                      incr i
                    done
                  end
                end)
              pw
          end)
        (List.combine want got));
  List.rev !diags
