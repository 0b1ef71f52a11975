module Vec = Affine.Vec
module Matrix = Affine.Matrix
module Ast = Lang.Ast
module Diag = Lang.Diag
module Span = Lang.Span
module Analysis = Lang.Analysis

let decl_span (d : Transform.decision) =
  d.Transform.info.Analysis.decl.Ast.decl_span

let name_of (d : Transform.decision) =
  d.Transform.info.Analysis.decl.Ast.name

(* V001: the layout transformation must be a bijection of the data space,
   i.e. |det U| = 1. *)
let check_unimodular diags (d : Transform.decision) =
  if d.Transform.optimized then begin
    let u = d.Transform.layout.Layout.u in
    if not (Matrix.is_unimodular u) then
      diags :=
        Diag.error ~code:"V001" (decl_span d)
          (Printf.sprintf "layout matrix for %s is not unimodular (det = %d)"
             (name_of d) (Matrix.det u))
        :: !diags
  end

(* V002: re-derive what the solver claimed.  The solution row g must be
   row v of U, must solve the system of every reference counted as
   satisfied, and the satisfied weight must add up. *)
let check_solution diags (s : Transform.solved) =
  match s.Transform.s_outcome with
  | Transform.Kept _ -> ()
  | Transform.Solved sol ->
    let span = s.Transform.s_info.Analysis.decl.Ast.decl_span in
    let name = s.Transform.s_info.Analysis.decl.Ast.name in
    let g = sol.Data_to_core.g in
    if Matrix.row sol.Data_to_core.u_matrix Transform.v_dim <> g then
      diags :=
        Diag.error ~code:"V002" span
          (Printf.sprintf
             "row %d of %s's layout matrix is not the data-partition vector g"
             Transform.v_dim name)
        :: !diags;
    let recomputed =
      List.fold_left
        (fun acc (r : Data_to_core.weighted_ref) ->
          if Data_to_core.satisfies g r.Data_to_core.access ~u:r.Data_to_core.u
          then acc + r.Data_to_core.weight
          else acc)
        0 s.Transform.s_refs
    in
    if recomputed <> sol.Data_to_core.satisfied_weight then
      diags :=
        Diag.error ~code:"V002" span
          (Printf.sprintf
             "g for %s satisfies reference weight %d, solver claimed %d"
             name recomputed sol.Data_to_core.satisfied_weight)
        :: !diags

let rec perm_tables_of_expr acc = function
  | Layout.D _ -> acc
  | Layout.Div (e, _) | Layout.Mod (e, _) -> perm_tables_of_expr acc e
  | Layout.Perm (e, t) -> perm_tables_of_expr (t :: acc) e

let perm_tables (l : Layout.t) =
  Array.fold_left
    (fun acc (od : Layout.out_dim) -> perm_tables_of_expr acc od.Layout.expr)
    [] l.Layout.out

let is_permutation t =
  let n = Array.length t in
  let seen = Array.make n false in
  Array.for_all
    (fun v ->
      v >= 0 && v < n
      &&
      if seen.(v) then false
      else begin
        seen.(v) <- true;
        true
      end)
    t

(* V003: every home table must be a permutation (the δ-skip relocates
   blocks, it must not alias them), and all layouts must agree on the
   table because the rewrite emits a single __home array. *)
let check_home_tables diags decisions =
  let first = ref None in
  List.iter
    (fun (d : Transform.decision) ->
      List.iter
        (fun t ->
          if not (is_permutation t) then
            diags :=
              Diag.error ~code:"V003" (decl_span d)
                (Printf.sprintf "home table for %s is not a permutation of 0..%d"
                   (name_of d)
                   (Array.length t - 1))
              :: !diags;
          match !first with
          | None -> first := Some (name_of d, t)
          | Some (first_name, t0) ->
            if t <> t0 then
              diags :=
                Diag.error ~code:"V003" (decl_span d)
                  (Printf.sprintf
                     "home table for %s differs from %s's; a single __home \
                      array cannot serve both"
                     (name_of d) first_name)
                :: !diags)
        (perm_tables d.Transform.layout))
    decisions

(* Sampled original index vectors: all corners plus the center point. *)
let sample_indices extents =
  let rank = Array.length extents in
  if rank = 0 || Array.exists (fun e -> e <= 0) extents then []
  else begin
    let corners = ref [] in
    let n = 1 lsl rank in
    for mask = 0 to n - 1 do
      let v =
        Array.init rank (fun i ->
            if mask land (1 lsl i) <> 0 then extents.(i) - 1 else 0)
      in
      corners := v :: !corners
    done;
    let center = Array.map (fun e -> e / 2) extents in
    (* dedupe (corners collapse when an extent is 1) *)
    List.sort_uniq compare (center :: !corners)
  end

(* V004: sampled indices must land inside the (padded) allocation, and
   distinct indices at distinct offsets — offset_of_index is injective. *)
let check_layout_bounds diags (d : Transform.decision) =
  if d.Transform.optimized then begin
    let l = d.Transform.layout in
    let size = Layout.size_elems l in
    let seen = Hashtbl.create 32 in
    List.iter
      (fun a ->
        match Layout.offset_of_index l a with
        | off ->
          if off < 0 || off >= size then
            diags :=
              Diag.error ~code:"V004" (decl_span d)
                (Printf.sprintf
                   "%s[%s] maps to offset %d outside the %d-element allocation"
                   (name_of d)
                   (String.concat ","
                      (Array.to_list (Array.map string_of_int a)))
                   off size)
              :: !diags
          else begin
            match Hashtbl.find_opt seen off with
            | Some b when b <> a ->
              diags :=
                Diag.error ~code:"V004" (decl_span d)
                  (Printf.sprintf
                     "layout for %s is not injective: two sampled indices \
                      share offset %d"
                     (name_of d) off)
                :: !diags
            | _ -> Hashtbl.replace seen off a
          end
        | exception Invalid_argument _ ->
          diags :=
            Diag.error ~code:"V004" (decl_span d)
              (Printf.sprintf "layout for %s rejects an in-bounds index"
                 (name_of d))
            :: !diags)
      (sample_indices l.Layout.orig_extents)
  end

(* V005: threads and mesh nodes must be in bijection under the cluster
   enumeration (footnote 5) — the layout's chunk arithmetic relies on it. *)
let check_cluster diags (cfg : Customize.config) =
  let cl = cfg.Customize.cluster and topo = cfg.Customize.topo in
  let n = Cluster.num_cores cl in
  let ok = ref true in
  (try
     for t = 0 to n - 1 do
       let node = Cluster.node_of_thread cl topo t in
       if Cluster.thread_of_node cl topo node <> t then ok := false
     done
   with _ -> ok := false);
  if not !ok then
    diags :=
      Diag.error ~code:"V005" Span.dummy
        (Printf.sprintf "cluster map %s is not a thread/node bijection on %dx%d"
           cl.Cluster.name cl.Cluster.width cl.Cluster.height)
      :: !diags

(* --- V006: sampled semantic equivalence ------------------------------- *)

(* A sample whose subscripts or bounds do not evaluate (an unbound name,
   a zero divisor) is skipped: it names no index to compare. *)
exception Skip

(* Evaluate an expression under an environment of iterator/parameter
   bindings.  Loads resolve through [read] — index-array values are
   not modelled, so both sides resolve them identically (to 0), which
   still exercises all the affine arithmetic around them. *)
let value ~read env e =
  match Ast.eval ~read (fun x -> List.assoc_opt x env) e with
  | Ok v -> v
  | Error _ -> raise Skip

exception Home_index_out_of_range of int

let read_orig _array _subs = 0

let read_trans ~home array subs =
  if String.equal array "__home" then begin
    match (home, subs) with
    | Some t, [ x ] ->
      if x < 0 || x >= Array.length t then raise (Home_index_out_of_range x)
      else t.(x)
    | _ -> 0
  end
  else 0

(* What V006 and V007 read from the report: each array's decision and
   the one __home table the rewrite emits, if any layout has one. *)
type report_ctx = {
  decision_of : string -> Transform.decision option;
  home : int array option;
}

let report_ctx (report_ : Transform.report) =
  let decisions = report_.Transform.decisions in
  {
    decision_of =
      (fun name ->
        List.find_opt
          (fun (d : Transform.decision) -> String.equal (name_of d) name)
          decisions);
    home =
      List.find_map
        (fun (d : Transform.decision) ->
          match perm_tables d.Transform.layout with t :: _ -> Some t | [] -> None)
        decisions;
  }

type equiv_ctx = {
  diags : Diag.t list ref;
  rc : report_ctx;
  mutable reported : Span.t list;  (* one diagnostic per source reference *)
}

let report ctx span msg =
  if not (List.mem span ctx.reported) then begin
    ctx.reported <- span :: ctx.reported;
    ctx.diags := Diag.error ~code:"V006" span msg :: !(ctx.diags)
  end

(* Check one statement-level reference pair at one sampled iteration:
   the transformed subscripts, flattened row-major over the transformed
   extents, must equal what offset_of_index predicts for the original
   index vector.  Once the original subscripts evaluate, transformed ones
   that do not are a disagreement. *)
let check_ref ctx env (ro : Ast.ref_) (rt : Ast.ref_) =
  let trans () =
    List.map (value ~read:(read_trans ~home:ctx.rc.home) env) rt.Ast.subs
  in
  match Array.of_list (List.map (value ~read:read_orig env) ro.Ast.subs) with
  | exception Skip -> ()
  | a -> (
    match ctx.rc.decision_of ro.Ast.array with
    | Some d when d.Transform.optimized ->
      let l = d.Transform.layout in
      let in_bounds =
        Array.length a = Array.length l.Layout.orig_extents
        && Array.for_all2 (fun v e -> v >= 0 && v < e) a l.Layout.orig_extents
      in
      if in_bounds then begin
        match trans () with
        | subs' ->
          let expected = Layout.offset_of_index l a in
          let actual =
            List.fold_left2
              (fun acc v (od : Layout.out_dim) -> (acc * od.Layout.extent) + v)
              0 subs'
              (Array.to_list l.Layout.out)
          in
          if actual <> expected then
            report ctx ro.Ast.ref_span
              (Printf.sprintf
                 "transformed reference to %s disagrees with its layout at \
                  index [%s]: subscripts give offset %d, layout says %d"
                 ro.Ast.array
                 (String.concat "," (Array.to_list (Array.map string_of_int a)))
                 actual expected)
        | exception Home_index_out_of_range x ->
          report ctx ro.Ast.ref_span
            (Printf.sprintf "reference to %s indexes __home out of range (%d)"
               ro.Ast.array x)
        | exception Invalid_argument _ ->
          report ctx ro.Ast.ref_span
            (Printf.sprintf
               "transformed reference to %s has %d subscripts, layout has %d \
                dimensions"
               ro.Ast.array
               (List.length rt.Ast.subs)
               (Array.length l.Layout.out))
        | exception Skip ->
          report ctx ro.Ast.ref_span
            (Printf.sprintf "transformed reference to %s does not evaluate"
               ro.Ast.array)
      end
    | _ ->
      (* untransformed array: subscripts must evaluate identically *)
      if (match trans () with b -> Array.to_list a <> b | exception Skip -> true)
      then
        report ctx ro.Ast.ref_span
          (Printf.sprintf "reference to untransformed array %s was rewritten"
             ro.Ast.array))

let structure_mismatch ctx span =
  report ctx span "transformed program structure diverges from the original"

(* Walk original and transformed expressions in lockstep; references are
   checked where the trees align.  Subscript-internal loads (index
   arrays) are not paired — both evaluators resolve them to 0. *)
let rec walk_expr ctx env o t =
  match (o, t) with
  | Ast.Int _, Ast.Int _ | Ast.Var _, Ast.Var _ -> ()
  | Ast.Neg a, Ast.Neg a' -> walk_expr ctx env a a'
  | Ast.Add (a, b), Ast.Add (a', b')
  | Ast.Sub (a, b), Ast.Sub (a', b')
  | Ast.Mul (a, b), Ast.Mul (a', b')
  | Ast.Div (a, b), Ast.Div (a', b')
  | Ast.Mod (a, b), Ast.Mod (a', b') ->
    walk_expr ctx env a a';
    walk_expr ctx env b b'
  | Ast.Load ro, Ast.Load rt -> check_ref ctx env ro rt
  | _ -> ()

(* Three sampled values per loop level: first, middle, last iteration. *)
let loop_samples lo hi =
  if lo > hi then []
  else List.sort_uniq compare [ lo; (lo + hi) / 2; hi ]

let rec walk_stmt ctx env o t =
  match (o, t) with
  | Ast.Assign (ro, eo), Ast.Assign (rt, et) ->
    check_ref ctx env ro rt;
    walk_expr ctx env eo et
  | Ast.Loop lo_, Ast.Loop lt ->
    if lo_.Ast.index <> lt.Ast.index then
      structure_mismatch ctx lo_.Ast.loop_span
    else begin
      let samples =
        let bound = value ~read:read_orig env in
        match (bound lo_.Ast.lo, bound lo_.Ast.hi) with
        | lo, hi -> loop_samples lo hi
        | exception Skip -> []
      in
      List.iter
        (fun v ->
          let env = (lo_.Ast.index, v) :: env in
          walk_body ctx env lo_.Ast.loop_span lo_.Ast.body lt.Ast.body)
        samples
    end
  | Ast.If co, Ast.If ct ->
    walk_expr ctx env co.Ast.lhs ct.Ast.lhs;
    walk_expr ctx env co.Ast.rhs ct.Ast.rhs;
    walk_body ctx env co.Ast.cond_span co.Ast.then_ ct.Ast.then_;
    walk_body ctx env co.Ast.cond_span co.Ast.else_ ct.Ast.else_
  | (Ast.Assign _ | Ast.Loop _ | Ast.If _), _ ->
    structure_mismatch ctx (Ast.span_of_stmt o)

and walk_body ctx env span o t =
  if List.length o <> List.length t then structure_mismatch ctx span
  else List.iter2 (walk_stmt ctx env) o t

let check_equivalence diags report_ (original : Ast.program)
    (transformed : Ast.program) =
  let ctx = { diags; rc = report_ctx report_; reported = [] } in
  let env = original.Ast.params in
  if List.length original.Ast.nests <> List.length transformed.Ast.nests then
    structure_mismatch ctx Span.dummy
  else
    List.iter2 (walk_stmt ctx env) original.Ast.nests transformed.Ast.nests

(* --- V007: emitted-C access replay ------------------------------------ *)

(* The C back end flattens every array row-major over the transformed
   declaration's (padded) extents.  Replay that addressing convention on
   the transformed program and compare, access by access and thread by
   thread, with the trace the compiler intends: the original program under
   [Layout.addr_map].  V006 checks the subscript algebra at sampled
   points; this replays whole nests through the interpreter, so the
   parallel chunking, loop structure and write bits are compared too. *)

(* A synthetic address space: array id in the high bits, flat offset in
   the low bits, so both traces agree on a name <-> base correspondence
   without modelling real allocation. *)
let id_shift = 40

(* an array whose extents do not evaluate is addressed at its base *)
let decl_extents (p : Ast.program) =
  List.filter_map
    (fun (d : Ast.decl) ->
      match List.map (value ~read:read_orig p.Ast.params) d.Ast.extents with
      | e -> Some (d.Ast.name, Array.of_list e)
      | exception Skip -> None)
    p.Ast.decls

(* Cap on element-wise comparison per thread per nest; stream lengths are
   always compared in full, so only this prefix is ever stored. *)
let replay_cap = 1 lsl 16

let check_codegen ~report:(report_ : Transform.report)
    ~(original : Ast.program) ~(transformed : Ast.program) =
  let { decision_of; home } = report_ctx report_ in
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
  let row_major name extents =
    match List.assoc_opt name extents with
    | Some e ->
      Layout.addr_map ~base:(base name)
        (Layout.identity ~array:name ~extents:e ~elem_bytes:1)
    | None -> Lang.Interp.Fn (fun _ -> base name)
  in
  (* what the emitted C computes: row-major over the padded declaration *)
  let addr_c name = row_major name trans_extents in
  (* what the compiler intends: the customized layout's offset, staged
     once per array *)
  let intended = Hashtbl.create 16 in
  let addr_intended name =
    match Hashtbl.find_opt intended name with
    | Some m -> m
    | None ->
      let m =
        match decision_of name with
        | Some d when d.Transform.optimized ->
          Layout.addr_map ~base:(base name) d.Transform.layout
        | _ -> row_major name orig_extents
      in
      Hashtbl.replace intended name m;
      m
  in
  let is_home name = String.equal name "__home" in
  let lookup_home name idx =
    if is_home name then
      match (home, idx) with
      | Some t, [| x |] when x >= 0 && x < Array.length t -> t.(x)
      | _ -> 0
    else 0
  in
  (* a handful of threads exercises the parfor chunk arithmetic; the
     trace length itself does not depend on the thread count *)
  let threads = 4 in
  let nest_span k =
    match List.nth_opt original.Ast.nests k with
    | Some s -> Ast.span_of_stmt s
    | None -> Span.dummy
  in
  let trace = Lang.Interp.trace_capped ~threads ~cap:replay_cap in
  (* the first violation of thread [t] in nest [k]: its length, then its
     stored prefix; equal counts mean equally long prefixes *)
  let violation k t (sw, nw) (sg, ng) =
    if nw <> ng then
      Some
        (Printf.sprintf
           "emitted C replays %d accesses on thread %d of nest %d, the \
            compiler's layout implies %d"
           ng t k nw)
    else
      let dir a = if Lang.Interp.is_write a then "write" else "read" in
      let rec at i =
        if i >= Array.length sw then None
        else if sw.(i) <> sg.(i) then
          Some
            (Printf.sprintf
               "emitted C diverges from the chosen layout at access %d of \
                thread %d, nest %d: C performs a %s of %s, the layout \
                implies a %s of %s"
               i t k (dir sg.(i))
               (name_of_addr (Lang.Interp.addr_of_access sg.(i)))
               (dir sw.(i))
               (name_of_addr (Lang.Interp.addr_of_access sw.(i))))
        else at (i + 1)
      in
      at 0
  in
  let rec first k = function
    | [] -> []
    | ((sw, nw), (sg, ng)) :: nests ->
      let rec thread t =
        if t = threads then first (k + 1) nests
        else
          match violation k t (sw.(t), nw.(t)) (sg.(t), ng.(t)) with
          | Some msg -> [ Diag.error ~code:"V007" (nest_span k) msg ]
          | None -> thread (t + 1)
      in
      thread 0
  in
  (* the emitted side is traced first: when both sides fail, its failure
     is the one reported *)
  match
    let got =
      trace ~exclude:is_home ~addr_of:addr_c ~index_lookup:lookup_home
        transformed
    in
    (trace ~addr_of:addr_intended original, got)
  with
  | exception Diag.Fatal d -> [ d ]
  | exception e ->
    [
      Diag.error ~code:"V007" Span.dummy
        ("codegen replay failed to trace: " ^ Printexc.to_string e);
    ]
  | want, got ->
    if List.length want <> List.length got then
      [
        Diag.error ~code:"V007" Span.dummy
          (Printf.sprintf
             "emitted program has %d top-level nests, original has %d"
             (List.length got) (List.length want));
      ]
    else first 0 (List.combine want got)

let run ~cfg ~solved ~report ~original ~transformed =
  let diags = ref [] in
  check_cluster diags cfg;
  List.iter (check_solution diags) solved;
  List.iter
    (fun d ->
      check_unimodular diags d;
      check_layout_bounds diags d)
    report.Transform.decisions;
  check_home_tables diags report.Transform.decisions;
  check_equivalence diags report original transformed;
  List.rev !diags
