(* The reference trace generator: the direct AST walk that resolves
   iterators by name on every access.  [Lang.Interp] stages the same
   semantics into closures; this copy is kept only as the oracle the
   staged generator is checked against (test_interp.ml), so it favours
   being obviously right over being fast. *)

module Ast = Lang.Ast
module Diag = Lang.Diag
module Span = Lang.Span

(* Growable int buffer: per-thread access stream under construction. *)
type buf = { mutable data : int array; mutable len : int }

let buf_make () = { data = Array.make 1024 0; len = 0 }

let buf_push b x =
  if b.len = Array.length b.data then begin
    let d = Array.make (2 * b.len) 0 in
    Array.blit b.data 0 d 0 b.len;
    b.data <- d
  end;
  b.data.(b.len) <- x;
  b.len <- b.len + 1

let buf_contents b = Array.sub b.data 0 b.len

(* Contiguous chunk [index] of [0..n-1] split into [chunks] (OpenMP static):
   returns (start, stop) inclusive; empty iff start > stop. *)
let chunk_bounds n chunks index =
  let base = n / chunks and rem = n mod chunks in
  let start = (index * base) + min index rem in
  let len = base + if index < rem then 1 else 0 in
  (start, start + len - 1)

(* [x op y], or the run-time zero divisor at [span] *)
let divide span op x y =
  if y = 0 then
    raise (Diag.Fatal (Diag.error ~code:"I002" span "zero divisor at run time"))
  else op x y

let trace_gen ~threads ?(threads_per_core = 1) ~addr_of
    ?(index_lookup = fun _ _ -> 0) ?site_of (p : Ast.program) =
  if threads <= 0 || threads_per_core <= 0 || threads mod threads_per_core <> 0
  then invalid_arg "Interp.trace: bad thread configuration";
  let tagging = site_of <> None in
  let site_id =
    match site_of with Some f -> f | None -> fun (_ : Ast.ref_) -> -1
  in
  let index_arrays =
    List.filter_map
      (fun (d : Ast.decl) -> if d.index_array then Some d.name else None)
      p.decls
  in
  let is_index a = List.exists (String.equal a) index_arrays in
  let env : (string, int) Hashtbl.t = Hashtbl.create 16 in
  List.iter (fun (n, v) -> Hashtbl.replace env n v) p.params;
  let run_phase nest =
    let bufs = Array.init threads (fun _ -> buf_make ()) in
    (* side-band site streams, index-parallel to the access streams: the
       access encoding's high bits belong to synthetic replay addresses
       (verify's V007), so ids cannot be packed into the access int *)
    let sbufs =
      if tagging then Array.init threads (fun _ -> buf_make ()) else [||]
    in
    let emit t (r : Ast.ref_) write subs =
      let v = Array.of_list subs in
      let addr = addr_of r.array v in
      buf_push bufs.(t) ((addr lsl 1) lor if write then 1 else 0);
      if tagging then buf_push sbufs.(t) (site_id r)
    in
    (* [span]: the reference, condition or loop header a run-time zero
       divisor is reported at *)
    let rec eval t span e =
      let eval t e = eval t span e in
      match e with
      | Ast.Int n -> n
      | Ast.Var x -> (
        match Hashtbl.find_opt env x with
        | Some v -> v
        | None ->
          raise
            (Diag.Fatal
               (Diag.error ~code:"I001" Span.dummy ("unbound variable " ^ x))))
      | Ast.Neg a -> -eval t a
      | Ast.Add (a, b) -> eval t a + eval t b
      | Ast.Sub (a, b) -> eval t a - eval t b
      | Ast.Mul (a, b) -> eval t a * eval t b
      | Ast.Div (a, b) ->
        let y = eval t b in
        divide span ( / ) (eval t a) y
      | Ast.Mod (a, b) ->
        let y = eval t b in
        divide span ( mod ) (eval t a) y
      | Ast.Load r ->
        let subs = List.map (eval_sub t r) r.subs in
        emit t r false subs;
        if is_index r.array then index_lookup r.array (Array.of_list subs)
        else 0
    and eval_sub t (r : Ast.ref_) e = eval t r.ref_span e in
    (* [who]: None = outside any parallel region (statements run once, on
       thread 0; a parfor fans out); Some t = inside thread t's chunk. *)
    let rec exec who stmt =
      match stmt with
      | Ast.If c ->
        let t = Option.value who ~default:0 in
        let taken =
          let l = eval t c.Ast.cond_span c.Ast.lhs
          and r = eval t c.Ast.cond_span c.Ast.rhs in
          match c.Ast.op with
          | Ast.Lt -> l < r
          | Ast.Le -> l <= r
          | Ast.Gt -> l > r
          | Ast.Ge -> l >= r
          | Ast.Eq -> l = r
          | Ast.Ne -> l <> r
        in
        List.iter (exec who) (if taken then c.Ast.then_ else c.Ast.else_)
      | Ast.Assign (lhs, rhs) ->
        let t = Option.value who ~default:0 in
        ignore (eval t lhs.ref_span rhs);
        let subs = List.map (eval_sub t lhs) lhs.subs in
        emit t lhs true subs
      | Ast.Loop l -> (
        let lo = eval (Option.value who ~default:0) l.loop_span l.lo
        and hi = eval (Option.value who ~default:0) l.loop_span l.hi in
        match (l.parallel, who) with
        | true, None ->
          (* fan out: split [lo..hi] per core, then per thread of a core *)
          let n = max 0 (hi - lo + 1) in
          let cores = threads / threads_per_core in
          for t = 0 to threads - 1 do
            let core = t / threads_per_core and sub = t mod threads_per_core in
            let cst, cen = chunk_bounds n cores core in
            let w = max 0 (cen - cst + 1) in
            let sst, sen = chunk_bounds w threads_per_core sub in
            for x = lo + cst + sst to lo + cst + sen do
              Hashtbl.replace env l.index x;
              List.iter (exec (Some t)) l.body
            done;
            Hashtbl.remove env l.index
          done
        | _ ->
          (* sequential execution (nested parfor runs on its owner) *)
          for x = lo to hi do
            Hashtbl.replace env l.index x;
            List.iter (exec who) l.body
          done;
          Hashtbl.remove env l.index)
    in
    exec None nest;
    ( Array.map buf_contents bufs,
      if tagging then Array.map buf_contents sbufs else [||] )
  in
  List.map run_phase p.nests
