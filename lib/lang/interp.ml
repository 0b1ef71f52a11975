type access = int

let addr_of_access a = a lsr 1

let is_write a = a land 1 = 1

type phase = access array array

(* Growable int buffer: per-thread access stream under construction.
   [dropped] counts the accesses past the caller's storage cap. *)
type buf = {
  mutable data : int array;
  mutable len : int;
  mutable dropped : int;
}

let buf_make () = { data = Array.make 1024 0; len = 0; dropped = 0 }

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

(* Loop nesting depth of a statement list: loop indices take one slot
   per depth after the parameters' slots. *)
let rec depth ss =
  List.fold_left
    (fun d -> function
      | Ast.Assign _ -> d
      | Ast.Loop l -> max d (1 + depth l.body)
      | Ast.If c -> max d (max (depth c.then_) (depth c.else_)))
    0 ss

(* What the staged code writes to: the current phase's buffers and the
   running thread's pair.  Outside a parfor the running thread is 0. *)
type sink = {
  mutable bufs : buf array;
  mutable sbufs : buf array;
  mutable cur : buf;
  mutable scur : buf;
}

let unbound x () =
  raise
    (Diag.Fatal (Diag.error ~code:"I001" Span.dummy ("unbound variable " ^ x)))

(* The program is staged once into closures over an integer environment
   (parameters first, then one slot per loop depth), then each top-level
   nest runs as one phase.  Evaluation order is the one the trace
   encodes: a binary operator runs its right operand first, an [if] its
   lhs first, an assignment its rhs before the lhs subscripts, and
   subscripts run left to right.  An integer literal emits nothing, so a
   constant operand is folded into its operator's closure without moving
   any access.  Each thread stores at most [cap] accesses and counts the
   rest; a reference to an [exclude]d array emits nothing at all. *)
let trace_gen ~threads ?(threads_per_core = 1) ?(cap = max_int)
    ?(exclude = fun _ -> false) ~addr_of ?(index_lookup = fun _ _ -> 0) ?site_of
    (p : Ast.program) =
  if threads <= 0 || threads_per_core <= 0 || threads mod threads_per_core <> 0
  then invalid_arg "Interp.trace: bad thread configuration";
  let tagging = site_of <> None in
  let site_id =
    match site_of with Some f -> f | None -> fun (_ : Ast.ref_) -> -1
  in
  let is_index a =
    List.exists
      (fun (d : Ast.decl) -> d.index_array && String.equal d.name a)
      p.decls
  in
  let nparams = List.length p.params in
  let env = Array.make (nparams + depth p.nests) 0 in
  List.iteri (fun i (_, v) -> env.(i) <- v) p.params;
  (* innermost binding first; a repeated parameter name keeps its last
     value *)
  let params = List.rev (List.mapi (fun i (n, _) -> (n, i)) p.params) in
  let none = buf_make () in
  let sink = { bufs = [||]; sbufs = [||]; cur = none; scur = none } in
  let set_thread t =
    sink.cur <- sink.bufs.(t);
    if tagging then sink.scur <- sink.sbufs.(t)
  in
  let rec expr scope e : unit -> int =
    match e with
    | Ast.Int n -> fun () -> n
    | Ast.Add (a, Ast.Int k) ->
      let a = expr scope a in
      fun () -> a () + k
    | Ast.Sub (a, Ast.Int k) ->
      let a = expr scope a in
      fun () -> a () - k
    | Ast.Mul (Ast.Int k, a) ->
      let a = expr scope a in
      fun () -> k * a ()
    | Ast.Mul (a, Ast.Int k) ->
      let a = expr scope a in
      fun () -> a () * k
    | Ast.Div (Ast.Var x, Ast.Int k) when List.mem_assoc x scope ->
      let s = List.assoc x scope in
      fun () -> env.(s) / k
    | Ast.Mod (Ast.Var x, Ast.Int k) when List.mem_assoc x scope ->
      let s = List.assoc x scope in
      fun () -> env.(s) mod k
    | Ast.Div (a, Ast.Int k) ->
      let a = expr scope a in
      fun () -> a () / k
    | Ast.Mod (a, Ast.Int k) ->
      let a = expr scope a in
      fun () -> a () mod k
    | Ast.Var x -> (
      match List.assoc_opt x scope with
      | Some s -> fun () -> env.(s)
      | None -> unbound x)
    | Ast.Neg a ->
      let a = expr scope a in
      fun () -> -a ()
    | Ast.Add (a, b) ->
      let a = expr scope a and b = expr scope b in
      fun () ->
        let y = b () in
        a () + y
    | Ast.Sub (a, b) ->
      let a = expr scope a and b = expr scope b in
      fun () ->
        let y = b () in
        a () - y
    | Ast.Mul (a, b) ->
      let a = expr scope a and b = expr scope b in
      fun () ->
        let y = b () in
        a () * y
    | Ast.Div (a, b) ->
      let a = expr scope a and b = expr scope b in
      fun () ->
        let y = b () in
        a () / y
    | Ast.Mod (a, b) ->
      let a = expr scope a and b = expr scope b in
      fun () ->
        let y = b () in
        a () mod y
    | Ast.Load r ->
      let read = reference scope r 0 in
      if is_index r.array then fun () ->
        index_lookup r.array (Array.copy (read ()))
      else fun () ->
        ignore (read ());
        0
  (* One access per run: evaluates the subscripts into the reference's
     own buffer, emits, and returns the buffer.  [addr_of r.array] is
     applied on the first stored run only. *)
  and reference scope (r : Ast.ref_) w : unit -> Affine.Vec.t =
    let subs = Array.of_list (List.map (expr scope) r.subs) in
    let n = Array.length subs in
    let v = Array.make n 0 in
    if exclude r.array then fun () ->
      for k = 0 to n - 1 do
        v.(k) <- subs.(k) ()
      done;
      v
    else begin
      let site = ref (-1) in
      let addr = ref (fun _ -> 0) in
      (addr :=
         fun v ->
           let f = addr_of r.array in
           site := site_id r;
           addr := f;
           f v);
      fun () ->
        for k = 0 to n - 1 do
          v.(k) <- subs.(k) ()
        done;
        let b = sink.cur in
        if b.len < cap then begin
          buf_push b ((!addr v lsl 1) lor w);
          if tagging then buf_push sink.scur !site
        end
        else b.dropped <- b.dropped + 1;
        v
    end
  in
  (* [inside]: statically within a parfor, where a nested parfor runs
     sequentially on its owner; outside, a parfor fans out. *)
  let rec stmt scope ~inside ~slot s : unit -> unit =
    match s with
    | Ast.If c ->
      let lhs = expr scope c.Ast.lhs and rhs = expr scope c.Ast.rhs in
      let then_ = body scope ~inside ~slot c.Ast.then_
      and else_ = body scope ~inside ~slot c.Ast.else_ in
      fun () ->
        let l = lhs () in
        let r = rhs () in
        let taken =
          match c.Ast.op with
          | Ast.Lt -> l < r
          | Ast.Le -> l <= r
          | Ast.Gt -> l > r
          | Ast.Ge -> l >= r
          | Ast.Eq -> l = r
          | Ast.Ne -> l <> r
        in
        if taken then then_ () else else_ ()
    | Ast.Assign (lhs, rhs) ->
      let rhs = expr scope rhs and lhs = reference scope lhs 1 in
      fun () ->
        ignore (rhs ());
        ignore (lhs ())
    | Ast.Loop l ->
      let lo = expr scope l.lo and hi = expr scope l.hi in
      let scope = (l.index, slot) :: scope in
      if l.parallel && not inside then begin
        let b = body scope ~inside:true ~slot:(slot + 1) l.body in
        fun () ->
          (* fan out: split [lo..hi] per core, then per thread of a core *)
          let lo = lo () in
          let hi = hi () in
          let n = max 0 (hi - lo + 1) in
          let cores = threads / threads_per_core in
          for t = 0 to threads - 1 do
            let core = t / threads_per_core and sub = t mod threads_per_core in
            let cst, cen = chunk_bounds n cores core in
            let w = max 0 (cen - cst + 1) in
            let sst, sen = chunk_bounds w threads_per_core sub in
            set_thread t;
            for x = lo + cst + sst to lo + cst + sen do
              env.(slot) <- x;
              b ()
            done
          done;
          set_thread 0
      end
      else begin
        let b = body scope ~inside ~slot:(slot + 1) l.body in
        fun () ->
          let lo = lo () in
          let hi = hi () in
          for x = lo to hi do
            env.(slot) <- x;
            b ()
          done
      end
  and body scope ~inside ~slot ss =
    let ss = Array.of_list (List.map (stmt scope ~inside ~slot) ss) in
    fun () -> Array.iter (fun s -> s ()) ss
  in
  let nests = List.map (stmt params ~inside:false ~slot:nparams) p.nests in
  List.map
    (fun run ->
      sink.bufs <- Array.init threads (fun _ -> buf_make ());
      (* side-band site streams, index-parallel to the access streams:
         the access encoding's high bits belong to synthetic replay
         addresses (verify's V007), so ids cannot be packed into the
         access int *)
      if tagging then sink.sbufs <- Array.init threads (fun _ -> buf_make ());
      set_thread 0;
      run ();
      ( Array.map buf_contents sink.bufs,
        (if tagging then Array.map buf_contents sink.sbufs else [||]),
        Array.map (fun b -> b.len + b.dropped) sink.bufs ))
    nests

let trace ~threads ?threads_per_core ~addr_of ?index_lookup p =
  List.map
    (fun (ph, _, _) -> ph)
    (trace_gen ~threads ?threads_per_core ~addr_of ?index_lookup p)

let trace_tagged ~threads ?threads_per_core ~addr_of ?index_lookup ~site_of p =
  List.map
    (fun (ph, sites, _) -> (ph, sites))
    (trace_gen ~threads ?threads_per_core ~addr_of ?index_lookup ~site_of p)

let trace_capped ~threads ~cap ?exclude ~addr_of ?index_lookup p =
  List.map
    (fun (ph, _, counts) -> (ph, counts))
    (trace_gen ~threads ~cap ?exclude ~addr_of ?index_lookup p)
