type access = int

let addr_of_access a = a lsr 1

let is_write a = a land 1 = 1

type phase = access array array

type component = Coef of int | Table of { lo : int; values : int array }

type addr_map =
  | Fn of (Affine.Vec.t -> int)
  | Separable of {
      base : int;
      u : Affine.Matrix.t;
      shift : Affine.Vec.t;
      comps : component array;
      whole : Affine.Vec.t -> int;
    }

(* Built like {!compose}: the [Coef] rows fold into one linear function
   [c + Σ_j g_j·a_j], and only the [Table] rows compute their component
   and look it up; a miss evaluates [whole (U·a + shift)]. *)
let apply = function
  | Fn f -> f
  | Separable { base; u; shift; comps; whole } ->
    let cols = Affine.Matrix.cols u in
    let c = ref base and g = Array.make cols 0 and tabled = ref [] in
    Array.iteri
      (fun r comp ->
        match comp with
        | Coef gr ->
          c := !c + (gr * shift.(r));
          Array.iteri (fun j gj -> g.(j) <- gj + (gr * u.(r).(j))) g
        | Table { lo; values } ->
          tabled := (u.(r), shift.(r) - lo, values) :: !tabled)
      comps;
    let c = !c and tabled = Array.of_list (List.rev !tabled) in
    fun a ->
      if Array.length a <> cols then invalid_arg "Matrix.mul_vec";
      let rec go i acc =
        if i = Array.length tabled then acc
        else
          let row, k0, t = tabled.(i) in
          let k = ref k0 in
          for j = 0 to cols - 1 do
            k := !k + (row.(j) * a.(j))
          done;
          let k = !k in
          if k >= 0 && k < Array.length t && t.(k) <> min_int then
            go (i + 1) (acc + t.(k))
          else whole (Affine.Vec.add (Affine.Matrix.mul_vec u a) shift)
      in
      let acc = ref c in
      for j = 0 to cols - 1 do
        acc := !acc + (g.(j) * a.(j))
      done;
      go 0 !acc

(* [c + Σ g·env.(s)] over [(s, g)] terms with [g <> 0]. *)
let affine_fn env c terms : unit -> int =
  match terms with
  | [] -> fun () -> c
  | _ ->
    let s = Array.of_list (List.map fst terms)
    and g = Array.of_list (List.map snd terms) in
    fun () ->
      let x = ref c in
      for k = 0 to Array.length s - 1 do
        x := !x + (g.(k) * env.(s.(k)))
      done;
      !x

(* The address of an affine reference [a = A·i + o] over the loop slots
   [slots] (column [j] of [A] reads [env.(slots.(j))]), staged against a
   separable map: [a' = (U·A)·i + (U·o + shift)], each component over
   its non-zero coefficients only.  [Coef] components fold into one
   linear function of the slots; a [Table] component is a lookup, and a
   miss evaluates [whole a'].  [None] when the map is not separable or
   does not take this reference's rank (or the rank is 0, where [A] has
   no rows to give [U·A] its width). *)
let compose env map (r : Affine.Access.t) slots =
  match map with
  | Fn _ -> None
  | Separable { u; _ }
    when Affine.Access.rank r = 0
         || Affine.Matrix.cols u <> Affine.Access.rank r ->
    None
  | Separable { base; u; shift; comps; whole } ->
    let t = Affine.Access.transform u r in
    let m = t.Affine.Access.matrix in
    let c = Array.mapi (fun i o -> o + shift.(i)) t.Affine.Access.offset in
    let terms coef =
      List.filter_map
        (fun j -> if coef j = 0 then None else Some (slots.(j), coef j))
        (List.init (Array.length slots) Fun.id)
    in
    let x =
      Array.init (Array.length comps) (fun i ->
          affine_fn env c.(i) (terms (fun j -> m.(i).(j))))
    in
    let lin_c = ref base and lin_g = Array.make (Array.length slots) 0 in
    let tabled = ref [] in
    Array.iteri
      (fun i comp ->
        match comp with
        | Coef g ->
          lin_c := !lin_c + (g * c.(i));
          Array.iteri (fun j gj -> lin_g.(j) <- gj + (g * m.(i).(j))) lin_g
        | Table { lo; values } -> tabled := (x.(i), lo, values) :: !tabled)
      comps;
    let lin = affine_fn env !lin_c (terms (fun j -> lin_g.(j))) in
    let slow () = whole (Array.map (fun x -> x ()) x) in
    let tabled = Array.of_list (List.rev !tabled) in
    let rec go i acc =
      if i = Array.length tabled then acc
      else
        let x, lo, t = tabled.(i) in
        let k = x () - lo in
        if k >= 0 && k < Array.length t && t.(k) <> min_int then
          go (i + 1) (acc + t.(k))
        else slow ()
    in
    Some (fun () -> go 0 (lin ()))

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

(* [(a / k1) / k2 = a / (k1·k2)] for positive divisors (truncation
   composes), so the strip-mined subscripts the pass emits, such as
   [((i/5)/8)%4], stage as one division. *)
let foldable k1 k2 = k1 > 0 && k2 > 0 && k1 <= max_int / k2

(* A chain [f(x)] of [/] and [mod] by positive literals over its
   innermost operand [x = chain_base e]: the strip-mined subscripts the
   pass emits, such as [((i/5)/8)%4].  [chain_value e x] is its value at
   [x], with the operators' own truncation toward zero. *)
let rec chain_base = function
  | Ast.Div (a, Ast.Int k) | Ast.Mod (a, Ast.Int k) when k > 0 -> chain_base a
  | a -> a

let rec chain_value e x =
  match e with
  | Ast.Div (a, Ast.Int k) when k > 0 -> chain_value a x / k
  | Ast.Mod (a, Ast.Int k) when k > 0 -> chain_value a x mod k
  | _ -> x

(* The chain's operators alone: equal chains over different operands
   share one table. *)
let rec chain_ops = function
  | Ast.Div (a, (Ast.Int k as d)) when k > 0 -> Ast.Div (chain_ops a, d)
  | Ast.Mod (a, (Ast.Int k as d)) when k > 0 -> Ast.Mod (chain_ops a, d)
  | _ -> Ast.Int 0

(* Largest chain table, in entries; a wider operand range evaluates the
   chain directly. *)
let max_table = 1 lsl 16

(* Interval bounds are kept within [±2^30], so no sum or product of two
   of them overflows. *)
let range_limit = 1 lsl 30

(* Subscripts that can neither raise nor emit: no array read, only bound
   names, and division only by positive literals.  Past the cap a
   reference made of them has nothing to do but count. *)
let rec pure scope = function
  | Ast.Int _ -> true
  | Ast.Var x -> List.mem_assoc x scope
  | Ast.Neg a -> pure scope a
  | Ast.Add (a, b) | Ast.Sub (a, b) | Ast.Mul (a, b) -> pure scope a && pure scope b
  | Ast.Div (a, Ast.Int k) | Ast.Mod (a, Ast.Int k) -> k > 0 && pure scope a
  | Ast.Div _ | Ast.Mod _ | Ast.Load _ -> false

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
  (* [bounds.(s)]: the values slot [s] can hold — a parameter's value, or
     the interval a loop index ranges over, set while its body stages *)
  let bounds =
    Array.mapi (fun s v -> if s < nparams then Some (v, v) else None) env
  in
  let rec range scope e =
    let both a b f =
      match (range scope a, range scope b) with
      | Some x, Some y -> f x y
      | _ -> None
    in
    let r =
      match e with
      | Ast.Int n -> Some (n, n)
      | Ast.Var x -> Option.bind (List.assoc_opt x scope) (fun s -> bounds.(s))
      | Ast.Neg a -> Option.map (fun (l, h) -> (-h, -l)) (range scope a)
      | Ast.Add (a, b) -> both a b (fun (l, h) (l', h') -> Some (l + l', h + h'))
      | Ast.Sub (a, b) -> both a b (fun (l, h) (l', h') -> Some (l - h', h - l'))
      | Ast.Mul (a, b) ->
        both a b (fun (l, h) (l', h') ->
            let p = [ l * l'; l * h'; h * l'; h * h' ] in
            Some (List.fold_left min max_int p, List.fold_left max min_int p))
      | Ast.Div (a, Ast.Int k) when k > 0 ->
        Option.map (fun (l, h) -> (l / k, h / k)) (range scope a)
      | Ast.Mod (a, Ast.Int k) when k > 0 ->
        Option.map
          (fun (l, h) ->
            if l > -k && h < k && (l >= 0 || h <= 0) then (l, h)
            else if l >= 0 then (0, k - 1)
            else if h <= 0 then (1 - k, 0)
            else (1 - k, k - 1))
          (range scope a)
      | Ast.Div _ | Ast.Mod _ | Ast.Load _ -> None
    in
    match r with
    | Some (l, h) when l >= - range_limit && h <= range_limit -> r
    | _ -> None
  in
  let tables = Hashtbl.create 16 in
  (* innermost binding first; a repeated parameter name keeps its last
     value *)
  let params = List.rev (List.mapi (fun i (n, _) -> (n, i)) p.params) in
  (* a reference's subscripts as [A·i + o] over the loop indices in
     scope, resolved as [expr] resolves them: [Analysis.affine_of_expr]
     tries the loop indices innermost first, then the parameters, last
     value first; [None] when a subscript is not affine *)
  let affine_ref scope (r : Ast.ref_) =
    let loops = List.filter (fun (_, s) -> s >= nparams) scope in
    let iters = List.map fst loops in
    let params = List.rev p.params in
    let subs = List.map (Analysis.affine_of_expr ~params ~iters) r.subs in
    if List.for_all Option.is_some subs then
      let subs = List.map Option.get subs in
      Some
        ( Affine.Access.make
            (Array.of_list (List.map fst subs))
            (Array.of_list (List.map snd subs)),
          Array.of_list (List.map snd loops) )
    else None
  in
  let none = buf_make () in
  let sink = { bufs = [||]; sbufs = [||]; cur = none; scur = none } in
  let set_thread t =
    sink.cur <- sink.bufs.(t);
    if tagging then sink.scur <- sink.sbufs.(t)
  in
  (* A chain over an operand whose range is known and at most [max_table]
     wide is one lookup into its values over that range; an operand
     outside it evaluates the chain directly. *)
  let rec expr scope e : unit -> int =
    match e with
    | (Ast.Div (_, Ast.Int k) | Ast.Mod (_, Ast.Int k)) when k > 0 -> (
      let base = chain_base e in
      match range scope base with
      | Some (lo, hi) when hi - lo < max_table ->
        let key = (chain_ops e, lo, hi) in
        let values =
          match Hashtbl.find_opt tables key with
          | Some t -> t
          | None ->
            let t = Array.init (hi - lo + 1) (fun i -> chain_value e (lo + i)) in
            Hashtbl.replace tables key t;
            t
        in
        let x = expr scope base in
        fun () ->
          let v = x () in
          let i = v - lo in
          if i >= 0 && i < Array.length values then values.(i)
          else chain_value e v
      | _ -> direct scope e)
    | _ -> direct scope e
  and direct scope e : unit -> int =
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
    | Ast.Div (Ast.Div (a, Ast.Int k1), Ast.Int k2) when foldable k1 k2 ->
      expr scope (Ast.Div (a, Ast.Int (k1 * k2)))
    | Ast.Mod (Ast.Div (Ast.Div (a, Ast.Int k1), Ast.Int k2), m)
      when foldable k1 k2 ->
      expr scope (Ast.Mod (Ast.Div (a, Ast.Int (k1 * k2)), m))
    | Ast.Mod (Ast.Div (a, Ast.Int k1), Ast.Int k2) ->
      let a = expr scope a in
      fun () -> a () / k1 mod k2
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
    | Ast.Load r when is_index r.array ->
      let read = reference scope r 0 in
      fun () -> index_lookup r.array (Array.copy (read ()))
    | Ast.Load r ->
      let run = access scope r 0 in
      fun () ->
        run ();
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
           let f = apply (addr_of r.array) in
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
  (* One access of a reference whose value is not needed.  Affine
     subscripts read no array and cannot fail, so such a reference runs
     none of them: it computes its address from the loop slots through
     {!compose}, and past the cap it only counts.  Any other {!pure}
     reference evaluates its subscripts only to store the access. *)
  and access scope (r : Ast.ref_) w : unit -> unit =
    match affine_ref scope r with
    | None when List.for_all (pure scope) r.subs ->
      if exclude r.array then fun () -> ()
      else
        let read = reference scope r w in
        fun () ->
          let b = sink.cur in
          if b.len < cap then ignore (read ()) else b.dropped <- b.dropped + 1
    | None ->
      let read = reference scope r w in
      fun () -> ignore (read ())
    | Some _ when exclude r.array -> fun () -> ()
    | Some (a, slots) ->
      let site = ref (-1) in
      let addr = ref (fun () -> 0) in
      (addr :=
         fun () ->
           let map = addr_of r.array in
           let f =
             match compose env map a slots with
             | Some f -> f
             | None ->
               let f = apply map and subs = List.map (expr scope) r.subs in
               fun () -> f (Array.of_list (List.map (fun s -> s ()) subs))
           in
           site := site_id r;
           addr := f;
           f ());
      fun () ->
        let b = sink.cur in
        if b.len < cap then begin
          buf_push b ((!addr () lsl 1) lor w);
          if tagging then buf_push sink.scur !site
        end
        else b.dropped <- b.dropped + 1
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
      let rhs = expr scope rhs and lhs = access scope lhs 1 in
      fun () ->
        ignore (rhs ());
        lhs ()
    | Ast.Loop l ->
      bounds.(slot) <-
        (match (range scope l.lo, range scope l.hi) with
         | Some (lo, _), Some (_, hi) when lo <= hi -> Some (lo, hi)
         | _ -> None);
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
