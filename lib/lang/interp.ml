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

(* [c + Σ_s k.(s)·env.(s)], dense over an environment's slots. *)
type affine = { c : int; k : int array }

(* [a]'s value over every slot but [skip]. *)
let sum env ~skip a =
  let x = ref a.c in
  for s = 0 to Array.length a.k - 1 do
    if a.k.(s) <> 0 && s <> skip then x := !x + (a.k.(s) * env.(s))
  done;
  !x

(* One looked-up term [g·T[a − lo]] over an affine operand [a].
   [chain = Some e]: [T] is [e]'s values over its operand's known range,
   and an operand outside it evaluates the chain; [None]: [T] is a layout
   [Table] component, whose miss leaves the address to the exact [whole]
   evaluation. *)
type term = {
  g : int;
  operand : affine;
  lo : int;
  values : int array;
  chain : Ast.expr option;
}

(* [T[a − lo]], or [min_int] where the address must be evaluated whole:
   a layout table's miss (a chain value of [min_int] takes that path too,
   which [whole] evaluates exactly). *)
let[@inline] lookup t a =
  let i = a - t.lo in
  if i >= 0 && i < Array.length t.values then t.values.(i)
  else match t.chain with Some e -> chain_value e a | None -> min_int

(* A subscript a form can take: an affine sum plus chain terms. *)
type lin = { aff : affine; chains : term list }

let constant width c = { aff = { c; k = Array.make width 0 }; chains = [] }

let unit_slot width s =
  let k = Array.make width 0 in
  k.(s) <- 1;
  { aff = { c = 0; k }; chains = [] }

let lin_add a b =
  {
    aff = { c = a.aff.c + b.aff.c; k = Array.map2 ( + ) a.aff.k b.aff.k };
    chains = a.chains @ b.chains;
  }

let lin_scale g l =
  {
    aff = { c = g * l.aff.c; k = Array.map (( * ) g) l.aff.k };
    chains =
      (if g = 0 then []
       else List.map (fun t -> { t with g = g * t.g }) l.chains);
  }

let is_constant l = l.chains = [] && Array.for_all (( = ) 0) l.aff.k

let eval_lin env l =
  List.fold_left
    (fun x t -> x + (t.g * lookup t (sum env ~skip:(-1) t.operand)))
    (sum env ~skip:(-1) l.aff) l.chains

(* An address staged once, as one form over the slots of an environment:
   [linear + Σ terms], or [whole env] where a term misses. *)
type form = { linear : affine; terms : term array; whole : int array -> int }

(* The form of a reference whose subscripts are [lins] under [map]: with
   [a' = U·s + shift], each [Coef g] component adds [g·a'_r] to the
   linear part, a chain in [s] included, and each [Table] component
   becomes a layout term over [a'_r], which must then be affine.  [None]
   for an {!Fn} map, a rank other than [U]'s column count, or a [Table]
   component over a chain.  [width] is the environment's slot count. *)
let form_of ~width map (lins : lin array) =
  match map with
  | Fn _ -> None
  | Separable { u; _ } when Affine.Matrix.cols u <> Array.length lins -> None
  | Separable { base; u; shift; comps; whole } ->
    let parts =
      List.mapi
        (fun r comp ->
          ( comp,
            Array.fold_left lin_add (constant width shift.(r))
              (Array.mapi (fun j l -> lin_scale u.(r).(j) l) lins) ))
        (Array.to_list comps)
    in
    if List.exists (function Table _, a' -> a'.chains <> [] | _ -> false) parts
    then None
    else
      let lin =
        List.fold_left
          (fun lin -> function
            | Coef g, a' -> lin_add lin (lin_scale g a')
            | Table _, _ -> lin)
          (constant width base) parts
      in
      let tabled =
        List.filter_map
          (function
            | Table { lo; values }, a' ->
              Some { g = 1; operand = a'.aff; lo; values; chain = None }
            | Coef _, _ -> None)
          parts
      in
      Some
        {
          linear = lin.aff;
          terms = Array.of_list (tabled @ lin.chains);
          whole =
            (fun env ->
              whole
                (Affine.Vec.add
                   (Affine.Matrix.mul_vec u (Array.map (eval_lin env) lins))
                   shift));
        }

let rec eval_terms env f j acc =
  if j = Array.length f.terms then acc
  else
    let t = f.terms.(j) in
    let v = lookup t (sum env ~skip:(-1) t.operand) in
    if v = min_int then f.whole env
    else eval_terms env f (j + 1) (acc + (t.g * v))

let eval_form env f = eval_terms env f 0 (sum env ~skip:(-1) f.linear)

let apply = function
  | Fn f -> f
  | Separable { u; _ } as map ->
    (* over the index vector itself, every component is affine *)
    let cols = Affine.Matrix.cols u in
    let f =
      Option.get (form_of ~width:cols map (Array.init cols (unit_slot cols)))
    in
    fun a ->
      if Array.length a <> cols then invalid_arg "Matrix.mul_vec";
      eval_form a f

(* A thread's stream under construction: filled chunks of [chunk_words]
   words, newest first, and the current one.  [len] counts the stored
   words, [dropped] the accesses past the caller's storage cap. *)
let chunk_words = 4096

type stream = {
  mutable chunk : int array;
  mutable pos : int;
  mutable full : int array list;
  mutable len : int;
  mutable dropped : int;
}

let stream () = { chunk = [||]; pos = 0; full = []; len = 0; dropped = 0 }

(* Chunks come from [pool] and go back to it once their stream is
   copied out. *)
let refill pool s =
  if s.len > 0 then s.full <- s.chunk :: s.full;
  (s.chunk <-
     match !pool with
     | c :: rest ->
       pool := rest;
       c
     | [] -> Array.make chunk_words 0);
  s.pos <- 0

let[@inline] push pool s x =
  if s.pos = Array.length s.chunk then refill pool s;
  s.chunk.(s.pos) <- x;
  s.pos <- s.pos + 1;
  s.len <- s.len + 1

(* The stream as one array of exactly its length; its chunks return to
   [pool]. *)
let contents pool s =
  let a = Array.concat (List.rev (Array.sub s.chunk 0 s.pos :: s.full)) in
  if s.len > 0 then pool := s.chunk :: List.rev_append s.full !pool;
  a

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

(* What the staged code writes to: the current phase's streams and the
   running thread's pair.  Outside a parfor the running thread is 0. *)
type sink = {
  mutable bufs : stream array;
  mutable sbufs : stream array;
  mutable cur : stream;
  mutable scur : stream;
}

(* A reference staged as a form: from its first stored run on, its
   address, its form (unless its map has none) and its site. *)
type fref = {
  w : int;
  mutable addr : unit -> int;  (* resolves on its first call *)
  mutable form : form option;
  mutable site : int;
}

(* A reference of a stepped loop: from each entry on, its address at
   [x] is [l0 + lx·x + Σ g·T[a0 + ax·x − lo]] over the terms that read
   [x] ([var], with [ax] in [vax] and [a0] in [va0]); the others ([inv])
   and the outer slots are folded into [l0], unless one misses, which
   leaves every address of that entry to [whole]. *)
type kref = {
  kf : form;
  kw : int;
  ksite : int;
  lx : int;
  mutable l0 : int;
  mutable whole_only : bool;
  inv : term array;
  var : term array;
  vax : int array;
  va0 : int array;
}

let kref_of slot (f : fref) =
  let kf = Option.get f.form in
  let var, inv =
    List.partition (fun t -> t.operand.k.(slot) <> 0) (Array.to_list kf.terms)
  in
  {
    kf;
    kw = f.w;
    ksite = f.site;
    lx = kf.linear.k.(slot);
    l0 = 0;
    whole_only = false;
    inv = Array.of_list inv;
    var = Array.of_list var;
    vax = Array.of_list (List.map (fun t -> t.operand.k.(slot)) var);
    va0 = Array.make (List.length var) 0;
  }

let enter env slot kr =
  kr.whole_only <- false;
  kr.l0 <- sum env ~skip:slot kr.kf.linear;
  for j = 0 to Array.length kr.inv - 1 do
    let t = kr.inv.(j) in
    let v = lookup t (sum env ~skip:slot t.operand) in
    if v = min_int then kr.whole_only <- true else kr.l0 <- kr.l0 + (t.g * v)
  done;
  for j = 0 to Array.length kr.var - 1 do
    kr.va0.(j) <- sum env ~skip:slot kr.var.(j).operand
  done

let rec var_terms env slot x kr j acc =
  if j = Array.length kr.var then acc
  else
    let t = kr.var.(j) in
    let v = lookup t (kr.va0.(j) + (kr.vax.(j) * x)) in
    if v <> min_int then var_terms env slot x kr (j + 1) (acc + (t.g * v))
    else begin
      env.(slot) <- x;
      kr.kf.whole env
    end

(* The address of [kr] at [x = env.(slot)]. *)
let[@inline] kaddr env slot x kr =
  if kr.whole_only then begin
    env.(slot) <- x;
    kr.kf.whole env
  end
  else if Array.length kr.var = 0 then kr.l0 + (kr.lx * x)
  else var_terms env slot x kr 0 (kr.l0 + (kr.lx * x))

(* [(a / k1) / k2 = a / (k1·k2)] for positive divisors (truncation
   composes), so the strip-mined subscripts the pass emits, such as
   [((i/5)/8)%4], stage as one division. *)
let foldable k1 k2 = k1 > 0 && k2 > 0 && k1 <= max_int / k2

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

(* A [/] or [%] whose divisor is zero when it runs (the checker rejects
   only constant ones), at the reference, condition or loop header that
   evaluates it. *)
let zero_divisor span =
  raise (Diag.Fatal (Diag.error ~code:"I002" span "zero divisor at run time"))

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
  let width = Array.length env in
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
  (* A chain over an operand whose range is known and at most [max_table]
     wide is one lookup into its values over that range; an operand
     outside it evaluates the chain directly.  [(lo, [||])] when the range
     is unknown or wider. *)
  let chain_table scope e =
    match range scope (chain_base e) with
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
      (lo, values)
    | _ -> (0, [||])
  in
  (* innermost binding first; a repeated parameter name keeps its last
     value *)
  let params = List.rev (List.mapi (fun i (n, _) -> (n, i)) p.params) in
  (* A subscript as an affine sum of the loop slots in scope plus chains
     of affine operands, names resolved as [expr] resolves them (a
     parameter is its value); [None] for any other subscript.  Integer
     arithmetic wraps, so regrouping the sum moves no value. *)
  let rec lin_of scope e =
    let both a b f =
      match (lin_of scope a, lin_of scope b) with
      | Some x, Some y -> f x y
      | _ -> None
    in
    match e with
    | Ast.Int n -> Some (constant width n)
    | Ast.Var x -> (
      match List.assoc_opt x scope with
      | Some s when s < nparams -> Some (constant width env.(s))
      | Some s -> Some (unit_slot width s)
      | None -> None)
    | Ast.Neg a -> Option.map (lin_scale (-1)) (lin_of scope a)
    | Ast.Add (a, b) -> both a b (fun x y -> Some (lin_add x y))
    | Ast.Sub (a, b) ->
      both a b (fun x y -> Some (lin_add x (lin_scale (-1) y)))
    | Ast.Mul (a, b) ->
      both a b (fun x y ->
          if is_constant x then Some (lin_scale x.aff.c y)
          else if is_constant y then Some (lin_scale y.aff.c x)
          else None)
    | (Ast.Div (_, Ast.Int k) | Ast.Mod (_, Ast.Int k)) when k > 0 -> (
      match lin_of scope (chain_base e) with
      | Some l when is_constant l ->
        Some (constant width (chain_value e l.aff.c))
      | Some { aff; chains = [] } ->
        let lo, values = chain_table scope e in
        let t = { g = 1; operand = aff; lo; values; chain = Some e } in
        Some { (constant width 0) with chains = [ t ] }
      | _ -> None)
    | Ast.Div _ | Ast.Mod _ | Ast.Load _ -> None
  in
  let lin_ref scope (r : Ast.ref_) =
    let subs = List.map (lin_of scope) r.subs in
    if List.for_all Option.is_some subs then
      Some (Array.of_list (List.map Option.get subs))
    else None
  in
  let pool = ref [] in
  let none = stream () in
  let sink = { bufs = [||]; sbufs = [||]; cur = none; scur = none } in
  let set_thread t =
    sink.cur <- sink.bufs.(t);
    if tagging then sink.scur <- sink.sbufs.(t)
  in
  let store b x site =
    push pool b x;
    if tagging then push pool sink.scur site
  in
  (* Literal-operand cases and chain tables are for speed: without them serve-mcaware's wall_s went 0.549 -> 0.655 s. *)
  let rec expr sp scope e : unit -> int =
    match e with
    | (Ast.Div (_, Ast.Int k) | Ast.Mod (_, Ast.Int k)) when k > 0 -> (
      match chain_table scope e with
      | _, [||] -> direct sp scope e
      | lo, values ->
        let x = expr sp scope (chain_base e) in
        fun () ->
          let v = x () in
          let i = v - lo in
          if i >= 0 && i < Array.length values then values.(i)
          else chain_value e v)
    | _ -> direct sp scope e
  and direct sp scope e : unit -> int =
    match e with
    | Ast.Int n -> fun () -> n
    | Ast.Add (a, Ast.Int k) ->
      let a = expr sp scope a in
      fun () -> a () + k
    | Ast.Sub (a, Ast.Int k) ->
      let a = expr sp scope a in
      fun () -> a () - k
    | Ast.Mul (Ast.Int k, a) ->
      let a = expr sp scope a in
      fun () -> k * a ()
    | Ast.Mul (a, Ast.Int k) ->
      let a = expr sp scope a in
      fun () -> a () * k
    | Ast.Div (Ast.Div (a, Ast.Int k1), Ast.Int k2) when foldable k1 k2 ->
      expr sp scope (Ast.Div (a, Ast.Int (k1 * k2)))
    | Ast.Mod (Ast.Div (Ast.Div (a, Ast.Int k1), Ast.Int k2), m)
      when foldable k1 k2 ->
      expr sp scope (Ast.Mod (Ast.Div (a, Ast.Int (k1 * k2)), m))
    | Ast.Mod (Ast.Div (a, Ast.Int k1), Ast.Int k2) when k1 <> 0 && k2 <> 0 ->
      let a = expr sp scope a in
      fun () -> a () / k1 mod k2
    | Ast.Div (Ast.Var x, Ast.Int k) when k <> 0 && List.mem_assoc x scope ->
      let s = List.assoc x scope in
      fun () -> env.(s) / k
    | Ast.Mod (Ast.Var x, Ast.Int k) when k <> 0 && List.mem_assoc x scope ->
      let s = List.assoc x scope in
      fun () -> env.(s) mod k
    | Ast.Div (a, Ast.Int k) when k <> 0 ->
      let a = expr sp scope a in
      fun () -> a () / k
    | Ast.Mod (a, Ast.Int k) when k <> 0 ->
      let a = expr sp scope a in
      fun () -> a () mod k
    | Ast.Var x -> (
      match List.assoc_opt x scope with
      | Some s -> fun () -> env.(s)
      | None -> unbound x)
    | Ast.Neg a ->
      let a = expr sp scope a in
      fun () -> -a ()
    | Ast.Add (a, b) ->
      let a = expr sp scope a and b = expr sp scope b in
      fun () ->
        let y = b () in
        a () + y
    | Ast.Sub (a, b) ->
      let a = expr sp scope a and b = expr sp scope b in
      fun () ->
        let y = b () in
        a () - y
    | Ast.Mul (a, b) ->
      let a = expr sp scope a and b = expr sp scope b in
      fun () ->
        let y = b () in
        a () * y
    | Ast.Div (a, b) ->
      let a = expr sp scope a and b = expr sp scope b in
      fun () ->
        let y = b () in
        let x = a () in
        if y = 0 then zero_divisor sp else x / y
    | Ast.Mod (a, b) ->
      let a = expr sp scope a and b = expr sp scope b in
      fun () ->
        let y = b () in
        let x = a () in
        if y = 0 then zero_divisor sp else x mod y
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
    let subs = Array.of_list (List.map (expr r.ref_span scope) r.subs) in
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
          let a = !addr v in
          store b ((a lsl 1) lor w) !site
        end
        else b.dropped <- b.dropped + 1;
        v
    end
  (* A reference whose subscripts are affine or chains of affine, staged
     as a form: on its first stored run it resolves [addr_of r.array]
     and composes the map with its subscripts ({!form_of}); a map without
     a form evaluates the subscripts into [v] and applies. *)
  and fref scope (r : Ast.ref_) w lins =
    let subs = Array.of_list (List.map (expr r.ref_span scope) r.subs) in
    let v = Array.make (Array.length subs) 0 in
    let f = { w; addr = (fun () -> 0); form = None; site = -1 } in
    f.addr <-
      (fun () ->
        let map = addr_of r.array in
        f.site <- site_id r;
        (f.addr <-
           match form_of ~width map lins with
           | Some form ->
             f.form <- Some form;
             fun () -> eval_form env form
           | None ->
             let g = apply map in
             fun () ->
               for k = 0 to Array.length subs - 1 do
                 v.(k) <- subs.(k) ()
               done;
               g v);
        f.addr ());
    f
  and emit f =
    let b = sink.cur in
    if b.len < cap then begin
      let a = f.addr () in
      store b ((a lsl 1) lor f.w) f.site
    end
    else b.dropped <- b.dropped + 1
  (* One access of a reference whose value is not needed.  A reference
     with affine or chained subscripts runs none of them: it computes its
     address from the loop slots through its form, and past the cap it
     only counts.  Any other {!pure} reference evaluates its subscripts
     only to store the access. *)
  and access scope (r : Ast.ref_) w : unit -> unit =
    match lin_ref scope r with
    | Some _ when exclude r.array -> fun () -> ()
    | Some lins ->
      let f = fref scope r w lins in
      fun () -> emit f
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
  in
  (* The references of a straight-line body, in evaluation order, with
     the excluded ones left out: [None] unless every statement is an
     assignment whose expressions can neither raise nor need a value
     (bound names, positive literal divisors, loads of non-index arrays)
     and every reference is affine or chained. *)
  let straight scope ss =
    let rec loads acc = function
      | Ast.Int _ -> Some acc
      | Ast.Var x -> if List.mem_assoc x scope then Some acc else None
      | Ast.Neg a -> loads acc a
      | (Ast.Div (a, Ast.Int k) | Ast.Mod (a, Ast.Int k)) when k > 0 ->
        loads acc a
      | Ast.Add (a, b) | Ast.Sub (a, b) | Ast.Mul (a, b) ->
        Option.bind (loads acc b) (fun acc -> loads acc a)
      | Ast.Div _ | Ast.Mod _ -> None
      | Ast.Load r when is_index r.array -> None
      | Ast.Load r -> Some ((r, 0) :: acc)
    in
    let refs =
      List.fold_left
        (fun acc s ->
          match (acc, s) with
          | Some acc, Ast.Assign (lhs, rhs) ->
            Option.map (fun acc -> (lhs, 1) :: acc) (loads acc rhs)
          | _ -> None)
        (Some []) ss
    in
    Option.bind refs (fun refs ->
        List.fold_left
          (fun acc (r, w) ->
            match (acc, lin_ref scope r) with
            | Some acc, Some _ when exclude r.array -> Some acc
            | Some acc, Some lins -> Some (fref scope r w lins :: acc)
            | _ -> None)
          (Some []) refs
        |> Option.map Array.of_list)
  in
  (* A straight-line innermost loop over [lo..hi].  Until every reference
     has resolved, an iteration runs the references' own closures; once
     all have forms, the rest of the range is stepped: at entry the outer
     slots and the terms that do not read [x] fold into a base, then each
     access is [l0 + lx·x + Σ g·T[a0 + ax·x]], a layout table miss taking
     the exact [whole] evaluation.  Past the cap the range only adds its
     remaining count. *)
  let stepped slot frefs =
    let n = Array.length frefs in
    let krefs = ref [||] in
    let ready () =
      Array.length !krefs = n
      ||
      if Array.for_all (fun f -> f.form <> None) frefs then begin
        krefs := Array.map (kref_of slot) frefs;
        true
      end
      else false
    in
    let step x0 hi =
      let krefs = !krefs and b = sink.cur and sb = sink.scur in
      for k = 0 to n - 1 do
        enter env slot krefs.(k)
      done;
      let x = ref x0 in
      while !x <= hi && b.len < cap do
        let xv = !x in
        for k = 0 to n - 1 do
          let kr = krefs.(k) in
          if b.len < cap then begin
            push pool b ((kaddr env slot xv kr lsl 1) lor kr.kw);
            if tagging then push pool sb kr.ksite
          end
          else b.dropped <- b.dropped + 1
        done;
        incr x
      done;
      b.dropped <- b.dropped + ((hi - !x + 1) * n)
    in
    fun lo hi ->
      let b = sink.cur in
      let x = ref lo in
      while !x <= hi && b.len < cap && not (ready ()) do
        env.(slot) <- !x;
        Array.iter emit frefs;
        incr x
      done;
      if !x <= hi then
        if b.len < cap then step !x hi
        else b.dropped <- b.dropped + ((hi - !x + 1) * n)
  in
  (* [inside]: statically within a parfor, where a nested parfor runs
     sequentially on its owner; outside, a parfor fans out. *)
  let rec stmt scope ~inside ~slot s : unit -> unit =
    match s with
    | Ast.If c ->
      let lhs = expr c.Ast.cond_span scope c.Ast.lhs
      and rhs = expr c.Ast.cond_span scope c.Ast.rhs in
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
      let rhs = expr lhs.Ast.ref_span scope rhs and lhs = access scope lhs 1 in
      fun () ->
        ignore (rhs ());
        lhs ()
    | Ast.Loop l ->
      bounds.(slot) <-
        (match (range scope l.lo, range scope l.hi) with
         | Some (lo, _), Some (_, hi) when lo <= hi -> Some (lo, hi)
         | _ -> None);
      let lo = expr l.loop_span scope l.lo
      and hi = expr l.loop_span scope l.hi in
      let scope = (l.index, slot) :: scope in
      let run =
        match straight scope l.body with
        | Some [||] -> fun _ _ -> ()
        | Some frefs -> stepped slot frefs
        | None ->
          let inside = inside || l.parallel in
          let b = body scope ~inside ~slot:(slot + 1) l.body in
          fun lo hi ->
            for x = lo to hi do
              env.(slot) <- x;
              b ()
            done
      in
      if l.parallel && not inside then
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
            run (lo + cst + sst) (lo + cst + sen)
          done;
          set_thread 0
      else
        fun () ->
          let lo = lo () in
          let hi = hi () in
          run lo hi
  and body scope ~inside ~slot ss =
    let ss = Array.of_list (List.map (stmt scope ~inside ~slot) ss) in
    fun () -> Array.iter (fun s -> s ()) ss
  in
  let nests = List.map (stmt params ~inside:false ~slot:nparams) p.nests in
  List.map
    (fun run ->
      sink.bufs <- Array.init threads (fun _ -> stream ());
      (* side-band site streams, index-parallel to the access streams:
         the access encoding's high bits belong to synthetic replay
         addresses (verify's V007), so ids cannot be packed into the
         access int *)
      if tagging then sink.sbufs <- Array.init threads (fun _ -> stream ());
      set_thread 0;
      run ();
      let counts = Array.map (fun b -> b.len + b.dropped) sink.bufs in
      let streams = Array.map (contents pool) sink.bufs in
      ( streams,
        (if tagging then Array.map (contents pool) sink.sbufs else [||]),
        counts ))
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
