module Vec = Affine.Vec
module Matrix = Affine.Matrix

type dim_expr =
  | D of int
  | Div of dim_expr * int
  | Mod of dim_expr * int
  | Perm of dim_expr * int array

type out_dim = { expr : dim_expr; extent : int }

type t = {
  array : string;
  u : Matrix.t;
  a_shift : Vec.t;
  out : out_dim array;
  orig_extents : int array;
  elem_bytes : int;
  p_elems : int;
}

let identity ~array ~extents ~elem_bytes =
  {
    array;
    u = Matrix.identity (Array.length extents);
    a_shift = Vec.zero (Array.length extents);
    out = Array.mapi (fun i n -> { expr = D i; extent = n }) extents;
    orig_extents = Array.copy extents;
    elem_bytes;
    p_elems = 1;
  }

let is_identity l =
  Matrix.equal l.u (Matrix.identity (Array.length l.orig_extents))
  && Array.length l.out = Array.length l.orig_extents
  && Array.for_all Fun.id
       (Array.mapi
          (fun i d -> d.expr = D i && d.extent = l.orig_extents.(i))
          l.out)
  && Vec.is_zero l.a_shift

let make ~array ~u ?a_shift ~out ~orig_extents ~elem_bytes ~p_elems () =
  let a_shift =
    match a_shift with Some s -> s | None -> Vec.zero (Matrix.rows u)
  in
  { array; u; a_shift; out; orig_extents; elem_bytes; p_elems }

let rec simplify_expr = function
  | D i -> D i
  | Div (e, 1) -> simplify_expr e
  | Div (e, k) -> Div (simplify_expr e, k)
  | Mod (e, k) -> Mod (simplify_expr e, k)
  | Perm (e, t) -> Perm (simplify_expr e, t)

let simplify l =
  let out =
    Array.of_list
      (List.filter_map
         (fun d ->
           if d.extent = 1 then None
           else Some { d with expr = simplify_expr d.expr })
         (Array.to_list l.out))
  in
  (* a degenerate layout must keep at least one dimension *)
  let out = if Array.length out = 0 then [| { expr = D 0; extent = 1 } |] else out in
  { l with out }

let size_elems l = Array.fold_left (fun n d -> n * d.extent) 1 l.out

let size_bytes l = size_elems l * l.elem_bytes

let is_pow2 k = k > 0 && k land (k - 1) = 0

let log2 k =
  let rec go acc k = if k = 1 then acc else go (acc + 1) (k lsr 1) in
  go 0 k

(* One output dimension staged into a closure over [a'].  A power-of-two
   divisor of a non-negative operand is a shift or a mask; a negative
   operand keeps [/] and [mod] (truncation toward zero), and so does every
   other divisor — 0 included, which raises [Division_by_zero] as the
   plain expression would. *)
let rec stage_dim = function
  | D i -> fun v -> v.(i)
  | Div (e, k) when is_pow2 k ->
    let f = stage_dim e and s = log2 k in
    fun v ->
      let x = f v in
      if x >= 0 then x lsr s else x / k
  | Mod (e, k) when is_pow2 k ->
    let f = stage_dim e and m = k - 1 in
    fun v ->
      let x = f v in
      if x >= 0 then x land m else x mod k
  | Div (e, k) ->
    let f = stage_dim e in
    fun v -> f v / k
  | Mod (e, k) ->
    let f = stage_dim e in
    fun v -> f v mod k
  | Perm (e, t) ->
    let f = stage_dim e in
    fun v -> t.(f v)

(* [a' = U·a + a_shift] goes into one scratch vector owned by the returned
   function, so a call allocates nothing. *)
let offset_fn l =
  let u = l.u and shift = l.a_shift in
  let rows = Matrix.rows u and cols = Matrix.cols u in
  if Array.length shift <> rows then invalid_arg "Vec.add";
  let dims = Array.map (fun d -> stage_dim d.expr) l.out
  and extents = Array.map (fun d -> d.extent) l.out in
  let a' = Array.make rows 0 in
  fun a ->
    if Array.length a <> cols then invalid_arg "Matrix.mul_vec";
    for i = 0 to rows - 1 do
      let r = u.(i) and s = ref shift.(i) in
      for j = 0 to cols - 1 do
        s := !s + (r.(j) * a.(j))
      done;
      a'.(i) <- !s
    done;
    let off = ref 0 in
    for k = 0 to Array.length dims - 1 do
      off := (!off * extents.(k)) + dims.(k) a'
    done;
    !off

let offset_of_index l a = offset_fn l a

let rec pp_dim_expr ~names ppf = function
  | D i -> Format.pp_print_string ppf (List.nth names i)
  | Div (e, k) -> Format.fprintf ppf "(%a)/%d" (pp_dim_expr ~names) e k
  | Mod (e, k) -> Format.fprintf ppf "(%a)%%%d" (pp_dim_expr ~names) e k
  | Perm (e, _) -> Format.fprintf ppf "__home[%a]" (pp_dim_expr ~names) e

(* Symbolic U·s over AST subscript expressions. *)
let transformed_components u subs =
  let subs = Array.of_list subs in
  Array.init (Matrix.rows u) (fun i ->
      let acc = ref None in
      Array.iteri
        (fun j c ->
          if c <> 0 then begin
            let term =
              if c = 1 then subs.(j)
              else if c = -1 then Lang.Ast.Neg subs.(j)
              else Lang.Ast.Mul (Lang.Ast.Int c, subs.(j))
            in
            acc :=
              Some (match !acc with None -> term | Some e -> Lang.Ast.Add (e, term))
          end)
        (Matrix.row u i);
      Option.value !acc ~default:(Lang.Ast.Int 0))

let transformed_subscripts l subs =
  if List.length subs <> Array.length l.orig_extents then
    invalid_arg "Layout.transformed_subscripts";
  let comps = transformed_components l.u subs in
  let comps =
    Array.mapi
      (fun i e ->
        if l.a_shift.(i) = 0 then e else Lang.Ast.Add (e, Lang.Ast.Int l.a_shift.(i)))
      comps
  in
  let rec to_expr = function
    | D i -> comps.(i)
    | Div (e, k) -> Lang.Ast.Div (to_expr e, Lang.Ast.Int k)
    | Mod (e, k) -> Lang.Ast.Mod (to_expr e, Lang.Ast.Int k)
    | Perm (e, _) ->
      (* emitted as a compiler-generated lookup (index array) *)
      Lang.Ast.Load (Lang.Ast.mk_ref ~array:"__home" ~subs:[ to_expr e ] ())
  in
  Array.to_list (Array.map (fun d -> to_expr d.expr) l.out)

let pp ppf l =
  let names =
    List.init (Array.length l.orig_extents) (fun i -> Printf.sprintf "a%d" i)
  in
  Format.fprintf ppf "@[<v>%s: U =@,%a@,dims:" l.array Matrix.pp l.u;
  Array.iter
    (fun d ->
      Format.fprintf ppf "@,  [%a] x%d" (pp_dim_expr ~names) d.expr d.extent)
    l.out;
  Format.fprintf ppf "@]"
