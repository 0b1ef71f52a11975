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

let rec eval_dim e a' =
  match e with
  | D i -> a'.(i)
  | Div (e, k) -> eval_dim e a' / k
  | Mod (e, k) -> eval_dim e a' mod k
  | Perm (e, t) -> t.(eval_dim e a')

(* The component of [a'] an output dimension reads: its one [D] leaf. *)
let rec leaf = function
  | D i -> i
  | Div (e, _) | Mod (e, _) | Perm (e, _) -> leaf e

(* The plain row-major offset of [a' = U·a + a_shift]: every output
   dimension evaluated in order, so the first failing one raises. *)
let offset_of_transformed l a' =
  Array.fold_left (fun off d -> (off * d.extent) + eval_dim d.expr a') 0 l.out

let offset_of_index l a =
  offset_of_transformed l (Vec.add (Matrix.mul_vec l.u a) l.a_shift)

(* The values [a'_r] takes on the original data space's bounding box.
   Tables are exact over any range; this one only decides which [a'_r]
   get an entry. *)
let component_range l r =
  let lo = ref l.a_shift.(r) and hi = ref l.a_shift.(r) in
  Array.iteri
    (fun j c ->
      let e =
        if j < Array.length l.orig_extents then l.orig_extents.(j) else 1
      in
      let span = c * (e - 1) in
      if span < 0 then lo := !lo + span else hi := !hi + span)
    (Matrix.row l.u r);
  (!lo, !hi)

let addr_map ?(base = 0) ?(scale = 1) l =
  let rows = Matrix.rows l.u in
  if Array.length l.a_shift <> rows then invalid_arg "Vec.add";
  let n = Array.length l.out in
  (* the offset is [Σ_k stride_k · dim_k(a'_(leaf k))], scaled *)
  let stride = Array.make n scale in
  for k = n - 2 downto 0 do
    stride.(k) <- stride.(k + 1) * l.out.(k + 1).extent
  done;
  (* a table holds at most twice as many entries as the array has
     elements; an empty one never answers *)
  let cap = 2 * Array.fold_left ( * ) 1 l.orig_extents
  and never = Lang.Interp.Table { lo = 0; values = [||] } in
  let component r =
    let dims =
      List.filter (fun k -> leaf l.out.(k).expr = r) (List.init n Fun.id)
    in
    if List.for_all (fun k -> l.out.(k).expr = D r) dims then
      Lang.Interp.Coef (List.fold_left (fun g k -> g + stride.(k)) 0 dims)
    else begin
      let lo, hi = component_range l r and a' = Array.make rows 0 in
      (* [F_r(x)], or [min_int] where a dimension raises *)
      let value x =
        a'.(r) <- x;
        match
          List.fold_left
            (fun v k -> v + (stride.(k) * eval_dim l.out.(k).expr a'))
            0 dims
        with
        | v -> v
        | exception (Division_by_zero | Invalid_argument _) -> min_int
      in
      if hi - lo >= 0 && hi - lo < cap then
        Lang.Interp.Table
          { lo; values = Array.init (hi - lo + 1) (fun k -> value (lo + k)) }
      else never
    end
  in
  let comps =
    (* a dimension reading a component [U] lacks raises on every index *)
    if Array.exists (fun d -> leaf d.expr < 0 || leaf d.expr >= rows) l.out
    then Array.make rows never
    else Array.init rows component
  in
  Lang.Interp.Separable
    {
      base;
      u = l.u;
      shift = l.a_shift;
      comps;
      whole = (fun a' -> base + (scale * offset_of_transformed l a'));
    }

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
