(* The reference layout evaluator: [a' = U·a + a_shift] through
   [Matrix.mul_vec] and [Vec.add], then every output dimension's [/],
   [mod] and table lookup walked recursively.  [Core.Layout.addr_map]
   turns the same arithmetic into per-component tables; this copy is
   kept only as the oracle it is checked against (test_core.ml,
   test_interp.ml), so it favours being obviously right over being
   fast. *)

module Layout = Core.Layout

let rec eval_dim e a' =
  match e with
  | Layout.D i -> a'.(i)
  | Layout.Div (e, k) -> eval_dim e a' / k
  | Layout.Mod (e, k) -> eval_dim e a' mod k
  | Layout.Perm (e, t) -> t.(eval_dim e a')

let offset (l : Layout.t) a =
  let a' = Affine.Vec.add (Affine.Matrix.mul_vec l.Layout.u a) l.Layout.a_shift in
  Array.fold_left
    (fun off (d : Layout.out_dim) -> (off * d.Layout.extent) + eval_dim d.Layout.expr a')
    0 l.Layout.out
