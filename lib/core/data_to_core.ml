module Vec = Affine.Vec
module Matrix = Affine.Matrix
module Access = Affine.Access

type weighted_ref = { access : Access.t; u : int; weight : int }

type solution = {
  g : Vec.t;
  u_matrix : Matrix.t;
  satisfied_weight : int;
  total_weight : int;
}

let constraints_of access ~u =
  let b = Access.submatrix access ~u in
  (* columns of B, i.e. rows of Bᵀ *)
  List.init (Matrix.cols b) (fun j -> Matrix.col b j)
  |> List.filter (fun c -> not (Vec.is_zero c))

let kernel_for ~rank ~v = function
  | [] -> Some (Vec.unit rank v)
  | constraints ->
    let m = Matrix.of_rows constraints in
    Affine.Gauss.kernel_vector m

let satisfies g access ~u =
  List.for_all (fun c -> Vec.dot g c = 0) (constraints_of access ~u)

(* Group references by their (submatrix, u) signature; equal signatures
   yield the same system. *)
let group_refs refs =
  let groups : (Matrix.t * weighted_ref list ref) list ref = ref [] in
  List.iter
    (fun r ->
      let b = Access.submatrix r.access ~u:r.u in
      match List.find_opt (fun (b', _) -> Matrix.equal b b') !groups with
      | Some (_, l) -> l := r :: !l
      | None -> groups := (b, ref [ r ]) :: !groups)
    refs;
  List.map (fun (b, l) -> (b, !l)) !groups

let solve ~refs ~v =
  match refs with
  | [] -> None
  | r0 :: _ ->
    let rank = Access.rank r0.access in
    let total_weight = List.fold_left (fun a r -> a + r.weight) 0 refs in
    let groups = group_refs refs in
    let weight_of (_, members) =
      List.fold_left (fun a r -> a + r.weight) 0 members
    in
    let sorted =
      List.sort (fun a b -> compare (weight_of b) (weight_of a)) groups
    in
    (* heaviest solvable group wins (Algorithm 1, lines 18-26) *)
    let rec attempt = function
      | [] -> None
      | (_, members) :: rest -> (
        let r = List.hd members in
        match
          kernel_for ~rank ~v (constraints_of r.access ~u:r.u)
        with
        | None -> attempt rest
        | Some g ->
          let u_matrix = Affine.Unimodular.complete_row g ~v in
          let satisfied_weight =
            List.fold_left
              (fun a r -> if satisfies g r.access ~u:r.u then a + r.weight else a)
              0 refs
          in
          Some { g; u_matrix; satisfied_weight; total_weight })
    in
    attempt sorted
