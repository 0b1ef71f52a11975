(** Determining the Data-to-Core mapping (Section 5.2).

    For each array, find the row vector [gᵥ] such that iterations in the
    same parallel chunk touch data elements on the same hyperplane
    [gᵥ·a = c]: any two iterations that agree on the parallel iterator
    must map to the same hyperplane, which reduces to the homogeneous
    system [Bᵀ·gᵥᵀ = 0] (Eq. 3) with [B] the access matrix minus the
    iteration-partition column.  With several references, submatrices are
    weighted by trip count and the heaviest solvable system wins.  With
    no constraints (depth-1 nests) the unit vector along [v] solves,
    keeping the original layout. *)

type weighted_ref = {
  access : Affine.Access.t;
  u : int;  (** iteration-partition dimension of this reference's nest *)
  weight : int;  (** estimated dynamic occurrences *)
}

type solution = {
  g : Affine.Vec.t;  (** the data-partition row (primitive) *)
  u_matrix : Affine.Matrix.t;  (** unimodular completion, row [v] = [g] *)
  satisfied_weight : int;
      (** total weight of references whose system [g] also solves *)
  total_weight : int;
}

val satisfies : Affine.Vec.t -> Affine.Access.t -> u:int -> bool
(** Does [g] solve this reference's system? *)

val solve : refs:weighted_ref list -> v:int -> solution option
(** The full multiple-references procedure: group by submatrix, weight,
    solve the heaviest solvable group, complete to a unimodular matrix.
    [None] when no group has a nontrivial solution (array left alone). *)
