(** Exact integer elimination: column echelon form and integer nullspaces.

    The Data-to-Core mapping step of the paper (Section 5.2) reduces to
    solving the homogeneous system [Bᵀ·gᵥᵀ = 0] over the integers (Eq. 3),
    where [B] is the access matrix with the iteration-partition column
    removed.  We solve it by bringing the coefficient matrix to column
    echelon form with unimodular column operations; the columns of the
    accumulated transformation corresponding to vanished columns are an
    integer basis of the kernel lattice. *)

val column_echelon : Matrix.t -> Matrix.t * Matrix.t * int
(** [column_echelon m] is [(h, c, rank)] such that [m·c = h], [c] is
    unimodular, [h] is in column echelon form (each successive pivot row
    strictly below the previous; columns beyond [rank] are zero). *)

val kernel_vector : Matrix.t -> Vec.t option
(** [kernel_vector m] is a primitive nontrivial solution of [m·x = 0], or
    [None] when only the trivial solution exists.  Among the basis vectors
    it prefers the one with the fewest nonzero entries (and then the
    smallest max-norm), so that unit-vector solutions — which correspond to
    plain dimension permutations and therefore to the cheapest transformed
    code — are chosen when available. *)

val solve : Matrix.t -> Vec.t -> Vec.t option
(** [solve m b] is a particular integer solution of [m·x = b], or [None]
    when none exists over the integers.  Used by the loop-restructuring
    comparator to compute uniform dependence distances ([A·d = o₁-o₂]). *)
