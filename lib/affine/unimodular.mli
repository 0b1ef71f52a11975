(** Completion of a primitive row to a unimodular matrix.

    Once the Data-to-Core step has determined the data-partition row
    [gᵥ] (Section 5.2), the layout transformation needs a full unimodular
    matrix [U] whose [v]-th row is [gᵥ]: the remaining rows are free, and
    the paper fills them "such that U is unimodular" (Algorithm 1,
    lines 7–12).  This module performs that completion constructively. *)

val complete_row : Vec.t -> v:int -> Matrix.t
(** [complete_row g ~v] is a unimodular matrix [u] with [row u v = g].
    [g] must be primitive (component gcd 1) and nonzero; raises
    [Invalid_argument] otherwise.  The other rows are chosen so that, when
    [g] is a unit vector, [u] is a pure dimension permutation (the common
    case, producing the cheapest transformed subscripts). *)
