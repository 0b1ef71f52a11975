(** Affine array references [r = A·i + o].

    [A] is the [n×m] access matrix mapping an [m]-dimensional iteration
    vector to an [n]-dimensional data vector, and [o] the constant offset
    (paper, Section 5.1). *)

type t = { matrix : Matrix.t; offset : Vec.t }

val make : Matrix.t -> Vec.t -> t
(** Raises [Invalid_argument] if the offset dimension does not match the
    matrix row count. *)

val rank : t -> int
(** Array rank [n] (number of subscripts). *)

val depth : t -> int
(** Loop depth [m] (iteration-vector dimension). *)

val apply : t -> Vec.t -> Vec.t
(** [apply r i] is the data vector [A·i + o] accessed at iteration [i]. *)

val submatrix : t -> u:int -> Matrix.t
(** [submatrix r ~u] is [B]: the access matrix with the [u]-th column (the
    iteration-partition dimension) removed — the coefficient matrix of the
    homogeneous system of Eq. 3. *)

val transform : Matrix.t -> t -> t
(** [transform u r] is the reference after the unimodular layout
    transformation [u]: [r' = U·A·i + U·o]. *)

val pp : Format.formatter -> t -> unit
