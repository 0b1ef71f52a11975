(** Exact integer matrices.

    Row-major: a matrix is an array of rows, each row a {!Vec.t}.  These are
    the access matrices [A] of array references ([r = A·i + o]), the
    unimodular layout-transformation matrices [U], and the coefficient
    matrices of the homogeneous systems solved when determining the
    Data-to-Core mapping (paper, Section 5.2). *)

type t = int array array

val identity : int -> t

val rows : t -> int

val cols : t -> int
(** Number of columns; 0 for a matrix with no rows. *)

val of_rows : Vec.t list -> t
(** Builds a matrix from a list of rows.  Raises [Invalid_argument] if the
    rows do not all have the same dimension or the list is empty. *)

val row : t -> int -> Vec.t
(** [row m i] is a copy of the [i]-th row. *)

val col : t -> int -> Vec.t
(** [col m j] is a copy of the [j]-th column. *)

val copy : t -> t

val mul : t -> t -> t
(** Matrix product.  Raises [Invalid_argument] on dimension mismatch. *)

val mul_vec : t -> Vec.t -> Vec.t
(** [mul_vec m v] is [m·v]. *)

val drop_col : t -> int -> t
(** [drop_col m j] removes the [j]-th column: this builds the submatrix [B]
    of an access matrix [A] with the iteration-partition column removed
    (paper, Eq. 3). *)

val equal : t -> t -> bool

val det : t -> int
(** Determinant of a square matrix, computed exactly with the Bareiss
    fraction-free algorithm.  Raises [Invalid_argument] if not square. *)

val is_unimodular : t -> bool
(** A square integer matrix with determinant [±1]. *)

val inverse : t -> t
(** Exact inverse of a unimodular matrix (via the adjugate).  Raises
    [Invalid_argument] if the matrix is not square or not unimodular. *)

val swap_rows : t -> int -> int -> unit

val pp : Format.formatter -> t -> unit
