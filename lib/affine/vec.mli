(** Exact integer vectors.

    Vectors are the basic currency of the polyhedral machinery: iteration
    vectors, data vectors, hyperplane normals and affine offsets are all
    values of type {!t}.  All arithmetic is exact (native [int]); the
    dimensions involved in loop-nest analysis are tiny (loop depth and array
    rank are at most a handful), so overflow is not a practical concern. *)

type t = int array

val zero : int -> t
(** [zero n] is the [n]-dimensional zero vector. *)

val unit : int -> int -> t
(** [unit n i] is the [n]-dimensional unit vector with 1 at position [i]
    (0-based).  Raises [Invalid_argument] if [i] is out of range. *)

val dim : t -> int
(** Number of components. *)

val of_list : int list -> t

val copy : t -> t

val add : t -> t -> t
(** Component-wise sum.  Raises [Invalid_argument] on dimension mismatch. *)

val sub : t -> t -> t
(** Component-wise difference. *)

val neg : t -> t

val scale : int -> t -> t
(** [scale k v] multiplies every component by [k]. *)

val dot : t -> t -> int
(** Inner product.  Raises [Invalid_argument] on dimension mismatch. *)

val is_zero : t -> bool

val equal : t -> t -> bool

val content : t -> int
(** [content v] is the gcd of all components (0 for the zero vector). *)

val primitive : t -> t
(** [primitive v] divides [v] by its content, yielding a primitive vector
    (components with gcd 1).  The zero vector is returned unchanged.  The
    sign is normalized so that the first nonzero component is positive. *)

val pp : Format.formatter -> t -> unit
(** Prints as [(a, b, c)]. *)

val to_string : t -> string
