(** Mesh coordinates.

    [(x, y)] with [x] the column (0 at the left) and [y] the row (0 at the
    top), matching the paper's figures of the 8×8 mesh. *)

type t = { x : int; y : int }

val make : int -> int -> t

val manhattan : t -> t -> int

val equal : t -> t -> bool
