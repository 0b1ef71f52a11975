(** Bit scans on native ints, for bitsets walked one set bit at a time
    (the directory's holder sets, the event queue's bucket bitmap). *)

val lowest : int -> int
(** [lowest x] is the index of the lowest set bit of [x], which must be
    non-zero.  Every bit counts, the sign bit (62 on a 64-bit host)
    included. *)
