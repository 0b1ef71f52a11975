(** DDR3-1600 timing model, expressed in CPU cycles.

    The platform of Table 1 uses Micron DDR3-1600 parts (tCK = 1.25 ns)
    with a 2 GHz core clock (0.5 ns), i.e. 2.5 CPU cycles per memory
    cycle.  We precompute the three service times the controller needs:

    - row-buffer hit: tCAS + tBURST
    - empty row (closed bank): tRCD + tCAS + tBURST
    - row conflict: tRP + tRCD + tCAS + tBURST

    with the JEDEC DDR3-1600 11-11-11 grade (tCAS = tRCD = tRP = 11 memory
    cycles).  The transfer unit is one 256 B L2 line = four BL8 bursts =
    16 memory cycles of data-bus occupancy. *)

type t = {
  row_hit : int;  (** service time on a row-buffer hit *)
  row_empty : int;  (** service time when the bank has no open row *)
  row_conflict : int;  (** service time when another row is open *)
  burst : int;  (** data-bus occupancy per access *)
}

val ddr3_1600 : t
