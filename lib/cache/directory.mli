(** L2 tag directory for the private-L2 organization.

    With per-core private L2s, an L2 miss consults a centralized directory
    cached at the memory controller that owns the line (paper, Fig. 2a).
    The directory knows which private L2s hold a copy and either forwards
    the request to a sharer (on-chip transfer) or issues an off-chip
    access.  Holders are tracked per line as a bitset sized to the node
    count, so any mesh works, stored in place in one open-addressed
    table keyed by line address; an update or a lookup allocates nothing
    unless the table grows.  Line addresses are non-negative. *)

type t

val create : nodes:int -> t
(** Raises [Invalid_argument] unless [nodes] is positive. *)

val add_holder : t -> line:int -> node:int -> unit
(** Raises [Invalid_argument] unless [0 <= node < nodes]. *)

val remove_holder : t -> line:int -> node:int -> unit
(** No effect when [node] does not hold the line. *)

val holders : t -> line:int -> int list
(** Nodes currently holding the line, ascending. *)

val closest_holder : t -> line:int -> excluding:int -> distance:int array -> int
(** The holder [h] minimizing [distance.(h)] (e.g. the requester's row of
    hop counts), the lowest-numbered one among equally distant holders,
    or [-1] if no L2 but [excluding] holds the line.  [excluding] removes
    the requester itself from consideration (it is registered as a holder
    as soon as its fill is in flight); pass [-1] to exclude nobody.
    [distance] must cover every node. *)

val clear : t -> unit
