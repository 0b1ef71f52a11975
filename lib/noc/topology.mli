(** Two-dimensional mesh topology with dimension-ordered (XY) routing.

    Nodes are numbered row-major: node [y·width + x].  Links are directed;
    a message from [a] to [b] first travels along X, then along Y
    (deadlock-free XY routing, as in the simulated platform of Table 1).

    A topology may additionally carry a chiplet level: a [grid_x]×[grid_y]
    grid of equal rectangular tiles (NUMA domains).  Links whose endpoints
    lie in different chiplets form a second link class with its own
    latency and width ([link_latency]/[link_bytes]); everything on-die is
    unchanged.  A flat mesh simply has [chiplets = None], and a 1×1
    chiplet grid is normalized to [None] at construction, so degenerate
    hierarchical machines are structurally equal to — and behave
    byte-identically to — the flat mesh. *)

type chiplets = {
  grid_x : int;  (** chiplet columns; must divide [width] *)
  grid_y : int;  (** chiplet rows; must divide [height] *)
  link_latency : int;  (** per-hop latency of an inter-chiplet link *)
  link_bytes : int;  (** width of an inter-chiplet link *)
}

type t = { width : int; height : int; chiplets : chiplets option }

type dir = East | West | North | South

type link = { from_node : int; dir : dir }
(** The directed link leaving [from_node] towards [dir]. *)

val make : ?chiplets:chiplets -> width:int -> height:int -> unit -> t
(** Raises [Invalid_argument] on a non-positive mesh or a chiplet grid
    that does not tile it; use {!chiplets_result} for a [result]-typed
    construction with a located message. *)

val chiplets_result :
  t ->
  grid_x:int ->
  grid_y:int ->
  link_latency:int ->
  link_bytes:int ->
  (t, string) result
(** [t] with the given chiplet grid, or a message naming the offending
    field (grid must be positive and tile the mesh; latency and width
    must be positive). *)

val nodes : t -> int

val node_of_coord : t -> Coord.t -> int

val coord_of_node : t -> int -> Coord.t

val in_mesh : t -> Coord.t -> bool

val distance : t -> int -> int -> int
(** Manhattan distance between two nodes (= number of links an XY-routed
    message traverses).  Allocates nothing. *)

val num_chiplets : t -> int
(** [1] on a flat mesh. *)

val chiplet_of_node : t -> int -> int
(** Row-major chiplet index of a node; [0] on a flat mesh. *)

val chiplet_of_coord : t -> Coord.t -> int

val chiplet_hops : t -> int -> int -> int
(** Number of chiplet-boundary crossings on the XY route between two
    nodes (= chiplet-grid Manhattan distance); [0] on a flat mesh. *)

val link_crosses_chiplet : t -> link -> bool
(** Whether a link's endpoints lie in different chiplets. *)

val link_id : t -> link -> int
(** Dense link identifier in [0 .. 4·nodes-1], for indexing link state. *)

val num_link_ids : t -> int

val link_ids : t -> src:int -> dst:int -> int array
(** The links traversed from [src] to [dst] under XY routing (X first,
    then Y), as {!link_id}s in traversal order.  Empty when [src = dst]. *)
