(** Memory-controller placements.

    A placement assigns each MC an attachment node in the mesh.  The paper
    evaluates the default corner placement (Fig. 8a, "P1") and two
    alternatives enabled by flip-chip packaging (Fig. 26, "P2"/"P3"), plus
    8- and 16-controller variants (Fig. 27).

    Fallible constructors are Result-first: a site set that does not fit
    the mesh is a value error, never an exception. *)

type t = { name : string; nodes : int array }
(** [nodes.(m)] is the mesh node MC [m] attaches to.  MC indices are
    meaningful: the physical-address interleaving maps line/page [i] to MC
    [i mod count], and the layout customization relies on cluster [j]
    being served by MCs [j·k .. j·k+k-1] (see {!Core.Cluster}). *)

val count : t -> int

val of_coords_result : Topology.t -> string -> Coord.t array -> (t, string) result
(** Places MC [m] at [coords.(m)]; an off-mesh site is a value error. *)

val edge_centers : Topology.t -> t
(** P2: MCs at the midpoints of the four edges (top, left, right, bottom).
    Lower average distance-to-controller than the corners. *)

val top_bottom : Topology.t -> t
(** P3: MCs spread along the top and bottom edges. *)

(** {2 Candidate site pools}

    The placement search picks MC attachment sites from a pool.
    [Perimeter] is the paper's packaging assumption (controllers reach
    pins through edge routers); [Flip_chip] additionally admits interior
    nodes, the relaxation that makes the Fig. 26 P2/P3-style layouts one
    corner of a larger space rather than hand-picked alternatives. *)

type pool = Perimeter | Flip_chip

val pool_of_string : string -> (pool, string) result
(** ["perimeter"] or ["flip-chip"]; anything else is a value error. *)

val pool_sites : Topology.t -> pool -> Coord.t array
(** The candidate sites of a pool, in a deterministic order (perimeter
    clockwise, then — for [Flip_chip] — interior row-major). *)

val assign_result :
  Topology.t ->
  name:string ->
  sites:Coord.t array ->
  centroids:Coord.t array ->
  (t, string) result
(** [assign_result t ~name ~sites ~centroids] places MC [j] at the unused
    site closest to [centroids.(j)] (greedy in MC-index order, then 2-opt
    refined).  This aligns MC indices with cluster indices for any site
    set — corners, edge centers, rings — which the interleaved layout
    requires.  Fewer sites than centroids is a value error. *)

val for_centroids_result :
  Topology.t -> name:string -> centroids:Coord.t array -> (t, string) result
(** [for_centroids_result t ~name ~centroids] places one MC per centroid at
    the free perimeter node closest to it (greedy, in MC-index order).  Used
    to attach MC [j] near cluster [j] for arbitrary cluster grids,
    preserving the index correspondence the interleaved layout relies on. *)

(** {2 Neighborhood moves}

    A search state is an ordered site array — MC [m] attached at
    [sites.(m)], so the MC-index ↔ cluster-index correspondence the
    interleaved layout relies on is explicit in the state.  [Swap]
    generalizes the internal 2-opt refinement to an operator; [Relocate]
    extends the neighborhood to unused candidate sites of a pool.  All
    constructors are Result-first: an illegal move is a value error,
    never a silent repair. *)

type move =
  | Relocate of { mc : int; site : Coord.t }
      (** move MC [mc] to the unoccupied [site] *)
  | Swap of { a : int; b : int }  (** exchange the sites of MCs [a], [b] *)

val pp_move : Format.formatter -> move -> unit

val apply_move_result :
  Topology.t -> sites:Coord.t array -> move -> (Coord.t array, string) result
(** The successor state.  Errors: MC index out of range, a relocation
    target off the mesh or already occupied, or a self-swap. *)

val neighborhood : pool:Coord.t array -> sites:Coord.t array -> move list
(** Every legal move from [sites]: relocations of each MC to each
    unoccupied pool site (MC-index major, pool order minor), then all
    pairwise swaps ([a < b]).  Deterministic order, so a first- or
    best-improvement descent is reproducible. *)

val neighborhood_on :
  Topology.t -> pool:Coord.t array -> sites:Coord.t array -> move list
(** {!neighborhood}, reordered for the topology: moves confined to a
    chiplet's site pool first (relocations within the MC's own chiplet,
    swaps of same-chiplet MCs — each group in flat enumeration order),
    then the moves that explicitly cross a boundary.  On a flat mesh this
    is exactly {!neighborhood}. *)

val nearest : t -> Topology.t -> int -> int
(** [nearest p topo node] is the MC whose attachment node is closest to
    [node] (ties broken towards the lower MC index) — what the paper's
    "optimal scheme" assumes every request enjoys. *)

val mc_node : t -> int -> int

val avg_distance : t -> Topology.t -> float
(** Mean over all nodes of the distance to the nearest MC: the static
    figure of merit that favours P2 over P1/P3. *)
