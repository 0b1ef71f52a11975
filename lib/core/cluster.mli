(** Clusters and L2-to-MC mappings (Fig. 8).

    A valid L2-to-MC mapping partitions the [cx·nx × cy·ny] mesh into a
    [cx × cy] grid of clusters, each of [nx × ny] cores, and assigns [k]
    controllers to every cluster — the two validity constraints of
    Section 4 (equal cores per cluster, equal MCs per cluster).

    Cluster [j] (in the enumeration below) is served by controllers
    [j·k .. j·k+k-1].  This index correspondence is what the customized
    layout realizes at the address level, so it is fixed here once and
    relied upon everywhere: the interleaved layout makes consecutive
    [k·p]-element chunks rotate over clusters in enumeration order, which
    lands cluster [j]'s data exactly on controllers [j·k .. j·k+k-1].

    Enumeration order of cores within the mesh follows the paper's
    [R(r_v)] formula (Section 5.3): data blocks advance first down a
    cluster column ([ny]), then across cluster rows ([cy]), then along the
    cores of a cluster row ([nx]), then across cluster columns ([cx]); the
    cluster index is [j = Cx·cy + Cy].  Threads are bound to cores in this
    order (footnote 5). *)

type t = {
  name : string;
  width : int;  (** mesh width = cx·nx *)
  height : int;  (** mesh height = cy·ny *)
  cx : int;
  cy : int;
  nx : int;
  ny : int;
  k : int;  (** MCs per cluster *)
}

val make_result :
  name:string ->
  width:int ->
  height:int ->
  cx:int ->
  cy:int ->
  k:int ->
  (t, string) result
(** Derives [nx, ny]; an uneven tiling (validity constraint) is a value
    error. *)

val num_clusters : t -> int

val num_mcs : t -> int
(** [= num_clusters · k]. *)

val num_cores : t -> int

val cores_per_cluster : t -> int

val cluster_of_node : t -> Noc.Topology.t -> int -> int

val mcs_of_cluster : t -> int -> int list
(** The [k] controller indices serving a cluster. *)

val cluster_of_mc : t -> int -> int

val node_of_thread : t -> Noc.Topology.t -> int -> int
(** Mesh node of thread/block [t] under the enumeration above. *)

val thread_of_node : t -> Noc.Topology.t -> int -> int
(** Inverse of {!node_of_thread}. *)

val centroid_of_cluster : t -> int -> Noc.Coord.t
(** Integer centroid, for controller placement. *)

val m1 : width:int -> height:int -> (t, string) result
(** Fig. 8a: one quadrant-shaped cluster per controller, [k = 1] — the
    paper's default mapping.  A mesh the 2×2 cluster grid cannot tile
    evenly is a value error. *)

val m2 : width:int -> height:int -> (t, string) result
(** Fig. 8b: two half-mesh clusters, [k = 2] — trades locality for
    memory-level parallelism. *)

val with_mcs_result :
  width:int -> height:int -> mcs:int -> (t, string) result
(** The Fig. 27 configurations: [mcs] controllers, [k = 1], clusters in as
    square a grid as divides the mesh. *)

val pp : Format.formatter -> t -> unit
