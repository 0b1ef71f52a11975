(** Layout customization (Section 5.3).

    Starting from the Data-to-Core matrix [U] for an array, build the
    final layout that realizes the desired Data-to-MC mapping under the
    hardware's address interleaving:

    - {b Private L2}: strip-mine the data-partition dimension into
      cluster/core coordinates [R(r_v)] and interleave the fastest
      dimension in [k·p]-element chunks, so that consecutive chunks
      rotate over clusters in enumeration order and every off-chip access
      from cluster [j] targets controllers [j·k .. j·k+k-1].
    - {b Shared L2}: first localize on-chip accesses (home bank = owning
      core via [R'(r_v)]), then apply the δ-skip: p-blocks whose mapped
      controller is not adjacent to the desired one are pushed forward,
      trading a small home-bank drift for off-chip locality (localizing
      both perfectly is impossible — Eqs. 4–5).

    Strip-mined extents are padded up to multiples of the strip sizes
    (the paper's intra-array padding), and the simulator aligns array
    bases to [num_mcs·p] elements (base-address padding), which together
    guarantee the chunk-to-controller arithmetic. *)

type l2_kind = Private_l2 | Shared_l2

type config = {
  cluster : Cluster.t;
  topo : Noc.Topology.t;
  placement : Noc.Placement.t;
  l2 : l2_kind;
  p_elems : int;
      (** interleaving unit in elements: L2 line for cache-line
          interleaving, page for page interleaving *)
  elem_bytes : int;
}

val customize :
  config -> array:string -> extents:int array -> u:Affine.Matrix.t -> v:int -> Layout.t
(** The full customization for one array.  [v] is the data-partition
    dimension (of the transformed space). *)

val allowed_mcs : config -> home_thread:int -> bool array
(** For the shared-L2 δ-skip: which controllers are acceptable for data
    whose home bank is [home_thread]'s node — the desired (cluster)
    controllers plus those adjacent to them.  [C] in Algorithm 1 is the
    complement of this set. *)
