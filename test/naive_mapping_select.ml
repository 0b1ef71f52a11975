(* The reference cost model: the per-thread loop that walks every
   (core, controller-of-its-cluster) pair.  [Core.Mapping_select] prices
   a placement from per-(cluster, site) distance sums instead; this copy
   is kept only as the oracle it is checked against
   (test_place_search.ml), so it favours being obviously right over
   being fast. *)

open Core

let evaluate topo (c : Cluster.t) placement =
  let cores = Cluster.num_cores c in
  let total = ref 0 and cross = ref 0 and count = ref 0 in
  for t = 0 to cores - 1 do
    let node = Cluster.node_of_thread c topo t in
    let cluster = Cluster.cluster_of_node c topo node in
    List.iter
      (fun m ->
        let mc = Noc.Placement.mc_node placement m in
        total := !total + Noc.Topology.distance topo node mc;
        cross := !cross + Noc.Topology.chiplet_hops topo node mc;
        incr count)
      (Cluster.mcs_of_cluster c cluster)
  done;
  {
    Mapping_select.avg_distance = float_of_int !total /. float_of_int !count;
    avg_chiplet_hops = float_of_int !cross /. float_of_int !count;
    mcs_per_cluster = c.k;
  }

(* The same constants and formula as the library's cost model. *)
let per_hop = 4.

let queue_weight = 24.0

let xfer_per_mc = 3.0

let estimated_cost topo c placement ~bank_pressure =
  let m = evaluate topo c placement in
  let mcs = Cluster.num_mcs c in
  let cross_extra =
    match topo.Noc.Topology.chiplets with
    | None -> 0.
    | Some g -> float_of_int g.Noc.Topology.link_latency -. per_hop
  in
  let network =
    2.
    *. ((m.Mapping_select.avg_distance *. per_hop)
       +. (m.Mapping_select.avg_chiplet_hops *. cross_extra))
  in
  let queue =
    bank_pressure *. queue_weight
    /. float_of_int (mcs * m.Mapping_select.mcs_per_cluster)
  in
  let transfer = xfer_per_mc *. float_of_int mcs in
  network +. queue +. transfer
