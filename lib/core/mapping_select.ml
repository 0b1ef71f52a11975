type metrics = {
  avg_distance : float;
  avg_chiplet_hops : float;
  mcs_per_cluster : int;
}

(* The mean over (thread, controller-of-its-cluster) pairs splits per
   controller: [Σ_t Σ_{m ∈ mcs(cluster t)} d(node t, site m)] is
   [Σ_m D.(cluster m).(site m)] with [D.(j).(s) = Σ_{t ∈ cluster j}
   d(node t, s)], and likewise for chiplet crossings.  A table holds both
   sums for every (cluster, mesh node) pair, so pricing a placement
   reads one entry per controller.  The sums are integers and there are
   [cores·k] pairs, so the means are the per-thread loop's floats, bit for
   bit. *)
type table = {
  cluster : Cluster.t;
  topo : Noc.Topology.t;
  nodes : int;
  dist : int array;  (** [dist.(j·nodes + s)] *)
  hops : int array;  (** chiplet crossings, same indexing *)
}

let table topo (c : Cluster.t) =
  let nodes = Noc.Topology.nodes topo in
  let dist = Array.make (Cluster.num_clusters c * nodes) 0 in
  let hops = Array.make (Array.length dist) 0 in
  for t = 0 to Cluster.num_cores c - 1 do
    let node = Cluster.node_of_thread c topo t in
    let row = Cluster.cluster_of_node c topo node * nodes in
    for s = 0 to nodes - 1 do
      dist.(row + s) <- dist.(row + s) + Noc.Topology.distance topo node s;
      hops.(row + s) <- hops.(row + s) + Noc.Topology.chiplet_hops topo node s
    done
  done;
  { cluster = c; topo; nodes; dist; hops }

let evaluate_table t placement =
  let c = t.cluster in
  let total = ref 0 and cross = ref 0 in
  for m = 0 to Cluster.num_mcs c - 1 do
    let s = Noc.Placement.mc_node placement m in
    if s < 0 || s >= t.nodes then invalid_arg "Mapping_select: site off the mesh";
    let i = (Cluster.cluster_of_mc c m * t.nodes) + s in
    total := !total + t.dist.(i);
    cross := !cross + t.hops.(i)
  done;
  let count = float_of_int (Cluster.num_cores c * c.k) in
  {
    avg_distance = float_of_int !total /. count;
    avg_chiplet_hops = float_of_int !cross /. count;
    mcs_per_cluster = c.k;
  }

let evaluate topo c placement = evaluate_table (table topo c) placement

(* Cost model constants: per-hop latency from the NoC config, the
   calibrated marginal queue cost per unit of bank-queue pressure, and the
   per-controller transfer cost.

   The queue term divides the profiled pressure across every controller a
   request can be served by ([num_mcs · k] queue positions); at the
   4-controller baseline it reduces to the historical [6 · p / k].  The
   transfer term prices activating more controllers: the package's
   channel/pin budget is fixed, so a mapping that spreads the same budget
   over N controllers leaves each with [1/N] of the transfer bandwidth —
   without it, the Fig. 27 8/16-MC configurations would dominate on
   distance alone and the calibrated pressure could never change the
   choice.  Both weights are calibrated so that, among the 4-MC mappings,
   the M1/M2 crossover sits between the moderate-pressure stencils and the
   two bank-hammering applications (fma3d, minighost) — the choice the
   paper reports its analysis makes. *)
let per_hop = 4.

let queue_weight = 24.0

let xfer_per_mc = 3.0

let cost t placement ~bank_pressure =
  let m = evaluate_table t placement in
  let mcs = Cluster.num_mcs t.cluster in
  (* every hop is priced at the on-die latency; a hop that crosses a
     chiplet boundary additionally pays the link class's extra latency.
     The term is exactly zero on a flat mesh, so flat costs (and the
     selection notes pinned by dev-check) are unchanged. *)
  let cross_extra =
    match t.topo.Noc.Topology.chiplets with
    | None -> 0.
    | Some g -> float_of_int g.Noc.Topology.link_latency -. per_hop
  in
  let network =
    2. *. ((m.avg_distance *. per_hop) +. (m.avg_chiplet_hops *. cross_extra))
  in
  (* queue wait grows with pressure; every controller splits the load *)
  let queue =
    bank_pressure *. queue_weight /. float_of_int (mcs * m.mcs_per_cluster)
  in
  let transfer = xfer_per_mc *. float_of_int mcs in
  network +. queue +. transfer

let estimated_cost topo c placement ~bank_pressure =
  cost (table topo c) placement ~bank_pressure

type scored = {
  cluster : Cluster.t;
  placement : Noc.Placement.t;
  cost : float;
}

let score topo ~candidates ~bank_pressure =
  let scored =
    List.map
      (fun (c, p) ->
        { cluster = c; placement = p;
          cost = estimated_cost topo c p ~bank_pressure })
      candidates
  in
  (* deterministic order: cost, then cluster name — selection must not
     depend on how the caller happened to order the candidate list *)
  List.stable_sort
    (fun a b ->
      match compare a.cost b.cost with
      | 0 -> compare a.cluster.Cluster.name b.cluster.Cluster.name
      | c -> c)
    scored

let choose_opt topo ~candidates ~bank_pressure =
  match score topo ~candidates ~bank_pressure with
  | [] -> None
  | best :: _ -> Some (best.cluster, best.placement)

(* --- bank-pressure calibration ----------------------------------------- *)

let check_pressure p =
  if Float.is_finite p && p >= 0. then Ok p
  else Error (Printf.sprintf "bank pressure %g is not a finite number >= 0" p)

let queue_cycles_name = "mem.queue_cycles"

let finish_time_name = "sim.finish_time"

let bank_pressure_of_snapshot (s : Obs.Metrics.snapshot) =
  match
    ( List.assoc_opt queue_cycles_name s.Obs.Metrics.counters,
      List.assoc_opt finish_time_name s.Obs.Metrics.gauges )
  with
  | None, _ -> Error ("stats have no counter " ^ queue_cycles_name)
  | _, None -> Error ("stats have no gauge " ^ finish_time_name)
  | Some _, Some finish when finish <= 0. || not (Float.is_finite finish) ->
    Error "stats report a non-positive or non-finite finish time"
  | Some queued, Some finish -> check_pressure (float_of_int queued /. finish)

let bank_pressure_of_stats j =
  (* accept either a full stats file (simulate --stats-json / sweep results:
     the snapshot lives at .stats.metrics) or a bare metrics snapshot *)
  let metrics =
    match Obs.Json.member "stats" j with
    | Some stats -> (
      match Obs.Json.member "metrics" stats with Some m -> m | None -> stats)
    | None -> (
      match Obs.Json.member "metrics" j with Some m -> m | None -> j)
  in
  match Obs.Metrics.snapshot_of_json metrics with
  | Error e -> Error ("not a stats file or metrics snapshot: " ^ e)
  | Ok s -> bank_pressure_of_snapshot s
