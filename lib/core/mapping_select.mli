(** Compiler selection among candidate L2-to-MC mappings (Section 4).

    Fully automatic derivation of the best mapping is impractical, but
    given a candidate set the compiler can weigh (1) distance-to-MC,
    (2) memory-level parallelism and (3) how thin the fixed channel budget
    is spread over active controllers, and pick the most effective
    mapping — the analysis that favours M2 over M1 for fma3d and
    minighost, and the Fig. 27 8/16-MC configurations once the profiled
    bank pressure is high enough to pay for them. *)

type metrics = {
  avg_distance : float;
      (** mean hops from a core to the controllers of its cluster *)
  avg_chiplet_hops : float;
      (** mean chiplet-boundary crossings on those paths; [0.] on a flat
          mesh *)
  mcs_per_cluster : int;  (** [k] — the MLP a cluster enjoys *)
}

val evaluate : Noc.Topology.t -> Cluster.t -> Noc.Placement.t -> metrics
(** Read from a {!table} built for the call.  The placement must attach
    every controller of the cluster shape to a node of the mesh;
    [Invalid_argument] otherwise. *)

type table
(** One cluster shape's distance sums: for every cluster [j] and mesh node
    [s], the total hops and chiplet crossings from the cores of [j] to
    [s].  A placement's {!metrics} then cost one lookup per controller
    instead of one distance per (core, controller) pair — the same
    integer sums, so the same floats. *)

val table : Noc.Topology.t -> Cluster.t -> table
(** [O(cores · nodes)]; build it once per cluster shape and price every
    placement of that shape against it with {!cost}. *)

val estimated_cost :
  Noc.Topology.t ->
  Cluster.t ->
  Noc.Placement.t ->
  bank_pressure:float ->
  float
(** Expected off-chip round-trip cost under the mapping:
    [2·(avg_distance·per_hop + avg_chiplet_hops·(link_latency − per_hop))
    + queue + transfer] — on a flat mesh the chiplet term vanishes and
    the historical formula is unchanged.  The queueing term
    scales with the profiled [bank_pressure] (time-averaged waiting
    requests across the bank queues under the default mapping) divided
    over all [num_mcs·k] controllers a request can queue at, and the
    transfer term grows with the number of active controllers (the
    package's channel budget is fixed, so each of [N] controllers gets
    [1/N] of it). *)

val cost : table -> Noc.Placement.t -> bank_pressure:float -> float
(** {!estimated_cost} against a prebuilt table. *)

type scored = {
  cluster : Cluster.t;
  placement : Noc.Placement.t;
  cost : float;
}

val score :
  Noc.Topology.t ->
  candidates:(Cluster.t * Noc.Placement.t) list ->
  bank_pressure:float ->
  scored list
(** Every candidate with its {!estimated_cost}, cheapest first; exact-cost
    ties break on the cluster name, so the result is invariant under
    permutation of the candidate list. *)

val choose_opt :
  Noc.Topology.t ->
  candidates:(Cluster.t * Noc.Placement.t) list ->
  bank_pressure:float ->
  (Cluster.t * Noc.Placement.t) option
(** Head of {!score}; [None] when the candidate list is empty. *)

val check_pressure : float -> (float, string) result
(** A bank pressure the cost model can price: finite and [>= 0].  A
    negative one would make extra controllers look costlier the more
    loaded the banks are; an infinite one prices every mapping at
    infinity.  Anything else is a one-line error. *)

val bank_pressure_of_stats : Obs.Json.t -> (float, string) result
(** Derives the calibrated bank pressure from a profiled run's stats
    document — a full [simulate --stats-json] / sweep result file
    (snapshot under [.stats.metrics]) or a bare metrics snapshot:
    [mem.queue_cycles / sim.finish_time], i.e. (by Little's law) the
    time-averaged number of requests waiting in bank queues.  The 1.0
    default the pipeline uses corresponds to roughly one perpetually
    queued request platform-wide.  A finish time that is not positive
    and finite, or a pressure {!check_pressure} refuses (a negative
    queue count), is an error. *)
