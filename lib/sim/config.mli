(** Simulation parameters over a {!Core.Platform} (Table 1).

    The machine description — topology, cluster mapping, controller
    placement, interleaving and address-map sizes — lives in the embedded
    {!Core.Platform.t}; this record adds only the simulation-side knobs
    (cache sizes, latencies, DRAM timing, scheduling policies, seeds).
    The simulator reads the platform through the accessors below so the
    compiler and simulator consume one shared description.

    The [default] configuration reproduces Table 1: 8×8 mesh, two-issue
    in-order cores, 16 KB 2-way L1s with 64 B lines, 256 KB 16-way L2s
    with 256 B lines (per node), latencies 2/10/4 (L1/L2/hop), four
    corner controllers with FR-FCFS and DDR3-1600 timing, 4 KB pages and
    row buffers, cache-line interleaving, mapping M1.

    The [scaled] configuration shrinks the caches (keeping line sizes and
    associativity ratios) so that the scaled-down working sets of the
    workload models exercise the off-chip path in seconds instead of
    hours; every experiment uses it unless stated otherwise.  Relative
    results are what the paper's evaluation is about. *)

type l2_org = Core.Customize.l2_kind = Private_l2 | Shared_l2

type page_policy = Hardware | First_touch | Mc_aware

type t = {
  platform : Core.Platform.t;
  l2_org : l2_org;
  page_policy : page_policy;
  l1_size : int;
  l1_line : int;
  l1_ways : int;
  l2_size : int;  (** per node *)
  l2_ways : int;
  l1_latency : int;
  l2_latency : int;
  directory_latency : int;
  noc : Noc.Network.config;
  timing : Dram.Timing.t;
  mc_scheduler : Dram.Fr_fcfs.scheduler;
  mc_row_policy : Dram.Fr_fcfs.row_policy;
  compute_cycles : int;  (** issue cost charged per access *)
  jitter : bool;
      (** add deterministic per-thread issue jitter (0..compute_cycles-1
          extra cycles per access).  Identical replayed streams would
          otherwise keep a cluster's threads in perfect lockstep, sending
          synchronized miss bursts to one controller — decorrelation real
          cores get for free from microarchitectural noise *)
  threads_per_core : int;
  optimal : bool;  (** Section 2's optimal scheme *)
  frames_per_mc : int;
  seed : int;
      (** deterministic seed mixed into the per-thread jitter streams:
          runs with equal configurations and seeds are bit-reproducible,
          different seeds decorrelate replicated experiments.  [0] (the
          default) reproduces the historical jitter streams exactly *)
}

val default : unit -> t

val scaled : unit -> t

(** {2 Platform accessors} *)

val platform : t -> Core.Platform.t

val topo : t -> Noc.Topology.t

val cluster : t -> Core.Cluster.t

val placement : t -> Noc.Placement.t

val interleaving : t -> Dram.Address_map.interleaving

val l2_line : t -> int
(** The platform's [line_bytes]. *)

val page_bytes : t -> int

val elem_bytes : t -> int

val banks_per_mc : t -> int

val channels_per_mc : t -> int

val num_mcs : t -> int

(** {2 Functional updates} *)

val with_platform : t -> Core.Platform.t -> t

val with_cluster : t -> Core.Cluster.t -> (t, string) result
(** Replaces the mapping and recomputes a matching placement; a cluster
    that does not tile the platform's mesh is a value error. *)

val with_placement : t -> Noc.Placement.t -> (t, string) result
(** Replaces the controller placement; a site count that differs from the
    platform's controller count is a value error. *)

val with_interleaving : t -> Dram.Address_map.interleaving -> t

val with_channels_per_mc : t -> int -> t

val mesh : width:int -> height:int -> t -> (t, string) result
(** Re-targets the configuration to another mesh size (Fig. 21),
    rebuilding cluster and placement; a mesh M1 cannot tile evenly is a
    value error. *)

(** {2 Derived views} *)

val address_map : t -> Dram.Address_map.t

val customize_config : t -> Core.Customize.config
(** The pass-side view of this platform (p = line or page in elements). *)

val build :
  ?scaled:bool ->
  ?platform:string ->
  ?l2:string ->
  ?interleave:string ->
  ?policy:string ->
  ?mapping:string ->
  ?tpc:int ->
  ?optimal:bool ->
  ?seed:int ->
  unit ->
  (t, string) result
(** Builds a configuration from the string/scalar knobs the CLIs and
    sweep specs expose ([platform] a preset name or JSON file per
    {!Core.Platform.of_spec}, [""] for the [mesh8x8-mc4] preset; [l2]
    private|shared; [interleave] line|page, or [""] to keep the
    platform's own interleaving; [policy] hardware|first-touch|mc-aware;
    [mapping] M1|M2|MC-count, or [""] to keep the platform's own
    mapping).  Returns a one-line error instead of raising on invalid
    values. *)

val to_json : t -> Obs.Json.t
(** Scalar platform parameters (mesh, caches, controllers, policies) —
    embedded in the machine-readable stats so a results file records the
    configuration that produced it.  Hierarchical platforms additionally
    carry a ["hierarchy"] member (chiplet grid and inter-chiplet link
    class); flat platforms' documents are byte-identical to the
    pre-chiplet format. *)

val pp : Format.formatter -> t -> unit
