(** Discrete-event full-system simulation.

    Each thread replays its access stream on an in-order core with
    blocking misses: L1 hits are charged inline; an L1 miss walks the
    Fig. 2 path for the configured L2 organization, with every network
    leg reserving mesh links (contention) and every off-chip request
    queueing at its FR-FCFS controller.  Top-level nests are separated by
    per-job barriers (OpenMP join).

    Model simplifications (documented in DESIGN.md): L1 writebacks are
    not simulated; concurrent misses to the same line merge (an implicit
    MSHR); caches fill at miss detection.  Under the optimal scheme
    (Section 2), off-chip requests go to the nearest controller and
    complete after an uncontended row-empty access, and writebacks are
    dropped — exactly the idealization the paper describes. *)

type job = {
  name : string;
  phases : Lang.Interp.phase list;
      (** the per-thread access streams of each phase.  Jobs may share
          one [phases] value (a trace placed several times, see
          {!Runner.relocate}): the engine only reads it, and so must
          every other consumer *)
  vaddr_offset : int;
      (** added to every access's virtual address at issue: the job
          replays [phases] shifted by this constant.  A freshly traced
          job has offset 0; a relocated one reuses another job's trace
          at a page-aligned offset *)
  node_of_thread : int array;
      (** mesh node of each of the job's threads (thread binding) *)
  warmup_phases : int;
      (** leading phases (initialization nests) excluded from statistics:
          the real applications amortize initialization over thousands of
          compute iterations while the models run only a few, so counting
          it would grossly overweight transients *)
  site_streams : int array array list;
      (** per-phase access-site id streams, index-parallel to [phases]
          (element [i] of a thread's stream tags access [i]); [[]] runs
          the job untagged — the miss path then skips the site lookup
          entirely *)
  start_time : int;
      (** earliest cycle the job may start — a tenant's arrival time in
          the consolidation server; 0 starts the job at boot (the
          historical behavior) *)
  start_after : int option;
      (** index of a job in the same run that must finish before this
          one starts (a per-slot FIFO admission chain); the job then
          starts at [max start_time predecessor_finish].  [None] (or an
          out-of-range/self index) starts the job at [start_time].
          Chains must be acyclic — a cycle leaves its jobs unstarted. *)
  free_vpage_range : (int * int) option;
      (** inclusive virtual-page range handed back to the shared page
          allocator when the job finishes (tenant departure) — later
          jobs can then reuse the frames *)
}

type result = {
  stats : Stats.t;
  measured_time : int;
      (** finish time minus the warmup barrier: the steady-state execution
          time compared across configurations (max over jobs) *)
  job_measured : int array;  (** per-job steady-state time *)
  job_finish : int array;  (** finish time of each job *)
  job_start : int array;
      (** actual start time of each job — [start_time], or its
          admission-chain predecessor's finish, whichever is later *)
  job_offchip : int array;
      (** per-job measured off-chip accesses; the per-job split of the
          [sim.offchip_accesses] counter, so the sum over jobs always
          equals it *)
  job_fallbacks : int array;
      (** per-job fallback page allocations: pages the job first-touched
          that the allocator could not place on the desired controller *)
  mc_occupancy : float array;  (** per-controller mean queue length *)
  mc_row_hit_rate : float array;
  mc_max_queue : int array;  (** per-controller queue-depth high-water mark *)
  mc_occ_integral : float array;
      (** raw per-controller queue-length integrals (∫depth·dt) behind
          [mc_occupancy] — {!Par_engine} re-divides them by the merged
          run's global horizon so partition occupancies land on the same
          denominator as a sequential run *)
  link_utilization : float array;
      (** per-link-id busy fraction of the run (mesh contention profile) *)
  link_busy : int array;
      (** raw per-link busy cycles behind [link_utilization], summable
          across partitions whose link sets are disjoint *)
  pages_allocated : int;
}

val page_policy :
  ?desired_mc_of_vpage:(int -> int option) ->
  Config.t ->
  Os_sim.Page_alloc.policy
(** The run's page-placement policy: [cfg]'s page policy, with first
    touch (and unhinted MC-aware pages) homed on the head controller of
    the touching node's cluster.  [desired_mc_of_vpage] feeds the
    MC-aware hints; without it every page desires [vpage mod num_mcs]. *)

val run :
  Config.t ->
  ?desired_mc_of_vpage:(int -> int option) ->
  ?trace:Obs.Trace.t ->
  ?attr:Obs.Attr.t ->
  jobs:job list ->
  unit ->
  result
(** [desired_mc_of_vpage] feeds the {e MC-aware} page policy (ignored by
    the others); [None] for a page means "no compiler hint" and the page
    is placed by first touch.

    [trace] (default {!Obs.Trace.disabled}) receives one span per pipeline
    stage of every sampled L1 miss — categories [cache], [noc],
    [mc-queue], [dram] — plus controller queue-depth counter series; the
    sink's sampling knob picks which misses are traced.  With the default
    sink every instrumentation point is a single branch.

    [attr] receives every {e measured} off-chip access — the same gate as
    [sim.offchip_accesses], so the aggregator's total always equals that
    counter — attributed to the access site carried by the job's
    [site_streams] (or the unknown row when untagged).  Supplying [attr]
    also registers the [mem.queue_depth] histogram and the
    [noc.*_link_utilization] gauges in the run's {!Stats} registry; with
    [attr] absent the registry contents (and hence the stats JSON) are
    bit-for-bit those of a plain run, and the record path costs one
    branch per request.

    On a hierarchical platform (a chiplet grid in the topology) the run
    additionally registers the [sim.offchip_cross_chiplet] counter — the
    measured off-chip accesses whose requesting node and serving
    controller sit in different chiplets.  Flat platforms never register
    it, keeping their stats documents byte-identical to the pre-chiplet
    format. *)
