(** Conservative parallel discrete-event simulation over mesh partitions.

    The mesh is partitioned by cluster: a partition is a set of clusters
    that can interact — their cores, their memory controllers and the
    mesh links their XY routes traverse — simulated on its own OCaml 5
    domain with its own {!Event_heap}, request pool, caches, network and
    controllers (a whole per-partition {!Engine.run}).  The sequential
    engine stays untouched as the oracle: a parallel run must be
    byte-identical to [--domains 1].

    {b Synchronization.}  A conservative parallel DES lets a partition
    advance to time [t] only once every peer has promised (via a null
    message) not to send it an event before [t]; the promise horizon is
    the {e lookahead} — here the minimum NoC link traversal latency, the
    soonest a message leaving one partition could arrive in another.
    This engine runs the degenerate — and fastest — case of that
    protocol: {!plan} builds the partitions as the connected components
    of "these two clusters could exchange an event", so no event ever
    crosses a partition, every null message carries lookahead +∞ and
    the domains run to completion without blocking once.  When all jobs
    end up in one component the sequential engine runs instead —
    correct for every workload, parallel for decomposable ones.

    {b Why merge order cannot affect results.}  No event crosses a
    partition, so a partition dispatches exactly the sequential run's
    event subsequence for its own jobs (same times, same heap insertion
    order, same jitter streams — foreign jobs keep their list positions
    but carry no phases), and per-partition integer counters, hop
    histograms and per-node/per-MC/per-job arrays are disjoint slices of
    the sequential run's.  The merge adds counters and histograms, takes
    each per-MC and per-job cell from its owning partition, sums
    disjoint per-link busy cycles, and re-divides the raw occupancy
    integrals and link busy cycles by the merged horizon
    [max 1 finish_time] — every operation is either a sum over disjoint
    supports or a per-cell copy, so no ordering of partitions can change
    a byte of the output. *)

type partition = {
  part_clusters : int list;  (** the clusters it simulates (ascending) *)
  part_mcs : int list;  (** their controllers (ascending) *)
  part_jobs : int list;  (** indices of the jobs it runs (ascending) *)
}

type plan =
  | Parallel of partition array  (** in ascending lowest-cluster order *)
  | Sequential of string  (** not decomposable — the reason why *)

val plan :
  Config.t ->
  ?desired_mc_of_vpage:(int -> int option) ->
  jobs:Engine.job list ->
  unit ->
  plan
(** The partitions: connected components of the clusters over the jobs'
    precomputed access traces, each at its job's [vaddr_offset] (a trace
    shared by several jobs is scanned once).  Two clusters join when a
    job's threads span them, an admission chain links their jobs, a
    virtual page is touched from both, a job's freed range covers a page
    the other touched, a page's home controller
    ({!Os_sim.Page_alloc.home_mc}
    under the run's policy and [desired_mc_of_vpage] hints) sits in the
    other, under [--optimal] a thread's nearest controller sits in the
    other, or the XY routes between the components' nodes and controller
    sites share a mesh link.  Each component that runs jobs is a
    partition; fewer than two is [Sequential], naming the join that
    merged the last two (e.g. ["virtual page 812 joins clusters 0 and
    2"]).  Shared L2, line interleaving, a job without threads, an
    address offset that is not a whole number of pages, a desired
    controller out of range and a controller over its frame budget are
    [Sequential] whatever the components. *)

val run :
  Config.t ->
  ?desired_mc_of_vpage:(int -> int option) ->
  ?trace:Obs.Trace.t ->
  ?attr:Obs.Attr.t ->
  ?on_plan:(string -> unit) ->
  domains:int ->
  jobs:Engine.job list ->
  unit ->
  Engine.result
(** Same contract as {!Engine.run} plus [domains]: with [domains <= 1],
    an enabled [trace], or a [Sequential] plan it simply calls
    {!Engine.run}; otherwise it runs one {!Engine.run} per partition on
    [min domains partitions] worker domains and merges the results.
    Either way the result is byte-identical to the sequential engine's
    ([stats] JSON included) — the CI oracle holds this to account.
    [on_plan] receives a one-line description of the plan (the
    partition/worker layout, or the fallback reason) exactly once per
    call.
    [attr] cubes are cloned per partition and the partitions' snapshots
    absorbed back in ascending partition order. *)
