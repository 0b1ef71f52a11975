(** Open-system multi-tenant consolidation server.

    Tenants arrive on a seeded Poisson-like (geometric inter-arrival)
    process, are bound round-robin to core slots, and run co-scheduled on
    one engine instance sharing a single {!Os_sim.Page_alloc} pool: each
    tenant's pages are placed under the scenario policy (MC-aware uses
    the tenant's own compiled layout hints, falling back to first touch),
    per-MC frame budgets are enforced, and a departing tenant's whole
    address slice is reclaimed for later arrivals.  When a slot is busy
    the next tenant queues behind it (FIFO admission per slot, wired as
    an {!Sim.Engine.job} [start_after] chain), so queue wait is part of
    each tenant's completion latency.

    Each app of the mix is traced once: its canonical preparation (slot
    0 of slice 0, which is also its solo calibration run) is
    {!Sim.Runner.relocate}d to every tenant's slice and core slot, so
    all tenants of one app share one read-only trace.

    Everything is deterministic in (scenario, seed): arrival times, the
    app lottery, placement and the engine itself — two runs of the same
    scenario produce byte-identical result documents. *)

type tenant = {
  id : int;
  app : string;
  slot : int;  (** core slot ([slot * threads_per_tenant] core offset) *)
  arrival : int;  (** arrival cycle *)
  start : int;  (** actual start (arrival, or slot predecessor's finish) *)
  finish : int;
  measured : int;  (** steady-state execution time in the co-run *)
  solo : int;  (** the same tenant alone on an idle machine *)
  slowdown : float;  (** measured / solo — the per-tenant QoS headline *)
  offchip : int;  (** measured off-chip accesses attributed to this tenant *)
  fallbacks : int;  (** pages denied their desired controller *)
}

val queue_wait : tenant -> int
val completion_latency : tenant -> int

type qos = {
  weighted_speedup : float;  (** (1/n) Σ solo_i / measured_i *)
  p50_latency : int;  (** completion-latency percentiles (nearest rank) *)
  p95_latency : int;
  p99_latency : int;
  total_fallbacks : int;
  avg_queue_wait : float;
}

type t = {
  scenario : Scenario.t;
  cfg : Sim.Config.t;
  engine : Sim.Engine.result;
  tenants : tenant list;  (** in admission order; [id] = engine job index *)
  qos : qos;
  attr : Obs.Attr.t option;
      (** combined per-tenant attribution cube (site arrays prefixed
          [t<id>:<app>/]) when requested *)
}

val run :
  ?attr:bool ->
  ?progress:Obs.Progress.sink ->
  ?domains:int ->
  ?on_plan:(string -> unit) ->
  Scenario.t ->
  (t, string) result
(** Runs the scenario.  [attr] (default false) additionally attributes
    every measured off-chip access to the owning tenant's access sites.
    [domains] (default 1) runs the co-scheduled engine pass through
    {!Sim.Par_engine} — byte-identical results for every value; a
    first-touch scenario whose tenants are cluster-confined
    (threads_per_tenant ≤ a cluster's threads) actually parallelizes,
    anything else falls back with the reason passed to [on_plan].  The
    per-tenant solo calibration runs stay sequential.
    [progress] receives tenant lifecycle events ([tenant_arrive],
    [tenant_start], [tenant_finish], then [serve_done]) in simulated-time
    order. *)

val result_json : t -> Obs.Json.t
(** The {!Sweep.Exec.result_json} document (["app"] = ["serve:<name>"]),
    extended with ["scenario"], ["tenants"] and ["qos"] sections — the
    shape [report] renders the per-tenant QoS table from. *)
