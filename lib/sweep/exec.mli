(** Worker-side execution of one sweep job: prepare the workload
    (optionally through the layout pass), simulate it, and package the
    full machine-readable result — the same document shape `simulate
    --stats-json` writes, so downstream tooling reads both. *)

val result_json :
  ?attr:Obs.Attr.t ->
  ?extra:(string * Obs.Json.t) list ->
  app:string ->
  Sim.Config.t ->
  Sim.Engine.result ->
  Obs.Json.t
(** [{"app", "config", "stats", "measured_time", "mc_occupancy",
    "mc_row_hit_rate", "mc_max_queue", "link_utilization",
    "pages_allocated"}].  With [attr] (an aggregator the run recorded
    into) the document additionally carries ["attribution"]
    ({!Obs.Attr.to_json}) and ["heatmaps"] (ASCII link-utilization,
    bank-pressure and per-node request grids); without it the shape is
    byte-identical to the pre-attribution format.  [extra] fields (default
    none) are appended verbatim after the standard ones — the
    consolidation server adds its ["scenario"]/["tenants"]/["qos"]
    sections this way. *)

val run_job : Spec.job -> Obs.Json.t
(** Simulates the job and returns its result document.  Raises on
    internal errors (unparseable workload model, simulator invariant) —
    in pool workers that surfaces as a failed attempt, not a sweep
    abort. *)
