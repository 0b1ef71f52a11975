(** Declarative sweep specifications.

    A spec is a JSON document describing the cartesian product of
    simulator configurations × workloads × compiler on/off, plus the
    execution knobs of the run (per-job timeout, retry budget):

    {v
    {
      "name": "fig16",
      "seed": 0,
      "apps": ["apsi", "swim"],
      "optimized": [false, true],
      "timeout_s": 300,
      "retries": 2,
      "configs": [
        { "name": "line-private", "platform": "mesh8x8-mc4",
          "interleave": "line", "l2": "private", "policy": "hardware",
          "mapping": "M1", "tpc": 1, "optimal": false, "scaled": true,
          "seed": 0 }
      ]
    }
    v}

    Every config field is optional and defaults to the scaled baseline
    platform ({!Sim.Config.scaled} semantics); [platform] is a
    {!Core.Platform} preset name or JSON file — the only way to name the
    machine ([mesh<W>x<H>-mc4] for another mesh size); [interleave] and
    [mapping] re-configure it, and [""] (their default) keeps the
    platform's own; [search] ([true] or
    [{"seed", "pool", "restarts", "pressure"}], [restarts >= 0] and
    [pressure] per {!Core.Mapping_select.check_pressure}) runs the
    deterministic
    {!Core.Place_search} and substitutes the searched machine for the
    config's platform — the searched placement name embeds a site digest,
    so cached results on different searched machines never collide;
    [seed] at the top level is the default for configs that do not set
    their own.  [expand] flattens the product into one job per
    (config, app, optimized) triple. *)

type job = {
  id : string;  (** ["<config>/<app>/<orig|opt>"], unique within a spec *)
  config : Sim.Config.t;
  app : string;  (** a {!Workloads.Suite} name, validated at load time *)
  optimized : bool;
}

type t = {
  name : string;
  jobs : job array;  (** in spec order — aggregation order is fixed *)
  timeout_s : float;  (** per-job wall-clock budget (default 300) *)
  retries : int;  (** extra attempts after the first (default 2) *)
}

val of_json : Obs.Json.t -> (t, string) result

val load : string -> (t, string) result
(** Reads and parses a spec file; any problem (unreadable file, JSON
    syntax, unknown top-level, config or [search] field, unknown app or
    config value) is a one-line [Error]. *)

val job_identity : job -> Obs.Json.t
(** The canonical description of what a job computes — every
    {!Sim.Config.t} field (the platform's full geometry, NoC and DRAM
    timing included), app and optimization flag — hashed (together with
    the code version) into its result-cache key. *)
