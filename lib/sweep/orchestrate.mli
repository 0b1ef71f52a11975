(** Top-level sweep orchestration: cache lookup → process pool → merged
    report.  This is what `bin/sweep run` (and the test suite) drive.

    Resume is the default: a job whose result is already in the cache is
    recorded as [Cached] and never re-executed, so re-invoking a sweep
    after an interrupt, crash or config edit only runs the missing jobs.
    Failed jobs degrade gracefully — they are recorded in the manifest
    with their reason and the rest of the sweep completes. *)

type report = {
  manifest : Manifest.t;
  ran : int;  (** jobs actually executed by this invocation *)
  merged : Obs.Json.t option;
      (** the aggregate document (also written to [DIR/merged.json]);
          [None] when no job has a usable result *)
}

val run_sweep :
  ?workers:int ->
  ?timeout_s:float ->
  ?retries:int ->
  ?backoff_s:float ->
  ?force:bool ->
  ?inject_fail:string ->
  ?log:(string -> unit) ->
  ?progress:Obs.Progress.sink ->
  out:string ->
  Spec.t ->
  report
(** [workers] defaults to 4; [<= 0] runs jobs in-process sequentially
    (the reference mode).  [timeout_s]/[retries] default to the spec's
    values.  [force] ignores (and overwrites) cached results.
    [inject_fail] is a testing knob: any job whose id contains the
    substring crashes its worker ([exit 1]), exercising the retry and
    degradation paths end to end.  [log] receives one progress line per
    job resolution.  [progress] (default {!Obs.Progress.null}) receives
    the live NDJSON event stream — [sweep_start], [job_start],
    [job_retry], [job_finish] (with wall time, ETA and the job's
    measured-time snapshot) and a final [sweep_done] — which
    [sweep status --follow] tails.  The manifest is rewritten atomically
    after every resolution, so a concurrent `sweep status` (or a
    post-mortem after `kill -9`) sees a consistent ledger. *)

val merge_results : out:string -> Manifest.t -> (Obs.Json.t, string) result
(** Re-derives the aggregate document from a directory's manifest and
    cache: per-job measured times plus the merge (via
    {!Obs.Metrics.merge}) of every completed job's metrics registry, in
    spec order — so the merged registry is identical whatever the worker
    count or completion order. *)

val write_merged : out:string -> Obs.Json.t -> string
(** Writes [DIR/merged.json] atomically; returns the path. *)
