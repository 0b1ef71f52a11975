(* sweep — parallel experiment orchestration over the simulator.

     sweep run spec.json -j 4 --out results/       # execute (resumes)
     sweep run spec.json -j 0 --out results/       # sequential reference
     sweep status results/                         # live or post-mortem
     sweep status results/ --follow                # tail live progress
     sweep merge results/                          # rebuild merged.json

   `run` shards the spec's (config × app × optimized) product across
   forked workers, caches each job's stats under results/cache/<hash>.json
   keyed by (config, workload, code version), and merges completed
   registries into results/merged.json.  Re-running executes only the
   missing jobs; failed jobs are recorded in manifest.json instead of
   aborting the sweep.

   Exit codes: 0 all jobs completed, 3 sweep finished but some jobs
   failed, 1 bad spec/usage, 2 cmdliner usage error. *)

open Cmdliner

let run_cmd spec_file out jobs timeout retries backoff force seq inject_fail
    quiet =
  match Sweep.Spec.load spec_file with
  | Error e ->
    Printf.eprintf "sweep: %s\n" e;
    1
  | Ok spec ->
    let workers = if seq then 0 else jobs in
    let log = if quiet then fun _ -> () else fun s -> Printf.printf "%s\n%!" s in
    if not quiet then
      Printf.printf "sweep %s: %d jobs, %s\n%!" spec.Sweep.Spec.name
        (Array.length spec.Sweep.Spec.jobs)
        (if workers <= 0 then "sequential (in-process)"
         else Printf.sprintf "%d workers" workers);
    (* live progress stream: one NDJSON event per line, tailed by
       `sweep status DIR --follow` from another terminal *)
    (try Unix.mkdir out 0o755 with Unix.Unix_error _ -> ());
    let progress =
      match
        Sweep.Progress_file.sink_for out
      with
      | Ok s -> s
      | Error e ->
        Printf.eprintf "sweep: progress stream disabled: %s\n" e;
        Obs.Progress.null
    in
    let report =
      Sweep.Orchestrate.run_sweep ~workers ?timeout_s:timeout ?retries
        ~backoff_s:backoff ~force ?inject_fail ~log ~progress ~out spec
    in
    Obs.Progress.close progress;
    let ok, cached, failed, pending =
      Sweep.Manifest.summary report.Sweep.Orchestrate.manifest
    in
    if not quiet then begin
      Printf.printf "%s: %d jobs | ok %d | cached %d | failed %d%s\n"
        spec.Sweep.Spec.name
        (Array.length spec.Sweep.Spec.jobs)
        ok cached failed
        (if pending > 0 then Printf.sprintf " | pending %d" pending else "");
      match report.Sweep.Orchestrate.merged with
      | Some _ ->
        Printf.printf "merged registry: %s\n"
          (Filename.concat out "merged.json")
      | None -> Printf.printf "no merged registry (no completed jobs)\n"
    end;
    if failed > 0 || pending > 0 then 3 else 0

(* one human line per progress event *)
let print_event ev =
  let str k = match Obs.Json.member k ev with
    | Some (Obs.Json.String s) -> s
    | _ -> "?"
  in
  let num k = match Obs.Json.member k ev with
    | Some (Obs.Json.Int n) -> string_of_int n
    | Some (Obs.Json.Float f) -> Printf.sprintf "%.1f" f
    | _ -> "?"
  in
  (match str "event" with
  | "sweep_start" ->
    Printf.printf "sweep %s: %s jobs (%s to run, %s cached)\n" (str "sweep")
      (num "jobs") (num "to_run") (num "cached")
  | "job_start" ->
    Printf.printf "start  %-30s attempt %s\n" (str "job") (num "attempt")
  | "job_retry" ->
    Printf.printf "retry  %-30s attempt %s failed: %s\n" (str "job")
      (num "attempt") (str "reason")
  | "job_finish" ->
    Printf.printf "%-6s %-30s [%s done, %s left, eta %ss]%s\n" (str "status")
      (str "job") (num "resolved") (num "remaining") (num "eta_s")
      (match Obs.Json.member "measured_time" ev with
      | Some (Obs.Json.Int t) -> Printf.sprintf " measured_time=%d" t
      | _ -> "")
  | "sweep_done" ->
    Printf.printf "done   ok %s | cached %s | failed %s (%ss)\n" (num "ok")
      (num "cached") (num "failed") (num "elapsed_s")
  | e -> Printf.printf "%s\n" (if e = "?" then "unrecognized event" else e));
  flush stdout

let is_done ev =
  match Obs.Json.member "event" ev with
  | Some (Obs.Json.String "sweep_done") -> true
  | _ -> false

let status_cmd out follow timeout =
  if follow then begin
    match
      Obs.Progress.follow ~timeout_s:timeout ~stop:is_done
        ~on_event:print_event
        (Sweep.Progress_file.path out)
    with
    | Ok () -> 0
    | Error e ->
      Printf.eprintf "sweep: %s\n" e;
      1
  end
  else
    match Sweep.Manifest.load ~dir:out with
    | Error e ->
      Printf.eprintf "sweep: %s\n" e;
      1
    | Ok m ->
      let ok, cached, failed, pending = Sweep.Manifest.summary m in
      Printf.printf "%s: %d jobs | ok %d | cached %d | failed %d | pending %d\n"
        m.Sweep.Manifest.sweep
        (Array.length m.Sweep.Manifest.entries)
        ok cached failed pending;
      Array.iter
        (fun (e : Sweep.Manifest.entry) ->
          match e.Sweep.Manifest.status with
          | Sweep.Manifest.Failed reason ->
            Printf.printf "  failed %-30s attempts %d: %s\n" e.Sweep.Manifest.id
              e.Sweep.Manifest.attempts reason
          | Sweep.Manifest.Pending ->
            Printf.printf "  pending %s\n" e.Sweep.Manifest.id
          | _ -> ())
        m.Sweep.Manifest.entries;
      0

let merge_cmd out =
  match Sweep.Manifest.load ~dir:out with
  | Error e ->
    Printf.eprintf "sweep: %s\n" e;
    1
  | Ok m -> (
    match Sweep.Orchestrate.merge_results ~out m with
    | Error e ->
      Printf.eprintf "sweep: %s\n" e;
      1
    | Ok doc ->
      let path = Sweep.Orchestrate.write_merged ~out doc in
      Printf.printf "merged registry: %s\n" path;
      0)

let spec_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"SPEC" ~doc:"Sweep specification (JSON).")

let out_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "out"; "o" ] ~docv:"DIR"
        ~doc:"Output directory (manifest, cache, merged report).")

let dir_pos =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"DIR" ~doc:"A sweep output directory.")

let jobs_arg =
  Arg.(
    value & opt int 4
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:"Worker processes; 0 runs the jobs sequentially in-process.")

let timeout_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "timeout" ] ~docv:"SECONDS"
        ~doc:"Per-job wall-clock budget (overrides the spec).")

let retries_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "retries" ] ~docv:"K"
        ~doc:"Extra attempts after a crash/timeout (overrides the spec).")

let backoff_arg =
  Arg.(
    value & opt float 0.5
    & info [ "backoff" ] ~docv:"SECONDS"
        ~doc:"Base retry backoff, doubling per attempt.")

let force_arg =
  Arg.(
    value & flag
    & info [ "force" ] ~doc:"Re-execute jobs even when cached results exist.")

let seq_arg =
  Arg.(
    value & flag
    & info [ "sequential" ]
        ~doc:"Run in-process without forking (same as --jobs 0).")

let inject_fail_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "inject-fail" ] ~docv:"SUBSTR"
        ~doc:
          "Testing: crash the worker of every job whose id contains \
           SUBSTR (exercises retry and graceful-degradation paths).")

let quiet_arg =
  Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"No per-job progress output.")

let run_c =
  Cmd.v
    (Cmd.info "run" ~doc:"execute a sweep spec (resumes from the cache)")
    Term.(
      const run_cmd $ spec_arg $ out_arg $ jobs_arg $ timeout_arg
      $ retries_arg $ backoff_arg $ force_arg $ seq_arg $ inject_fail_arg
      $ quiet_arg)

let follow_arg =
  Arg.(
    value & flag
    & info [ "follow"; "f" ]
        ~doc:
          "Tail the directory's live progress stream (progress.ndjson), \
           printing each event as it lands, until the sweep finishes.")

let follow_timeout_arg =
  Arg.(
    value & opt float 600.
    & info [ "timeout" ] ~docv:"SECONDS"
        ~doc:
          "With --follow: give up after this long without a sweep_done \
           event (bounded, so a crashed sweep cannot hang a CI job).")

let status_c =
  Cmd.v
    (Cmd.info "status"
       ~doc:"summarize a sweep directory's manifest, or tail its progress")
    Term.(const status_cmd $ dir_pos $ follow_arg $ follow_timeout_arg)

let merge_c =
  Cmd.v
    (Cmd.info "merge" ~doc:"rebuild merged.json from cached results")
    Term.(const merge_cmd $ dir_pos)

let cmd =
  let doc = "parallel experiment orchestration for the offchip simulator" in
  Cmd.group (Cmd.info "sweep" ~doc) [ run_c; status_c; merge_c ]

let () = exit (Cli.eval cmd)
