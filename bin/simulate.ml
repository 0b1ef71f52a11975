(* simulate — run one application model through the full-system simulator
   and print the statistics the paper reports.

     simulate apsi
     simulate apsi --optimized
     simulate fma3d --optimized --mapping M2
     simulate swim --interleave page --policy first-touch
     simulate apsi --optimal             # the Section 2 optimal scheme *)

open Cmdliner

let run name optimized platform l2 interleave policy mapping tpc optimal
    full_scale seed show_map dump_trace stats_json trace_out
    trace_sample attr_on domains replicate =
  Cli.guard ~name:"simulate" @@ fun () ->
  if trace_sample < 1 then (
    Printf.eprintf "simulate: --trace-sample must be at least 1 (got %d)\n"
      trace_sample;
    Cli.user_error)
  else
  match Cli.check_domains domains with
  | Error e ->
    Printf.eprintf "simulate: %s\n" e;
    Cli.user_error
  | Ok () -> (
  match Workloads.Suite.by_name_result name with
  | Error e ->
    prerr_endline ("simulate: " ^ e);
    Cli.user_error
  | Ok app -> (
    match
      Sim.Config.build ~scaled:(not full_scale) ~platform ~l2 ~interleave
        ~policy ~mapping ~tpc ~optimal ~seed ()
    with
    | Error e ->
      prerr_endline ("simulate: " ^ e);
      Cli.user_error
    | Ok cfg ->
      let program = Workloads.App.program app in
      let analysis = Lang.Analysis.analyze program in
      let index_lookup = Workloads.App.index_lookup app in
      let profile a = Workloads.Profile.for_transform app analysis a in
      Format.printf "%s on %a@." app.Workloads.App.name Sim.Config.pp cfg;
      if show_map then print_string (Sim.Platform_map.render cfg);
      let jobs =
        if replicate then
          Sim.Runner.prepare_replicas cfg ~optimized ~name
            ~warmup_phases:app.Workloads.App.warmup_nests ~index_lookup
            ?profile:(if optimized then Some profile else None)
            ~attr:attr_on program
        else if optimized then
          [
            Sim.Runner.prepare cfg ~optimized:true
              ~warmup_phases:app.Workloads.App.warmup_nests ~index_lookup
              ~profile ~attr:attr_on program;
          ]
        else
          [
            Sim.Runner.prepare cfg ~optimized:false
              ~warmup_phases:app.Workloads.App.warmup_nests ~index_lookup
              ~attr:attr_on program;
          ]
      in
      let prepared = List.hd jobs in
      (match dump_trace with
      | Some path -> (
        try
          let job = prepared.Sim.Runner.job in
          Sim.Tracefile.dump path job;
          Format.printf "trace (%d accesses%s) written to %s@."
            (Sim.Tracefile.total_accesses job.Sim.Engine.phases)
            (if job.Sim.Engine.site_streams = [] then "" else ", site-tagged")
            path
        with Sys_error e ->
          Printf.eprintf "simulate: cannot write trace: %s\n" e;
          exit 1)
      | None -> ());
      let trace =
        match trace_out with
        | Some _ -> Obs.Trace.create ~sample:trace_sample ()
        | None -> Obs.Trace.disabled
      in
      let attr =
        if attr_on then Some (Sim.Runner.attr_for cfg prepared) else None
      in
      let on_plan =
        if domains > 1 then Some (fun s -> Format.printf "engine: %s@." s)
        else None
      in
      let r = Sim.Runner.run_many ~trace ?attr ~domains ?on_plan cfg ~jobs in
      let written = function
        | Ok () -> ()
        | Error e ->
          Printf.eprintf "simulate: %s\n" e;
          exit Cli.user_error
      in
      Option.iter
        (fun path ->
          written (Obs.Trace.write_file trace path);
          Format.printf
            "trace: %d events (%d dropped, 1 in %d misses) written to %s@."
            (List.length (Obs.Trace.events trace))
            (Obs.Trace.dropped trace) (Obs.Trace.sample trace) path)
        trace_out;
      Option.iter
        (fun path ->
          written
            (Obs.Json.to_file path
               (Sweep.Exec.result_json ?attr ~app:name cfg r));
          Format.printf "stats written to %s@." path)
        stats_json;
      (match attr with
      | Some a ->
        Format.printf "off-chip attribution:@.%a@."
          Obs.Attr.pp_table (Obs.Attr.snapshot a)
      | None -> ());
      Format.printf "%a@." Sim.Stats.pp_summary r.Sim.Engine.stats;
      Format.printf "steady-state execution time: %d cycles@."
        r.Sim.Engine.measured_time;
      Format.printf "controller occupancy:";
      Array.iter (fun o -> Format.printf " %.2f" o) r.Sim.Engine.mc_occupancy;
      Format.printf "@.row-buffer hit rate:";
      Array.iter (fun o -> Format.printf " %.2f" o) r.Sim.Engine.mc_row_hit_rate;
      Format.printf "@.";
      Cli.ok))

let name_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"APP" ~doc:"Application model to simulate.")

let optimized =
  Arg.(value & flag & info [ "optimized" ] ~doc:"Apply the layout pass first.")

let tpc =
  Arg.(
    value & opt int 1
    & info [ "threads-per-core" ] ~docv:"N" ~doc:"Threads per core.")

let optimal =
  Arg.(
    value & flag
    & info [ "optimal" ] ~doc:"Idealized optimal scheme (Section 2).")

let full_scale =
  Arg.(
    value & flag
    & info [ "full-scale" ]
        ~doc:"Use the Table 1 cache sizes instead of the scaled ones.")

let seed =
  Arg.(
    value & opt int 0
    & info [ "seed" ] ~docv:"N"
        ~doc:
          "Deterministic seed for the issue-jitter streams; equal seeds \
           give bit-identical runs.")

let show_map =
  Arg.(
    value & flag
    & info [ "map" ] ~doc:"Draw the mesh, clusters and controllers first.")

let dump_trace =
  Arg.(
    value
    & opt (some string) None
    & info [ "dump-trace" ] ~docv:"FILE"
        ~doc:"Write the per-thread access trace to a file.")

let stats_json =
  Arg.(
    value
    & opt (some string) None
    & info [ "stats-json" ] ~docv:"FILE"
        ~doc:
          "Write the run's statistics (configuration, every registry \
           metric, derived averages) as JSON.")

let trace_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Record request-path spans and write them in Chrome trace_event \
           format (open in chrome://tracing or Perfetto; 1 cycle = 1 us).")

let trace_sample =
  Arg.(
    value & opt int 1
    & info [ "trace-sample" ] ~docv:"N"
        ~doc:"Trace every Nth L1 miss (with --trace-out; default every one).")

let attr_arg =
  Arg.(
    value & flag
    & info [ "attr" ]
        ~doc:
          "Attribute every off-chip access to its source reference: print \
           the per-site table (array, R/W, source span, per-controller \
           split, hops, queue delay) and add attribution plus ASCII \
           heatmap sections to --stats-json and site tags to \
           --dump-trace.")

let replicate_arg =
  Arg.(
    value & flag
    & info [ "replicate" ]
        ~doc:
          "Run one confined copy of the application per cluster (disjoint \
           virtual slices, threads bound inside the cluster) instead of one \
           whole-machine job — the decomposable workload the parallel \
           engine (--domains) actually speeds up.")

let cmd =
  let doc = "simulate an application on the NoC manycore platform" in
  Cmd.v
    (Cmd.info "simulate" ~doc)
    Term.(
      const run $ name_arg $ optimized $ Cli.platform $ Cli.l2 $ Cli.interleave
      $ Cli.policy $ Cli.mapping $ tpc $ optimal
      $ full_scale $ seed $ show_map $ dump_trace $ stats_json $ trace_out
      $ trace_sample $ attr_arg $ Cli.domains $ replicate_arg)

let () = exit (Cli.eval cmd)
