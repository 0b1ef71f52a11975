(* serve — run an open-system multi-tenant consolidation scenario on the
   shared simulator and print per-tenant QoS.

     serve examples/serve/smoke.json
     serve examples/serve/smoke.json --policy interleaved
     serve examples/serve/smoke.json --seed 7 --stats-json out.json
     serve --smoke --attr --progress serve.ndjson *)

open Cmdliner

let load_scenario path smoke =
  match (path, smoke) with
  | None, false ->
    Error "serve: pass a scenario JSON file (or --smoke for the built-in one)"
  | Some _, true -> Error "serve: --smoke conflicts with a scenario file"
  | None, true -> Ok (Serve.Scenario.smoke ())
  | Some path, false ->
    Result.map_error
      (fun e -> "serve: " ^ e)
      (Obs.Json.decode_file path Serve.Scenario.of_json)

let override sc policy seed =
  let sc =
    match policy with
    | None -> Ok sc
    | Some p ->
      Result.map
        (fun policy -> { sc with Serve.Scenario.policy })
        (Serve.Scenario.policy_of_string p)
  in
  Result.map
    (fun sc ->
      match seed with
      | None -> sc
      | Some seed -> { sc with Serve.Scenario.seed })
    sc

let print_tenants fmt (run : Serve.Server.t) =
  Format.fprintf fmt "@[<v>%-3s %-12s %4s %9s %9s %9s %9s %8s %9s %9s@,"
    "id" "app" "slot" "arrival" "start" "finish" "latency" "slowdown"
    "offchip" "fallback";
  List.iter
    (fun (t : Serve.Server.tenant) ->
      Format.fprintf fmt "%-3d %-12s %4d %9d %9d %9d %9d %8.3f %9d %9d@,"
        t.Serve.Server.id t.app t.slot t.arrival t.start t.finish
        (Serve.Server.completion_latency t)
        t.slowdown t.offchip t.fallbacks)
    run.Serve.Server.tenants;
  Format.fprintf fmt "@]"

let run_cmd path smoke policy seed attr progress stats_json domains =
  Cli.guard ~name:"serve" @@ fun () ->
  match Cli.check_domains domains with
  | Error e ->
    Printf.eprintf "serve: %s\n" e;
    Cli.user_error
  | Ok () -> (
  match Result.bind (load_scenario path smoke) (fun sc -> override sc policy seed)
  with
  | Error e ->
    prerr_endline e;
    Cli.user_error
  | Ok sc -> (
    let progress_sink =
      match progress with
      | None -> Ok Obs.Progress.null
      | Some path -> Obs.Progress.file_sink path
    in
    match progress_sink with
    | Error e ->
      prerr_endline ("serve: " ^ e);
      Cli.user_error
    | Ok sink -> (
      let on_plan =
        if domains > 1 then Some (fun s -> Format.printf "engine: %s@." s)
        else None
      in
      let result = Serve.Server.run ~attr ~progress:sink ~domains ?on_plan sc in
      Obs.Progress.close sink;
      match result with
      | Error e ->
        prerr_endline ("serve: " ^ e);
        Cli.user_error
      | Ok run ->
        Format.printf "scenario %s: %d tenants, policy %s, seed %d on %a@."
          sc.Serve.Scenario.name
          (List.length run.Serve.Server.tenants)
          (Serve.Scenario.policy_to_string sc.Serve.Scenario.policy)
          sc.Serve.Scenario.seed Sim.Config.pp run.Serve.Server.cfg;
        Format.printf "%a@." print_tenants run;
        let q = run.Serve.Server.qos in
        Format.printf
          "weighted speedup %.3f | completion latency p50 %d p95 %d p99 %d | \
           fallback allocations %d | avg queue wait %.1f@."
          q.Serve.Server.weighted_speedup q.p50_latency q.p95_latency
          q.p99_latency q.total_fallbacks q.avg_queue_wait;
        (match run.Serve.Server.attr with
        | Some a ->
          Format.printf "off-chip attribution:@.%a@." Obs.Attr.pp_table
            (Obs.Attr.snapshot a)
        | None -> ());
        (match stats_json with
        | None -> Cli.ok
        | Some out -> (
          match Obs.Json.to_file out (Serve.Server.result_json run) with
          | Ok () ->
            Format.printf "stats written to %s@." out;
            Cli.ok
          | Error e ->
            Printf.eprintf "serve: %s\n" e;
            Cli.user_error)))))

let scenario_arg =
  Arg.(
    value
    & pos 0 (some string) None
    & info [] ~docv:"SCENARIO" ~doc:"Scenario JSON file.")

let smoke_arg =
  Arg.(
    value & flag
    & info [ "smoke" ] ~doc:"Run the built-in golden smoke scenario.")

let policy_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "policy" ] ~docv:"POLICY"
        ~doc:
          "Override the scenario's placement policy (interleaved, \
           first-touch or mc-aware).")

let seed_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "seed" ] ~docv:"N"
        ~doc:
          "Override the scenario's seed (arrival process, app lottery and \
           engine jitter).")

let attr_arg =
  Arg.(
    value & flag
    & info [ "attr" ]
        ~doc:
          "Attribute off-chip accesses to tenants' access sites (arrays \
           prefixed t<id>:<app>/) and print the table.")

let progress_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "progress" ] ~docv:"FILE"
        ~doc:
          "Write tenant lifecycle events (arrive/start/finish, NDJSON) to \
           a progress file.")

let stats_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "stats-json" ] ~docv:"FILE"
        ~doc:
          "Write the full result document (engine stats plus scenario, \
           per-tenant and QoS sections) as JSON.")

let cmd =
  let doc = "serve a multi-tenant consolidation scenario" in
  Cmd.v
    (Cmd.info "serve" ~doc)
    Term.(
      const run_cmd $ scenario_arg $ smoke_arg $ policy_arg $ seed_arg
      $ attr_arg $ progress_arg $ stats_json_arg $ Cli.domains)

let () = exit (Cli.eval cmd)
