(* report — turn a stats-JSON document (simulate --stats-json, or a sweep
   job's result file) into a self-contained report: headline counters,
   the off-chip attribution table, ASCII mesh/bank heatmaps, and — with
   the compiler's --diag-json — the candidate-mapping cost table.

     simulate apsi --attr --stats-json run.json
     report run.json -o run.md
     report run.json --format html --diag diags.json -o run.html *)

open Cmdliner

let run stats_path diag_path format out title =
  Cli.guard ~name:"report" @@ fun () ->
  match Obs.Json.of_file stats_path with
  | Error e ->
    Printf.eprintf "report: %s\n" e;
    Cli.user_error
  | Ok doc -> (
    let diags =
      match diag_path with
      | None -> Ok None
      | Some p -> (
        match Obs.Json.of_file p with
        | Ok d -> Ok (Some d)
        | Error e ->
          Printf.eprintf "report: %s\n" e;
          Error ())
    in
    match diags with
    | Error () -> Cli.user_error
    | Ok diags -> (
      match Obs.Report.build ?diags doc with
      | Error e ->
        Printf.eprintf "report: %s: %s\n" stats_path e;
        Cli.user_error
      | Ok sections ->
        let title =
          match title with
          | Some t -> t
          | None -> (
            match Obs.Json.member "app" doc with
            | Some (Obs.Json.String a) -> "off-chip report: " ^ a
            | _ -> "off-chip report")
        in
        let body =
          match format with
          | `Md -> Obs.Report.to_markdown ~title sections
          | `Html -> Obs.Report.to_html ~title sections
        in
        match out with
        | None ->
          print_string body;
          Cli.ok
        | Some path -> (
          match
            Out_channel.with_open_text path (fun oc -> output_string oc body)
          with
          | () ->
            Printf.printf "report written to %s\n" path;
            Cli.ok
          | exception Sys_error e ->
            Printf.eprintf "report: %s\n" e;
            Cli.user_error)))

let stats_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"STATS.json"
        ~doc:"Stats-JSON document of one run (simulate --stats-json).")

let diag_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "diag" ] ~docv:"FILE"
        ~doc:
          "Compiler diagnostics (occ --diag-json) to fold in: the C002 \
           candidate-mapping cost table and C003 layout warnings.")

let format_arg =
  Arg.(
    value
    & opt (enum [ ("md", `Md); ("markdown", `Md); ("html", `Html) ]) `Md
    & info [ "format" ] ~docv:"FMT"
        ~doc:"Output format: $(b,md) (default) or $(b,html).")

let out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"FILE"
        ~doc:"Write the report to FILE (default: stdout).")

let title_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "title" ] ~docv:"TITLE"
        ~doc:"Report title (default: derived from the document's app).")

let cmd =
  let doc = "render a run's stats-JSON as a markdown or HTML report" in
  Cmd.v
    (Cmd.info "report" ~doc)
    Term.(const run $ stats_arg $ diag_arg $ format_arg $ out_arg $ title_arg)

let () = exit (Cli.eval cmd)
