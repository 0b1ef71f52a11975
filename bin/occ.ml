(* occ — the off-chip access localization compiler driver.

   Parses a mini-language program (a file, or one of the built-in
   application models), runs it through the staged pass pipeline (parse,
   check, analyze, solve, mapping, customize, rewrite, verify, codegen)
   for the requested platform, and prints the transformed program
   together with the per-array report.

     occ examples/jacobi.mc
     occ --app apsi --l2 shared --report
     occ --app hpccg --interleave page --layouts
     occ examples/jacobi.mc --emit solve
     occ examples/jacobi.mc --diag-json diags.json
     occ --app apsi --mapping auto --platform mesh8x8-mc8 \
         --calibrate stats.json --timings

   Exit codes: 0 success, 1 user error (bad flags, diagnostics of error
   severity), 2 internal error. *)

open Cmdliner

let read_source file app =
  match (file, app) with
  | Some f, None -> (
    match
      let ic = open_in_bin f in
      let src = really_input_string ic (in_channel_length ic) in
      close_in ic;
      src
    with
    | src -> Ok (Core.Pipeline.Source { file = f; src }, Some src, None)
    | exception Sys_error e -> Error e)
  | None, Some name ->
    Result.map
      (fun app ->
        (Core.Pipeline.Program (Workloads.App.program app), None, Some app))
      (Workloads.Suite.by_name_result name)
  | Some _, Some _ -> Error "give either a file or --app, not both"
  | None, None -> Error "give a source file or --app NAME"

let why_kept_to_string = function
  | Core.Transform.Index_array -> "index array (never transformed)"
  | Core.Transform.No_parallel_reference -> "no parallel affine reference"
  | Core.Transform.No_solution -> "only the trivial mapping exists"
  | Core.Transform.Bad_approximation f ->
    Printf.sprintf "indexed-access fit %.2f above threshold" f

(* --explain: one block per array saying what Algorithm 1 decided and why,
   with the reference weight the chosen layout localizes. *)
let explain_report (rep : Core.Transform.report) =
  List.iter
    (fun (d : Core.Transform.decision) ->
      let name = d.Core.Transform.info.Lang.Analysis.decl.Lang.Ast.name in
      let extents = d.Core.Transform.info.Lang.Analysis.extents in
      let dims =
        String.concat "x" (Array.to_list (Array.map string_of_int extents))
      in
      let pct =
        if d.Core.Transform.total_weight = 0 then 0.
        else
          100.
          *. float_of_int d.Core.Transform.satisfied_weight
          /. float_of_int d.Core.Transform.total_weight
      in
      Format.printf "// %-10s [%s] " name dims;
      (match d.Core.Transform.kept with
      | None ->
        Format.printf "OPTIMIZED  refs satisfied %d/%d (%.0f%%)@,//   %a@."
          d.Core.Transform.satisfied_weight d.Core.Transform.total_weight pct
          Core.Layout.pp d.Core.Transform.layout
      | Some why ->
        Format.printf "kept       %s@." (why_kept_to_string why)))
    rep.Core.Transform.decisions

let print_diags ?src diags =
  List.iter
    (fun d -> Format.eprintf "%a@." (Lang.Diag.pp ?src) d)
    diags

let write_diag_json ?src path diags =
  let doc = Lang.Diag.list_to_json ?src diags in
  if String.equal path "-" then Ok (Obs.Json.to_channel stdout doc)
  else Obs.Json.to_file path doc

(* an output that cannot be written ends the run: exit 1, one line *)
let written = function
  | Ok () -> ()
  | Error e ->
    Printf.eprintf "occ: %s\n" e;
    exit Cli.user_error

let run file app platform l2 interleave mapping calibrate
    search_out search_pool search_seed report layouts explain timings emit_c
    emit verify diag_json =
  Cli.guard ~name:"occ" @@ fun () ->
  let emit_stage =
    match emit with
    | None -> Ok None
    | Some s -> (
      match Core.Pipeline.stage_of_string s with
      | Some st -> Ok (Some st)
      | None ->
        Error
          (Printf.sprintf "unknown stage %S (stages: %s)" s
             (String.concat ", " Core.Pipeline.stage_names)))
  in
  match emit_stage with
  | Error e ->
    prerr_endline ("occ: " ^ e);
    Cli.user_error
  | Ok emit_stage -> (
  match read_source file app with
  | Error e ->
    prerr_endline ("occ: " ^ e);
    Cli.user_error
  | Ok (source, src, app) -> (
    (* --mapping auto: let the pipeline's cost model choose among every
       mapping the platform can realize; the platform keeps its own
       mapping while the candidates are enumerated from it.
       --mapping search: additionally run the placement search and let
       the searched machine compete with the presets. *)
    let auto = String.equal mapping "auto" in
    let searching = String.equal mapping "search" in
    let cfg_result =
      Sim.Config.build ~scaled:false ~platform ~l2 ~interleave
        ~mapping:(if auto || searching then "" else mapping) ()
    in
    let pressure_result =
      match calibrate with
      | None -> Ok 1.0
      | Some path ->
        Result.map_error
          (fun e -> "--calibrate " ^ e)
          (Obs.Json.decode_file path Core.Mapping_select.bank_pressure_of_stats)
    in
    let search_result =
      match Noc.Placement.pool_of_string search_pool with
      | Error _ as e -> e
      | Ok pool ->
        if searching then
          Ok
            (Some
               {
                 Core.Place_search.default_params with
                 Core.Place_search.pool;
                 seed = search_seed;
               })
        else if search_out <> None then
          Error "--search-out requires --mapping search"
        else Ok None
    in
    match (cfg_result, pressure_result, search_result) with
    | Error e, _, _ | _, Error e, _ | _, _, Error e ->
      prerr_endline ("occ: " ^ e);
      Cli.user_error
    | Ok cfg, Ok bank_pressure, Ok search ->
      let ccfg = Sim.Config.customize_config cfg in
      let profile =
        Option.map
          (fun a ->
            let analysis = Lang.Analysis.analyze (Workloads.App.program a) in
            fun arr -> Workloads.Profile.for_transform a analysis arr)
          app
      in
      let result =
        Core.Pipeline.compile ~verify ?profile ~bank_pressure
          ?platform:
            (if auto || searching then Some (Sim.Config.platform cfg) else None)
          ?search
          ?codegen:(if emit_c <> None then Some "kernel" else None)
          ~cfg:ccfg source
      in
      (match (search_out, result.Core.Pipeline.artifacts.Core.Pipeline.search) with
      | Some path, Some outcome ->
        written
          (Obs.Json.to_file path
             (Core.Platform.to_json outcome.Core.Place_search.platform));
        Format.eprintf "// searched platform written to %s@." path
      | Some _, None ->
        prerr_endline "occ: the placement search produced no platform"
      | None, _ -> ());
      print_diags ?src result.Core.Pipeline.diags;
      Option.iter
        (fun path ->
          written (write_diag_json ?src path result.Core.Pipeline.diags))
        diag_json;
      let rep = result.Core.Pipeline.artifacts.Core.Pipeline.report in
      let transformed =
        result.Core.Pipeline.artifacts.Core.Pipeline.transformed
      in
      (match emit_stage with
      | Some st -> (
        match Core.Pipeline.emit result st with
        | Some dump -> print_endline dump
        | None -> prerr_endline "occ: the pipeline did not reach that stage")
      | None ->
        Option.iter
          (fun rep ->
            if report then Format.printf "// %a@." Core.Transform.pp_report rep;
            if explain then explain_report rep;
            if layouts then
              List.iter
                (fun d ->
                  if d.Core.Transform.optimized then
                    Format.printf "// %a@." Core.Layout.pp
                      d.Core.Transform.layout)
                rep.Core.Transform.decisions)
          rep;
        (match (emit_c, result.Core.Pipeline.artifacts.Core.Pipeline.c_code) with
        | Some path, Some c ->
          written
            (try Ok (Out_channel.with_open_text path (fun oc -> output_string oc c))
             with Sys_error e -> Error e);
          Format.printf "// C code written to %s@." path
        | _ -> ());
        Option.iter
          (fun t -> Format.printf "%a@." Lang.Ast.pp_program t)
          transformed);
      if timings then begin
        Format.printf "%a@." Obs.Phase_timer.pp result.Core.Pipeline.timer;
        Format.printf "bank pressure: %.3f%s@." bank_pressure
          (match calibrate with
          | Some path -> Printf.sprintf " (calibrated from %s)" path
          | None -> " (default)");
        Option.iter
          (fun scored ->
            List.iter
              (fun (s : Core.Mapping_select.scored) ->
                Format.printf "  candidate %-8s estimated cost %8.1f  (%s)@."
                  s.Core.Mapping_select.cluster.Core.Cluster.name
                  s.Core.Mapping_select.cost
                  s.Core.Mapping_select.placement.Noc.Placement.name)
              scored)
          result.Core.Pipeline.artifacts.Core.Pipeline.mapping_scores
      end;
      if result.Core.Pipeline.ok then Cli.ok else Cli.user_error))

let file_arg =
  Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Source file.")

let app_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "app" ] ~docv:"NAME" ~doc:"Use a built-in application model.")

let mapping =
  Arg.(
    value & opt string ""
    & info [ "mapping" ] ~docv:"MAP"
        ~doc:
          "L2-to-MC mapping: M1, M2, a controller count (8, 16), auto \
           to let the mapping-selection pass choose among every mapping \
           the platform can realize (M1, M2 and the 8/16-controller \
           configurations its controller budget admits) by estimated \
           cost, or search to additionally run the placement search \
           (deterministic seeded local search over MC sites, cluster \
           shapes and controller counts) and let the searched machine \
           compete with the presets.  Default: the platform's own \
           mapping.")

let calibrate =
  Arg.(
    value
    & opt (some string) None
    & info [ "calibrate" ] ~docv:"STATS.json"
        ~doc:
          "Calibrate the mapping-selection cost model from a profiled \
           run: STATS.json is a simulate --stats-json (or sweep result) \
           file, from which the bank pressure — time-averaged requests \
           waiting in bank queues, mem.queue_cycles / sim.finish_time — \
           is derived.  Default pressure: 1.0.")

let search_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "search-out" ] ~docv:"PLATFORM.json"
        ~doc:
          "With --mapping search: write the searched platform as a JSON \
           file that simulate --platform, sweep specs and bench \
           --platform accept.  Byte-identical across runs with the same \
           seed.")

let search_pool =
  Arg.(
    value & opt string "perimeter"
    & info [ "search-pool" ] ~docv:"POOL"
        ~doc:
          "Candidate MC sites for the placement search: perimeter (the \
           paper's packaging assumption) or flip-chip (perimeter plus \
           interior nodes).")

let search_seed =
  Arg.(
    value & opt int 0
    & info [ "search-seed" ] ~docv:"N"
        ~doc:
          "Seed for the placement search's random restarts; the same \
           seed reproduces the search exactly.")

let report =
  Arg.(value & flag & info [ "report" ] ~doc:"Print the per-array report.")

let layouts =
  Arg.(value & flag & info [ "layouts" ] ~doc:"Print the chosen layouts.")

let explain =
  Arg.(
    value & flag
    & info [ "explain" ]
        ~doc:
          "Print, for every array, what Algorithm 1 decided and why: the \
           chosen layout and the reference weight it satisfies, or the \
           reason the array kept its original layout.")

let timings =
  Arg.(
    value & flag
    & info [ "timings" ] ~doc:"Print per-pass wall times.")

let emit_c =
  Arg.(
    value
    & opt (some string) None
    & info [ "emit-c" ] ~docv:"FILE"
        ~doc:"Also write the transformed program as C with OpenMP pragmas.")

let emit =
  Arg.(
    value
    & opt (some string) None
    & info [ "emit" ] ~docv:"STAGE"
        ~doc:
          "Print one pipeline stage's artifact instead of the default \
           output: ast, analysis, solve, mapping, report, transformed, or \
           c.")

let verify =
  Arg.(
    value
    & opt ~vopt:true (enum [ ("on", true); ("off", false) ]) true
    & info [ "verify" ] ~docv:"on|off"
        ~doc:
          "Run the inter-pass verifier (unimodularity, solution recheck, \
           home-table bijectivity, layout bounds, sampled semantic \
           equivalence, and — with --emit-c — the emitted-C access \
           replay).  On by default; --verify=off disables it.")

let diag_json =
  Arg.(
    value
    & opt (some string) None
    & info [ "diag-json" ] ~docv:"FILE"
        ~doc:
          "Write all diagnostics as a JSON array to FILE (- for stdout).")

let cmd =
  let doc = "compiler-guided off-chip access localization (PLDI 2015)" in
  Cmd.v
    (Cmd.info "occ" ~doc)
    Term.(
      const run $ file_arg $ app_arg $ Cli.platform $ Cli.l2 $ Cli.interleave
      $ mapping $ calibrate $ search_out
      $ search_pool $ search_seed $ report $ layouts $ explain $ timings
      $ emit_c $ emit $ verify $ diag_json)

let () = exit (Cli.eval cmd)
