(* gen_golden — regenerate the committed golden snapshots under
   test/golden/.

     dune exec test/gen_golden.exe -- golden/seed0_stats.json
     dune exec test/gen_golden.exe -- --attr golden/seed0_attr.txt
     dune exec test/gen_golden.exe -- --emits test/golden
     dune exec test/gen_golden.exe -- --dram test/golden
     dune exec test/gen_golden.exe -- --division test/golden
     dune exec test/gen_golden.exe -- --search test/golden
     dune exec test/gen_golden.exe -- --trace test/golden

   The seed-0 stats golden pins the simulator's observable behavior: the
   engine refactors (event heap, request pool, route memoization) must
   keep it byte-identical.  The --dram goldens pin the same run under
   the memory controller's non-default paths, the --division goldens on
   geometries whose address steps are exact divisions.  The --emits goldens pin the compiler
   pipeline's stage dumps (occ --emit) for jacobi and hpccg.  The --search
   goldens pin the placement search as occ runs it.  The --trace goldens
   pin the trace-file writer (simulate --dump-trace) in both versions.
   Regenerating either is legitimate only when a change intentionally
   alters the simulated timing model or the pass artifacts — never to
   absorb an accidental behavior change; say why in the commit that
   updates them. *)

let small_src =
  {|
param N = 64;
array A[N][N];
array B[N][N];
parfor i = 1 to N-2 { for j = 0 to N-1 { A[i][j] = B[i][j] + B[i-1][j] + B[i+1][j]; } }
|}

let parse src =
  match Lang.Parser.parse_result src with
  | Ok p -> p
  | Error (d :: _) -> failwith (Lang.Diag.to_string d)
  | Error [] -> failwith "parse failed"

let stats_golden path =
  let cfg = Sim.Config.scaled () in
  let program = parse small_src in
  let r = Sim.Runner.run cfg ~optimized:false program in
  let doc = Sweep.Exec.result_json ~app:"golden-small" cfg r in
  match path with
  | Some path ->
    let oc = open_out path in
    Obs.Json.to_channel oc doc;
    close_out oc;
    Printf.printf "golden written to %s\n" path
  | None -> print_string (Obs.Json.to_string doc)

(* The seed-0 attribution table: the same run as the stats golden but
   with site tagging on, so the table pins site numbering, per-site
   counts and the pp_table rendering all at once.  The stats golden
   itself stays attribution-free — its byte-identity across the
   attribution feature is part of what the suite checks. *)
let attr_golden path =
  let cfg = Sim.Config.scaled () in
  let program = parse small_src in
  let p = Sim.Runner.prepare cfg ~optimized:false ~attr:true program in
  let attr = Sim.Runner.attr_for cfg p in
  let (_ : Sim.Engine.result) =
    Sim.Runner.run_many ~attr cfg ~jobs:[ p ]
  in
  let table =
    Format.asprintf "%a" Obs.Attr.pp_table (Obs.Attr.snapshot attr)
  in
  match path with
  | Some path ->
    let oc = open_out path in
    output_string oc table;
    close_out oc;
    Printf.printf "golden written to %s\n" path
  | None -> print_string table

(* The seed-0 stats run under each non-default DRAM path: strict FCFS,
   closed-page rows and a single channel per controller.  The ablation
   rows are the only other runs that take these paths. *)
let dram_goldens dir =
  let base = Sim.Config.scaled () in
  let program = parse small_src in
  List.iter
    (fun (name, cfg) ->
      let r = Sim.Runner.run cfg ~optimized:false program in
      let path = Filename.concat dir (Printf.sprintf "dram_%s.json" name) in
      let oc = open_out path in
      Obs.Json.to_channel oc (Sweep.Exec.result_json ~app:"golden-small" cfg r);
      close_out oc;
      Printf.printf "golden written to %s\n" path)
    [
      ("fcfs", { base with Sim.Config.mc_scheduler = Dram.Fr_fcfs.Fcfs });
      ("closed_page", { base with Sim.Config.mc_row_policy = Dram.Fr_fcfs.Closed_page });
      ("one_channel", Sim.Config.with_channels_per_mc base 1);
    ]

(* The seed-0 stats run on geometries that are not powers of two, where
   the per-access steps keep their exact divisions: 6 banks per
   controller (read from a platform document, as a platform file is),
   an issue cost of 48 (3 threads per core) for the jitter draw, and a
   shared L2 over the 144 home banks of a 12x12 mesh. *)
let division_configs () =
  let base = Sim.Config.scaled () in
  let ok = function Ok v -> v | Error e -> failwith e in
  let banks6 =
    match Core.Platform.to_json (Sim.Config.platform base) with
    | Obs.Json.Obj fields ->
      Core.Platform.of_json
        (Obs.Json.Obj
           (List.map
              (fun (k, v) ->
                if k = "banks_per_mc" then (k, Obs.Json.Int 6) else (k, v))
              fields))
      |> ok
    | _ -> failwith "platform JSON must be an object"
  in
  [
    ("banks6", Sim.Config.with_platform base banks6);
    ("tpc3", { base with Sim.Config.threads_per_core = 3 });
    ( "shared_mesh12x12",
      {
        (Sim.Config.with_platform base
           (ok (Core.Platform.of_spec "mesh12x12-mc4")))
        with
        Sim.Config.l2_org = Sim.Config.Shared_l2;
      } );
  ]

let division_goldens dir =
  let program = parse small_src in
  List.iter
    (fun (name, cfg) ->
      let r = Sim.Runner.run cfg ~optimized:false program in
      let path = Filename.concat dir (Printf.sprintf "division_%s.json" name) in
      let oc = open_out path in
      Obs.Json.to_channel oc (Sweep.Exec.result_json ~app:"golden-small" cfg r);
      close_out oc;
      Printf.printf "golden written to %s\n" path)
    (division_configs ())

(* The pipeline stage dumps the test suite compares against
   (test_pipeline.ml): default platform, same stages as occ --emit. *)
let emit_goldens dir =
  let cfg =
    match Sim.Config.build ~scaled:false () with
    | Ok c -> Sim.Config.customize_config c
    | Error e -> failwith e
  in
  let write name dump =
    let path = Filename.concat dir name in
    let oc = open_out path in
    output_string oc dump;
    output_char oc '\n';
    close_out oc;
    Printf.printf "golden written to %s\n" path
  in
  let emit r stage =
    match Core.Pipeline.emit r stage with
    | Some s -> s
    | None -> failwith "pipeline did not reach the requested stage"
  in
  let jacobi = "examples/jacobi.mc" in
  let src =
    let ic = open_in_bin jacobi in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  let rj =
    Core.Pipeline.compile ~cfg (Core.Pipeline.Source { file = jacobi; src })
  in
  write "jacobi_solve.txt" (emit rj Core.Pipeline.Solve);
  write "jacobi_transformed.txt" (emit rj Core.Pipeline.Transformed);
  let app = Workloads.Suite.by_name "hpccg" in
  let program = Workloads.App.program app in
  let analysis = Lang.Analysis.analyze program in
  let profile arr = Workloads.Profile.for_transform app analysis arr in
  let rh = Core.Pipeline.compile ~profile ~cfg (Core.Pipeline.Program program) in
  write "hpccg_solve.txt" (emit rh Core.Pipeline.Solve)

(* The consolidation-server goldens: the smoke scenario at two seeds,
   full result documents (engine stats + scenario + per-tenant + QoS).
   They pin the arrival stream, the shared-pool placement, the admission
   chains and the reclaim path all at once. *)
let serve_goldens dir =
  List.iter
    (fun seed ->
      let sc = Serve.Scenario.smoke ~seed () in
      match Serve.Server.run sc with
      | Error e -> failwith ("serve golden: " ^ e)
      | Ok run ->
        let path = Filename.concat dir (Printf.sprintf "serve_seed%d.json" seed) in
        let oc = open_out path in
        Obs.Json.to_channel oc (Serve.Server.result_json run);
        close_out oc;
        Printf.printf "golden written to %s\n" path)
    [ 0; 1 ]

(* The placement-search goldens: [occ --app apsi --mapping search
   --platform P --search-seed S] on both 8-controller presets, seeds 0
   and 1.  [search_P_seedS.json] is the --search-out file, byte for byte;
   [search_P_seedS.txt] holds the C004 notes, then the whole descent
   trajectory (the note elides all but its first 40 steps). *)
let search_goldens dir =
  let app = Workloads.Suite.by_name "apsi" in
  List.iter
    (fun (platform, seed) ->
      let cfg =
        match Sim.Config.build ~scaled:false ~platform ~mapping:"" () with
        | Ok c -> c
        | Error e -> failwith e
      in
      let r =
        Core.Pipeline.compile ~verify:false ~bank_pressure:1.0
          ~platform:(Sim.Config.platform cfg)
          ~search:{ Core.Place_search.default_params with seed }
          ~cfg:(Sim.Config.customize_config cfg)
          (Core.Pipeline.Program (Workloads.App.program app))
      in
      let o = Option.get r.Core.Pipeline.artifacts.Core.Pipeline.search in
      let stem = Filename.concat dir (Printf.sprintf "search_%s_seed%d" platform seed) in
      (match
         Obs.Json.to_file (stem ^ ".json")
           (Core.Platform.to_json o.Core.Place_search.platform)
       with
       | Ok () -> ()
       | Error e -> failwith e);
      let oc = open_out (stem ^ ".txt") in
      List.iter
        (fun (d : Lang.Diag.t) ->
          if String.equal d.Lang.Diag.code "C004" then
            output_string oc (d.Lang.Diag.message ^ "\n"))
        r.Core.Pipeline.diags;
      List.iter (fun l -> output_string oc (l ^ "\n")) o.Core.Place_search.trajectory;
      close_out oc;
      Printf.printf "goldens written to %s.{json,txt}\n" stem)
    [ ("mesh8x8-mc8", 0); ("mesh8x8-mc8", 1); ("chiplet2x2-mc8", 0); ("chiplet2x2-mc8", 1) ]

(* The seed-0 program's job as simulate --dump-trace writes it: v1
   without site tags, v2 with the site stream Runner.prepare ~attr:true
   attaches. *)
let trace_goldens dir =
  let cfg = Sim.Config.scaled () in
  let p = Sim.Runner.prepare cfg ~optimized:false ~attr:true (parse small_src) in
  let job = p.Sim.Runner.job in
  List.iter
    (fun (version, job) ->
      let path = Filename.concat dir (Printf.sprintf "trace_small_%s.txt" version) in
      Sim.Tracefile.dump path job;
      Printf.printf "golden written to %s\n" path)
    [ ("v1", { job with Sim.Engine.site_streams = [] }); ("v2", job) ]

let () =
  match Array.to_list Sys.argv with
  | _ :: "--search" :: dir :: _ -> search_goldens dir
  | _ :: "--emits" :: dir :: _ -> emit_goldens dir
  | _ :: "--attr" :: rest -> attr_golden (List.nth_opt rest 0)
  | _ :: "--serve" :: dir :: _ -> serve_goldens dir
  | _ :: "--dram" :: dir :: _ -> dram_goldens dir
  | _ :: "--division" :: dir :: _ -> division_goldens dir
  | _ :: "--trace" :: dir :: _ -> trace_goldens dir
  | _ :: path :: _ -> stats_golden (Some path)
  | _ -> stats_golden None
