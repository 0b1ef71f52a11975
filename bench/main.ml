(* Experiment harness: regenerates every table and figure of the paper's
   evaluation (Section 6).  Absolute numbers differ from the paper — our
   substrate is the scaled-down simulator described in DESIGN.md — but
   each section prints the paper-reported value next to ours so the
   comparative shape can be checked at a glance.

     dune exec bench/main.exe                 # all experiments
     dune exec bench/main.exe -- --only fig16 # one section
     dune exec bench/main.exe -- --only fig14 fig16
     dune exec bench/main.exe -- --jobs 4     # simulations in 4 workers
     dune exec bench/main.exe -- --json DIR   # one JSON document per section
     dune exec bench/main.exe -- --platform mesh8x8-mc8
                                              # or a platform JSON file,
                                              # e.g. from occ --search-out
     OFFCHIP_APPS=apsi,swim dune exec ...     # restrict the app suite

   Simulations are cached in $TMPDIR/offchip-bench: reruns resume.
   Host-time performance is measured by benchmark/ (see its README). *)

module H = Harness
module Config = Sim.Config
module App = Workloads.App

let table1 () =
  H.section "Table 1: simulated configuration" "(paper: Table 1)" @@ fun () ->
  Format.printf "  full-scale: %a@." Config.pp (Config.default ());
  Format.printf "  scaled (used by the experiments): %a@." Config.pp
    (Config.scaled ());
  Printf.printf
    "  latencies: L1 2, L2 10, per-hop 4 cycles; XY routing, 16 B links\n\
    \  FR-FCFS, DDR3-1600 timing, 16 banks x 4 channels per controller\n\
    \  page/row buffer 4 KB; interleaving unit 4 KB or 256 B\n"

let fig3 () =
  let cfg = H.page_cfg () in
  H.section ~jobs:(List.map (H.job cfg ~optimized:false) (H.apps ()))
    "Figure 3: off-chip accesses vs total data accesses"
    "(paper: average 22.4% under page interleaving; our scaled caches\n\
     filter more accesses, so the absolute level is lower — the per-app\n\
     variation is the point of comparison)"
  @@ fun () ->
  let fracs =
    List.map
      (fun app ->
        let f = 100. *. (H.get cfg ~optimized:false app).H.derived "offchip_fraction" in
        H.row app.App.name "offchip_pct" f;
        Printf.printf "  %-10s %5.1f%% %s\n" app.App.name f (H.bar f 10. 30);
        f)
      (H.apps ())
  in
  Printf.printf "  %-10s %5.1f%%\n" "AVERAGE" (H.mean fracs)

let fig4 () =
  let cfg = H.page_cfg () in
  let optimal = { cfg with Config.optimal = true } in
  let orig c app = H.get c ~optimized:false app in
  H.section
    ~jobs:
      (List.concat_map
         (fun app -> [ H.job cfg ~optimized:false app; H.job ~label:"optimal" optimal ~optimized:false app ])
         (H.apps ()))
    "Figure 4: impact of the optimal scheme"
    "(paper averages: on-chip net 20.8%, off-chip net 68.2%, memory 45.6%,\n\
     execution time 19.5%)"
  @@ fun () ->
  H.row4_header ();
  let rows =
    List.map
      (fun app ->
        let f = H.four_metrics (orig cfg app) (orig optimal app) in
        H.row4 app.App.name f;
        f)
      (H.apps ())
  in
  H.row4 "AVERAGE" (H.avg4 rows)

let table2 () =
  H.section "Table 2: arrays optimized / references satisfied"
    "(paper: per-app percentages; hpccg/minimd approximate indexed refs)"
  @@ fun () ->
  let ccfg = Config.customize_config (H.line_cfg ()) in
  Printf.printf "  %-10s %10s %14s\n" "" "arrays" "refs satisfied";
  List.iter
    (fun app ->
      let an = H.analysis app in
      let report = Core.Transform.run ~profile:(H.profile app an) ccfg an in
      Printf.printf "  %-10s %9.1f%% %13.1f%%\n" app.App.name
        report.Core.Transform.pct_arrays_optimized
        report.Core.Transform.pct_refs_satisfied)
    (H.apps ())

let fig13 () =
  let cfg = H.line_cfg () in
  let app = Workloads.Suite.by_name "apsi" in
  H.section ~jobs:(H.pair_jobs ~apps:[ app ] cfg cfg)
    "Figure 13: spatial distribution of off-chip accesses to MC1 (apsi)"
    "(paper: original requests come from all over the chip; optimized\n\
     requests are skewed towards the nearby cores)"
  @@ fun () ->
  let reqs optimized = (H.get cfg ~optimized app).H.node_mc_requests in
  let map label reqs =
    let total = Array.fold_left (fun a row -> a + row.(0)) 0 reqs in
    Printf.printf "  %s (%% of MC1's requests per node):\n" label;
    for y = 0 to 7 do
      Printf.printf "   ";
      for x = 0 to 7 do
        let node = (y * 8) + x in
        let f =
          100. *. float_of_int reqs.(node).(0) /. float_of_int (max 1 total)
        in
        H.row label (Printf.sprintf "node%d" node) f;
        Printf.printf " %5.1f" f
      done;
      print_newline ()
    done
  in
  map "original" (reqs false);
  map "optimized" (reqs true);
  let heat label reqs =
    Printf.printf "  %s, as a heat map:\n%s" label
      (Sim.Platform_map.render_heat cfg (Array.map (fun row -> row.(0)) reqs))
  in
  heat "original" (reqs false);
  heat "optimized" (reqs true);
  Printf.printf "  (MC1 is attached at the top-left corner)\n"

let four_metric_figure title paper cfg_orig cfg_opt =
  H.section ~jobs:(H.pair_jobs cfg_orig cfg_opt) title paper @@ fun () ->
  H.row4_header ();
  let pairs =
    List.map
      (fun app ->
        let o = H.get cfg_orig ~optimized:false app in
        let p = H.get cfg_opt ~optimized:true app in
        H.row4 app.App.name (H.four_metrics o p);
        (o, p))
      (H.apps ())
  in
  H.row4 "AVERAGE" (H.avg4 (List.map (fun (o, p) -> H.four_metrics o p) pairs));
  H.row4 "WEIGHTED" (H.aggregate4 pairs)

let fig14 () =
  four_metric_figure "Figure 14: performance improvement, page interleaving"
    "(paper averages: 12.1%, 62.8%, 41.9%, 17.1%)" (H.page_cfg ())
    (H.page_cfg ~policy:Config.Mc_aware ())

let fig15 () =
  let cfg = H.line_cfg () in
  H.section ~jobs:(H.pair_jobs cfg cfg)
    "Figure 15: CDF of links traversed (all apps, cache-line interleaving)"
    "(paper: off-chip requests use significantly fewer links after the\n\
     optimization; on-chip request distances barely change)"
  @@ fun () ->
  let sum_hist select optimized =
    let acc = Array.make (Sim.Stats.max_hops + 1) 0 in
    List.iter
      (fun app ->
        let r = H.get cfg ~optimized app in
        Array.iteri (fun i v -> acc.(i) <- acc.(i) + v) (select r))
      (H.apps ());
    Sim.Stats.hop_cdf acc
  in
  let onchip r = r.H.onchip_hops and offchip r = r.H.offchip_hops in
  let on_orig = sum_hist onchip false and on_opt = sum_hist onchip true in
  let off_orig = sum_hist offchip false and off_opt = sum_hist offchip true in
  Printf.printf "  %-6s %13s %12s %13s %13s\n" "links" "on-chip orig"
    "on-chip opt" "off-chip orig" "off-chip opt";
  for x = 0 to 14 do
    let links = Printf.sprintf "<=%d" x in
    H.row links "onchip_orig" (100. *. on_orig.(x));
    H.row links "onchip_opt" (100. *. on_opt.(x));
    H.row links "offchip_orig" (100. *. off_orig.(x));
    H.row links "offchip_opt" (100. *. off_opt.(x));
    Printf.printf "  <=%-4d %12.0f%% %11.0f%% %12.0f%% %12.0f%%\n" x
      (100. *. on_orig.(x))
      (100. *. on_opt.(x))
      (100. *. off_orig.(x))
      (100. *. off_opt.(x))
  done

let fig16 () =
  four_metric_figure
    "Figure 16: performance improvement, cache-line interleaving"
    "(paper averages: 13.6%, 66.4%, 45.8%, 20.5%)" (H.line_cfg ())
    (H.line_cfg ())

let fig17 () =
  let m1o = H.line_cfg () and m2o = H.m2_cfg () in
  H.section
    ~jobs:(H.pair_jobs m1o m1o @ List.map (H.job ~label:"M2" m2o ~optimized:true) (H.apps ()))
    "Figure 17: execution-time improvement, mapping M1 vs M2"
    "(paper: M2 loses locality for most apps but wins for fma3d and\n\
     minighost, whose memory-parallelism demand is highest)"
  @@ fun () ->
  Printf.printf "  %-10s %8s %8s\n" "" "M1" "M2";
  List.iter
    (fun app ->
      let base = H.get m1o ~optimized:false app in
      let p1 = H.get m1o ~optimized:true app in
      let p2 = H.get m2o ~optimized:true app in
      H.row app.App.name "M1" (H.exec_improvement base p1);
      H.row app.App.name "M2" (H.exec_improvement base p2);
      Printf.printf "  %-10s %+7.1f%% %+7.1f%%\n" app.App.name
        (H.exec_improvement base p1) (H.exec_improvement base p2))
    (H.apps ())

let fig18 () =
  let cfg = H.line_cfg () in
  H.section ~jobs:(List.map (H.job cfg ~optimized:true) (H.apps ()))
    "Figure 18: bank queue occupancy under M1 (and the compiler's mapping choice)"
    "(paper: fma3d and minighost have much higher utilization, which is\n\
     why the analysis favours M2 for them)"
  @@ fun () ->
  let candidates = List.map (fun c -> (Config.cluster c, Config.placement c)) [ cfg; H.m2_cfg () ] in
  Printf.printf "  %-10s %10s   %s\n" "" "occupancy" "selected mapping";
  List.iter
    (fun app ->
      let occ = H.avg_occupancy (H.get cfg ~optimized:true app) in
      let chosen, _ =
        Option.get (Core.Mapping_select.choose_opt (Config.topo cfg) ~candidates ~bank_pressure:occ)
      in
      Printf.printf "  %-10s %10.2f   %-4s %s\n" app.App.name occ
        chosen.Core.Cluster.name (H.bar occ 8. 24))
    (H.apps ())

(* Figs. 19-21, 24 and sensitivity: one row per labelled config, its mean
   execution-time gain over the apps.  [column] adds a heading and a
   per-config value between the label and the gain. *)
let gain_table ?apps ?column title paper (name, width) variants =
  let gains =
    List.map (fun (label, cfg) -> (label, cfg, H.mean_gain ~label ?apps cfg)) variants
  in
  let cell f = Option.fold ~none:"" ~some:f column in
  H.section ~jobs:(List.concat_map (fun (_, _, (jobs, _)) -> jobs) gains) title paper
  @@ fun () ->
  Printf.printf "  %-*s%s %10s\n" width name (cell (fun (h, _) -> Printf.sprintf " %12s" h))
    "exec gain";
  List.iter
    (fun (label, cfg, (_, gain)) ->
      Printf.printf "  %-*s%s %+9.1f%%\n" width label
        (cell (fun (_, v) -> Printf.sprintf " %12.2f" (v cfg)))
        (gain ()))
    gains

let fig19 () =
  let cfg = H.line_cfg () in
  let topo = Config.topo cfg in
  let with_sites name placement =
    let sites = Array.map (Noc.Topology.coord_of_node topo) placement.Noc.Placement.nodes in
    let placement = H.or_fail (Core.Platform.placement_for ~sites topo (Config.cluster cfg)) in
    (name, H.or_fail (Config.with_placement cfg { placement with Noc.Placement.name }))
  in
  gain_table "Figure 19: different controller placements"
    "(paper: P2 is slightly better than P1/P3 — about 20.7% average —\n\
     because its average distance-to-controller is lower)"
    ~column:("avg distance", fun c -> Noc.Placement.avg_distance (Config.placement c) topo)
    ("", 6)
    [
      ("P1", cfg);
      with_sites "P2" (Noc.Placement.edge_centers topo);
      with_sites "P3" (Noc.Placement.top_bottom topo);
    ]

let fig20 () =
  let topo = Config.topo (H.line_cfg ()) in
  let with_mcs mcs =
    if mcs = 4 then H.line_cfg ()
    else
      H.or_fail
        (Result.bind
           (Core.Cluster.with_mcs_result ~width:topo.Noc.Topology.width
              ~height:topo.Noc.Topology.height ~mcs)
           (Config.with_cluster (H.line_cfg ())))
  in
  gain_table "Figure 20: different controller counts"
    "(paper: savings grow with more controllers — better memory\n\
     parallelism within each cluster)"
    ("MCs", 8)
    (List.map (fun mcs -> (string_of_int mcs, with_mcs mcs)) [ 4; 8; 16 ])

let fig21 () =
  let mesh (w, h) =
    (Printf.sprintf "%dx%d" w h, H.or_fail (Config.mesh ~width:w ~height:h (H.line_cfg ())))
  in
  gain_table "Figure 21: different core counts"
    "(paper: 14% on 4x4, 18% on 4x8, 20.5% on 8x8 — gains grow with the\n\
     network diameter)"
    ("mesh", 8)
    (List.map mesh [ (4, 4); (4, 8); (8, 8) ])

let fig22 () =
  four_metric_figure "Figure 22: shared (SNUCA) L2"
    "(paper: average execution-time improvement 24.3% under shared L2)"
    (H.shared_cfg ()) (H.shared_cfg ())

let fig23 () =
  let ft = H.page_cfg ~policy:Config.First_touch () in
  let ours = H.page_cfg ~policy:Config.Mc_aware () in
  H.section ~jobs:(H.pair_jobs ft ours)
    "Figure 23: improvement over the first-touch policy"
    "(paper: 12.3% average; first-touch only places pages well for\n\
     wupwise, gafort and minimd)"
  @@ fun () ->
  let gains =
    List.map
      (fun app ->
        let g =
          H.exec_improvement (H.get ft ~optimized:false app) (H.get ours ~optimized:true app)
        in
        H.row app.App.name "exec" g;
        Printf.printf "  %-10s %+7.1f%%%s\n" app.App.name g
          (if app.App.first_touch_friendly then "   (first-touch friendly)"
           else "");
        g)
      (H.apps ())
  in
  Printf.printf "  %-10s %+7.1f%%\n" "AVERAGE" (H.mean gains)

let fig24 () =
  let tpc n = (string_of_int n, { (H.line_cfg ()) with Config.threads_per_core = n }) in
  gain_table "Figure 24: more threads per core"
    "(paper: improvements grow with thread count as baseline contention\n\
     intensifies)"
    ("threads/core", 14)
    (List.map tpc [ 1; 2; 4 ])

let fig25 () =
  H.section "Figure 25: multiprogrammed workloads (weighted speedup)"
    "(paper: improvements between 5.4% and 13.1% — the layouts are\n\
     compiled for the whole machine, so co-running halves their fit.\n\
     Optimized pairs run with OS assistance: the MC-aware policy places\n\
     hinted pages on the compiler's controller, the rest by first touch)"
  @@ fun () ->
  let pairs =
    [
      ("W1", "apsi", "swim");
      ("W2", "fma3d", "art");
      ("W3", "wupwise", "minighost");
      ("W4", "hpccg", "ammp");
      ("W5", "galgel", "gafort");
    ]
  in
  (* original pairs see plain hardware page interleaving; optimized pairs
     additionally get the paper's OS-assisted MC-aware placement — the
     legacy deviation of benchmarking both sides with no OS assistance is
     closed *)
  let cfg_of optimized =
    if optimized then H.page_cfg ~policy:Config.Mc_aware ()
    else H.page_cfg ()
  in
  let prep cfg optimized offset vbase (app : App.t) =
    H.prepare cfg ~optimized ~threads:32 ~core_offset:offset ~vaddr_base:vbase
      ~name:app.App.name app
  in
  (* an app alone is its co-run job moved to core 0 and address 0 *)
  let alone cfg (p : Sim.Runner.prepared) =
    let p =
      Sim.Runner.relocate cfg p ~vaddr_base:0 ~core_offset:0
        ~name:p.Sim.Runner.job.Sim.Engine.name
    in
    (Sim.Runner.run_many cfg ~jobs:[ p ]).Sim.Engine.measured_time
  in
  Printf.printf "  %-4s %-22s %10s %10s %8s\n" "" "apps" "WS orig" "WS opt"
    "gain";
  List.iter
    (fun (wname, a, b) ->
      let appa = Workloads.Suite.by_name a
      and appb = Workloads.Suite.by_name b in
      let ws optimized =
        let cfg = cfg_of optimized in
        let pa = prep cfg optimized 0 0 appa in
        let pb = prep cfg optimized 32 (1 lsl 32) appb in
        let r = Sim.Runner.run_many cfg ~jobs:[ pa; pb ] in
        let ta = float_of_int (alone cfg pa)
        and tb = float_of_int (alone cfg pb) in
        (ta /. float_of_int (max 1 r.Sim.Engine.job_measured.(0)))
        +. (tb /. float_of_int (max 1 r.Sim.Engine.job_measured.(1)))
      in
      let wso = ws false and wsp = ws true in
      Printf.printf "  %-4s %-22s %10.3f %10.3f %+7.1f%%\n" wname (a ^ "+" ^ b)
        wso wsp
        (100. *. ((wsp /. wso) -. 1.)))
    pairs

let fig25serve () =
  H.section "Figure 25 (serve): open-system consolidation (policy x load)"
    "(weighted speedup and p95 completion latency of the serve smoke mix\n\
     under each placement policy as the arrival rate rises; each cell is\n\
     one consolidation scenario, run as a fleet in pool workers)"
  @@ fun () ->
  let policies =
    [
      Serve.Scenario.Hardware;
      Serve.Scenario.First_touch;
      Serve.Scenario.Mc_aware;
    ]
  in
  let loads = [ 80000; 20000; 5000 ] in
  let grid =
    Array.of_list
      (List.concat_map (fun p -> List.map (fun l -> (p, l)) loads) policies)
  in
  let f i =
    let policy, arrival_mean = grid.(i) in
    let sc =
      { (Serve.Scenario.smoke ~policy ()) with Serve.Scenario.arrival_mean }
    in
    match Serve.Server.run sc with
    | Error e -> Error e
    | Ok run ->
      let q = run.Serve.Server.qos in
      Ok
        (Printf.sprintf "%.3f %d %d" q.Serve.Server.weighted_speedup
           q.Serve.Server.p95_latency q.Serve.Server.total_fallbacks)
  in
  let results =
    Sweep.Pool.run ~workers:!H.workers ~timeout_s:600. ~retries:0
      ~jobs:(Array.length grid) f
  in
  Printf.printf "  %-12s %12s %8s %12s %10s\n" "policy" "mean interarr" "WS"
    "p95 latency" "fallbacks";
  Array.iteri
    (fun i outcome ->
      let policy, load = grid.(i) in
      let pname = Serve.Scenario.policy_to_string policy in
      match outcome with
      | Sweep.Pool.Completed { payload; _ } -> (
        match String.split_on_char ' ' (String.trim payload) with
        | [ ws; p95; fb ] ->
          Printf.printf "  %-12s %12d %8s %12s %10s\n" pname load ws p95 fb
        | _ -> Printf.printf "  %-12s %12d  (unparseable payload)\n" pname load)
      | Sweep.Pool.Failed { reason; _ } ->
        Printf.printf "  %-12s %12d  FAILED: %s\n" pname load reason)
    results

let alternative () =
  let page_ft = H.page_cfg ~policy:Config.First_touch () in
  let ours = H.page_cfg ~policy:Config.Mc_aware () in
  H.section ~jobs:(H.pair_jobs page_ft ours)
    "Alternative: loop restructuring vs / plus layout transformation"
    "(paper Section 1: loop transformations could aim at similar goals but\n\
     are constrained by dependences.  Interchange repairs cache-hostile\n\
     traversal orders where legal - an orthogonal, on-chip effect - while\n\
     the layout pass owns the Data-to-MC mapping; 'combined' runs the\n\
     layout pass on the restructured program.  Where dependences or\n\
     imperfect nests block interchange (blk), only the layout pass helps)"
  @@ fun () ->
  Printf.printf "  %-10s %15s %10s %10s %10s\n" "" "perm/align/blk" "loop"
    "layout" "combined";
  List.iter
    (fun app ->
      let lt = Core.Loop_transform.run (H.analysis app) in
      let program = lt.Core.Loop_transform.program in
      (* a direct run, read the same way as a sweep job's result *)
      let direct cfg p =
        H.or_fail
          (H.run_of_json
             (Sweep.Exec.result_json ~app:app.App.name cfg (Sim.Runner.run_many cfg ~jobs:[ p ])))
      in
      let base = H.get page_ft ~optimized:false app in
      (* loop-restructured program under the same first-touch OS *)
      let restructured = direct page_ft (H.prepare page_ft ~optimized:false ~program app) in
      let layout = H.get ours ~optimized:true app in
      let combined =
        (* the layout pass applied on top of the restructured program *)
        let profile = H.profile app (Lang.Analysis.analyze program) in
        direct ours (H.prepare ours ~optimized:true ~profile ~program app)
      in
      Printf.printf "  %-10s %9d/%d/%d %+9.1f%% %+9.1f%% %+9.1f%%\n"
        app.App.name lt.Core.Loop_transform.permuted_nests
        lt.Core.Loop_transform.already_aligned lt.Core.Loop_transform.blocked
        (H.exec_improvement base restructured)
        (H.exec_improvement base layout)
        (H.exec_improvement base combined))
    (H.apps ())

let ablation () =
  let app = Workloads.Suite.by_name "apsi" in
  let line = H.line_cfg () in
  let variants =
    [
      ("default model", line);
      ( "wide links (no contention)",
        { line with Config.noc = { Noc.Network.per_hop_latency = 4; link_bytes = 4096 } } );
      ("no issue jitter", { line with Config.jitter = false });
      ("single DRAM channel", Config.with_channels_per_mc line 1);
      ("FCFS scheduling (no FR)", { line with Config.mc_scheduler = Dram.Fr_fcfs.Fcfs });
      ("closed-page DRAM", { line with Config.mc_row_policy = Dram.Fr_fcfs.Closed_page });
    ]
  in
  H.section
    ~jobs:(List.concat_map (fun (label, cfg) -> H.pair_jobs ~label ~apps:[ app ] cfg cfg) variants)
    "Ablation: model ingredients (apsi)"
    "(DESIGN.md Section 5: how much of the improvement comes from link\n\
     contention, thread decorrelation and channel bandwidth)"
  @@ fun () ->
  List.iter
    (fun (name, cfg) ->
      let o = H.get cfg ~optimized:false app in
      let p = H.get cfg ~optimized:true app in
      Printf.printf "  %-28s exec gain %+6.1f%%  (off-net %+6.1f%%)\n" name
        (H.exec_improvement o p)
        (H.four_metrics o p).H.offchip_net)
    variants

let sensitivity () =
  let line = H.line_cfg () in
  let links link_bytes = { line with Config.noc = { Noc.Network.per_hop_latency = 4; link_bytes } } in
  gain_table
    ~apps:(List.map Workloads.Suite.by_name [ "apsi"; "swim"; "fma3d" ])
    "Sensitivity: link width, L2 capacity, compute intensity"
    "(robustness of the execution-time gain to the scaled platform's\n\
     parameters, averaged over apsi, swim and fma3d)"
    ("variant", 24)
    [ ("default", line); ("8 B links", links 8); ("32 B links", links 32);
      ("L2 8 KB/node", { line with Config.l2_size = 8192 });
      ("L2 32 KB/node", { line with Config.l2_size = 32768 });
      ("compute x0.5", { line with Config.compute_cycles = 8 });
      ("compute x2", { line with Config.compute_cycles = 32 }) ]

let sections =
  [
    ("table1", table1);
    ("fig3", fig3);
    ("fig4", fig4);
    ("table2", table2);
    ("fig13", fig13);
    ("fig14", fig14);
    ("fig15", fig15);
    ("fig16", fig16);
    ("fig17", fig17);
    ("fig18", fig18);
    ("fig19", fig19);
    ("fig20", fig20);
    ("fig21", fig21);
    ("fig22", fig22);
    ("fig23", fig23);
    ("fig24", fig24);
    ("fig25", fig25);
    ("fig25serve", fig25serve);
    ("alternative", alternative);
    ("ablation", ablation);
    ("sensitivity", sensitivity);
  ]

(* Builds the selected sections, runs all their simulations (deduped)
   and renders the sections in order; exit 3, like `sweep run`, when a
   simulation failed. *)
let run_sections selected =
  let selected =
    List.map
      (fun (key, make) ->
        let s = make () in
        let prefix j = { j with Sweep.Spec.id = key ^ "/" ^ j.Sweep.Spec.id } in
        (key, { s with H.jobs = List.map prefix s.H.jobs }))
      selected
  in
  H.run_jobs (List.concat_map (fun (_, s) -> s.H.jobs) selected);
  List.fold_left
    (fun code (key, s) ->
      H.header key s.H.title s.H.paper;
      match H.first_failure s with
      | None -> s.H.render (); code
      | Some (id, reason) -> Printf.printf "FAILED: %s: %s\n" id reason; 3)
    Cli.ok selected

let main only more_sections platform json jobs =
  Cli.guard ~name:"bench" @@ fun () ->
  let fail fmt =
    Printf.ksprintf
      (fun s ->
        prerr_endline ("bench: " ^ s);
        Cli.user_error)
      fmt
  in
  let names = Option.to_list only @ more_sections in
  match List.find_opt (fun n -> not (List.mem_assoc n sections)) names with
  | _ when only = None && more_sections <> [] ->
    fail "unexpected argument %S (section names follow --only)"
      (List.hd more_sections)
  | Some name ->
    fail "unknown section %S (known: %s)" name
      (String.concat ", " (List.map fst sections))
  | None when jobs < 1 -> fail "--jobs must be at least 1 (got %d)" jobs
  | None -> (
    match if platform = "" then Ok None else Result.map Option.some (Core.Platform.of_spec platform) with
    | Error e -> fail "--platform %s: %s" platform e
    | Ok p ->
      match Option.fold ~none:(Ok ()) ~some:H.set_json_dir json with
      | Error e -> fail "%s" e
      | Ok () ->
      H.platform_override := p;
      H.workers := if jobs = 1 then 0 else jobs;
      let t0 = Unix.gettimeofday () in
      let code =
        run_sections
          (List.filter (fun (name, _) -> only = None || List.mem name names) sections)
      in
      H.flush_json_section ();
      Printf.printf "\n(total wall time: %.0f s)\n" (Unix.gettimeofday () -. t0);
      code)

open Cmdliner

let only_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "only" ] ~docv:"SECTION"
        ~doc:
          "Run only this section (table1, fig3 ... fig25, fig25serve, \
           alternative, ablation, sensitivity); further section names may \
           follow as arguments.")

let more_sections_arg =
  Arg.(
    value & pos_all string []
    & info [] ~docv:"SECTION" ~doc:"More section names for --only.")

let json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"DIR"
        ~doc:"Also write each section's rows as DIR/<section>.json.")

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "jobs" ] ~docv:"N"
        ~doc:"Run the distinct simulations in N forked workers (1: in this process).")

let cmd =
  Cmd.v
    (Cmd.info "bench" ~doc:"regenerate the paper's tables and figures")
    Term.(
      const main $ only_arg $ more_sections_arg $ Cli.platform $ json_arg
      $ jobs_arg)

let () = exit (Cli.eval cmd)
