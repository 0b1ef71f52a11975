(* Experiment harness: regenerates every table and figure of the paper's
   evaluation (Section 6).  Absolute numbers differ from the paper — our
   substrate is the scaled-down simulator described in DESIGN.md — but
   each section prints the paper-reported value next to ours so the
   comparative shape can be checked at a glance.

     dune exec bench/main.exe                 # all experiments
     dune exec bench/main.exe -- --only fig16 # one section
     dune exec bench/main.exe -- --only fig14 fig16
     dune exec bench/main.exe -- --jobs 4     # sections in parallel workers
     dune exec bench/main.exe -- --json DIR   # one JSON document per section
     dune exec bench/main.exe -- --platform mesh8x8-mc8
                                              # or a platform JSON file,
                                              # e.g. from occ --search-out
     OFFCHIP_APPS=apsi,swim dune exec ...     # restrict the app suite

   Host-time performance is measured by benchmark/ (see its README), not
   here. *)

module H = Harness
module Config = Sim.Config
module Engine = Sim.Engine
module Stats = Sim.Stats
module App = Workloads.App

let table1 () =
  H.header "Table 1: simulated configuration" "(paper: Table 1)";
  Format.printf "  full-scale: %a@." Config.pp (Config.default ());
  Format.printf "  scaled (used by the experiments): %a@." Config.pp
    (Config.scaled ());
  Printf.printf
    "  latencies: L1 2, L2 10, per-hop 4 cycles; XY routing, 16 B links\n\
    \  FR-FCFS, DDR3-1600 timing, 16 banks x 4 channels per controller\n\
    \  page/row buffer 4 KB; interleaving unit 4 KB or 256 B\n"

let fig3 () =
  H.header "Figure 3: off-chip accesses vs total data accesses"
    "(paper: average 22.4% under page interleaving; our scaled caches\n\
     filter more accesses, so the absolute level is lower — the per-app\n\
     variation is the point of comparison)";
  let cfg = H.page_cfg () in
  let fracs =
    List.map
      (fun app ->
        let r = H.run cfg ~optimized:false app in
        let f = 100. *. Stats.offchip_fraction r.Engine.stats in
        H.csv_row app.App.name "offchip_pct" f;
        Printf.printf "  %-10s %5.1f%% %s\n" app.App.name f (H.bar f 10. 30);
        f)
      (H.apps ())
  in
  Printf.printf "  %-10s %5.1f%%\n" "AVERAGE"
    (List.fold_left ( +. ) 0. fracs /. float_of_int (List.length fracs))

let fig4 () =
  H.header "Figure 4: impact of the optimal scheme"
    "(paper averages: on-chip net 20.8%, off-chip net 68.2%, memory 45.6%,\n\
     execution time 19.5%)";
  let cfg = H.page_cfg () in
  let optimal = { cfg with Config.optimal = true } in
  H.row4_header ();
  let rows =
    List.map
      (fun app ->
        let o = H.run cfg ~optimized:false app in
        let p = H.run optimal ~optimized:false app in
        let f = H.four_metrics o p in
        H.row4 app.App.name f;
        f)
      (H.apps ())
  in
  H.row4 "AVERAGE" (H.avg4 rows)

let table2 () =
  H.header "Table 2: arrays optimized / references satisfied"
    "(paper: per-app percentages; hpccg/minimd approximate indexed refs)";
  let ccfg = Config.customize_config (H.line_cfg ()) in
  Printf.printf "  %-10s %10s %14s\n" "" "arrays" "refs satisfied";
  List.iter
    (fun app ->
      let c = H.ctx_of app in
      let report = Core.Transform.run ~profile:c.H.profile ccfg c.H.analysis in
      Printf.printf "  %-10s %9.1f%% %13.1f%%\n" app.App.name
        report.Core.Transform.pct_arrays_optimized
        report.Core.Transform.pct_refs_satisfied)
    (H.apps ())

let fig13 () =
  H.header "Figure 13: spatial distribution of off-chip accesses to MC1 (apsi)"
    "(paper: original requests come from all over the chip; optimized\n\
     requests are skewed towards the nearby cores)";
  let cfg = H.line_cfg () in
  let app = Workloads.Suite.by_name "apsi" in
  let map label r =
    let reqs = Stats.node_mc_requests (r : Engine.result).Engine.stats in
    let total = Array.fold_left (fun a row -> a + row.(0)) 0 reqs in
    Printf.printf "  %s (%% of MC1's requests per node):\n" label;
    for y = 0 to 7 do
      Printf.printf "   ";
      for x = 0 to 7 do
        let node = (y * 8) + x in
        let f =
          100. *. float_of_int reqs.(node).(0) /. float_of_int (max 1 total)
        in
        H.csv_row label (Printf.sprintf "node%d" node) f;
        Printf.printf " %5.1f" f
      done;
      print_newline ()
    done
  in
  map "original" (H.run cfg ~optimized:false app);
  map "optimized" (H.run cfg ~optimized:true app);
  let heat label (r : Engine.result) =
    Printf.printf "  %s, as a heat map:\n%s" label
      (Sim.Platform_map.render_heat cfg
         (Array.map (fun row -> row.(0))
            (Stats.node_mc_requests r.Engine.stats)))
  in
  heat "original" (H.run cfg ~optimized:false app);
  heat "optimized" (H.run cfg ~optimized:true app);
  Printf.printf "  (MC1 is attached at the top-left corner)\n"

let four_metric_figure title paper cfg_orig cfg_opt =
  H.header title paper;
  H.row4_header ();
  let pairs =
    List.map
      (fun app ->
        let o = H.run cfg_orig ~optimized:false app in
        let p = H.run cfg_opt ~optimized:true app in
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
  H.header "Figure 15: CDF of links traversed (all apps, cache-line interleaving)"
    "(paper: off-chip requests use significantly fewer links after the\n\
     optimization; on-chip request distances barely change)";
  let cfg = H.line_cfg () in
  let sum_hist select optimized =
    let acc = Array.make (Stats.max_hops + 1) 0 in
    List.iter
      (fun app ->
        let r = H.run cfg ~optimized app in
        Array.iteri (fun i v -> acc.(i) <- acc.(i) + v) (select r.Engine.stats))
      (H.apps ());
    Stats.hop_cdf acc
  in
  let on_orig = sum_hist Stats.onchip_hops false in
  let on_opt = sum_hist Stats.onchip_hops true in
  let off_orig = sum_hist Stats.offchip_hops false in
  let off_opt = sum_hist Stats.offchip_hops true in
  Printf.printf "  %-6s %13s %12s %13s %13s\n" "links" "on-chip orig"
    "on-chip opt" "off-chip orig" "off-chip opt";
  for x = 0 to 14 do
    let links = Printf.sprintf "<=%d" x in
    H.csv_row links "onchip_orig" (100. *. on_orig.(x));
    H.csv_row links "onchip_opt" (100. *. on_opt.(x));
    H.csv_row links "offchip_orig" (100. *. off_orig.(x));
    H.csv_row links "offchip_opt" (100. *. off_opt.(x));
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
  H.header "Figure 17: execution-time improvement, mapping M1 vs M2"
    "(paper: M2 loses locality for most apps but wins for fma3d and\n\
     minighost, whose memory-parallelism demand is highest)";
  let m1o = H.line_cfg () and m2o = H.m2_cfg () in
  Printf.printf "  %-10s %8s %8s\n" "" "M1" "M2";
  List.iter
    (fun app ->
      let base = H.run m1o ~optimized:false app in
      let p1 = H.run m1o ~optimized:true app in
      let p2 = H.run m2o ~optimized:true app in
      H.csv_row app.App.name "M1" (H.exec_improvement base p1);
      H.csv_row app.App.name "M2" (H.exec_improvement base p2);
      Printf.printf "  %-10s %+7.1f%% %+7.1f%%\n" app.App.name
        (H.exec_improvement base p1) (H.exec_improvement base p2))
    (H.apps ())

let fig18 () =
  H.header
    "Figure 18: bank queue occupancy under M1 (and the compiler's mapping choice)"
    "(paper: fma3d and minighost have much higher utilization, which is\n\
     why the analysis favours M2 for them)";
  let cfg = H.line_cfg () in
  let topo = Config.topo cfg in
  let m2 =
    H.or_fail
      (Core.Cluster.m2 ~width:topo.Noc.Topology.width
         ~height:topo.Noc.Topology.height)
  in
  let m2p = H.or_fail (Core.Platform.placement_for topo m2) in
  Printf.printf "  %-10s %10s   %s\n" "" "occupancy" "selected mapping";
  List.iter
    (fun app ->
      let r = H.run cfg ~optimized:true app in
      let occ = H.avg_occupancy r in
      let chosen, _ =
        match
          Core.Mapping_select.choose_opt (Config.topo cfg)
            ~candidates:
              [ (Config.cluster cfg, Config.placement cfg); (m2, m2p) ]
            ~bank_pressure:occ
        with
        | Some c -> c
        | None -> assert false
      in
      Printf.printf "  %-10s %10.2f   %-4s %s\n" app.App.name occ
        chosen.Core.Cluster.name (H.bar occ 8. 24))
    (H.apps ())

let fig19 () =
  H.header "Figure 19: different controller placements"
    "(paper: P2 is slightly better than P1/P3 — about 20.7% average —\n\
     because its average distance-to-controller is lower)";
  let topo = Config.topo (H.line_cfg ()) in
  let with_sites name sites =
    let cfg = H.line_cfg () in
    let placement =
      H.or_fail (Core.Platform.placement_for ~sites topo (Config.cluster cfg))
    in
    ( name,
      H.or_fail
        (Config.with_placement cfg { placement with Noc.Placement.name }) )
  in
  let coords nodes = Array.map (Noc.Topology.coord_of_node topo) nodes in
  let placements =
    [
      ("P1", H.line_cfg ());
      with_sites "P2" (coords (Noc.Placement.edge_centers topo).Noc.Placement.nodes);
      with_sites "P3" (coords (Noc.Placement.top_bottom topo).Noc.Placement.nodes);
    ]
  in
  Printf.printf "  %-6s %12s %10s\n" "" "avg distance" "exec gain";
  List.iter
    (fun (name, cfg) ->
      let gains =
        List.map
          (fun app ->
            let o = H.run cfg ~optimized:false app in
            let p = H.run cfg ~optimized:true app in
            H.exec_improvement o p)
          (H.apps ())
      in
      let avg =
        List.fold_left ( +. ) 0. gains /. float_of_int (List.length gains)
      in
      Printf.printf "  %-6s %12.2f %+9.1f%%\n" name
        (Noc.Placement.avg_distance (Config.placement cfg) (Config.topo cfg))
        avg)
    placements

let fig20 () =
  H.header "Figure 20: different controller counts"
    "(paper: savings grow with more controllers — better memory\n\
     parallelism within each cluster)";
  Printf.printf "  %-8s %10s\n" "MCs" "exec gain";
  let topo = Config.topo (H.line_cfg ()) in
  List.iter
    (fun mcs ->
      let cfg =
        if mcs = 4 then H.line_cfg ()
        else
          H.or_fail
            (Result.bind
               (Core.Cluster.with_mcs_result ~width:topo.Noc.Topology.width
                  ~height:topo.Noc.Topology.height ~mcs)
               (Config.with_cluster (H.line_cfg ())))
      in
      let gains =
        List.map
          (fun app ->
            H.exec_improvement
              (H.run cfg ~optimized:false app)
              (H.run cfg ~optimized:true app))
          (H.apps ())
      in
      Printf.printf "  %-8d %+9.1f%%\n" mcs
        (List.fold_left ( +. ) 0. gains /. float_of_int (List.length gains)))
    [ 4; 8; 16 ]

let fig21 () =
  H.header "Figure 21: different core counts"
    "(paper: 14% on 4x4, 18% on 4x8, 20.5% on 8x8 — gains grow with the\n\
     network diameter)";
  Printf.printf "  %-8s %10s\n" "mesh" "exec gain";
  List.iter
    (fun (w, h) ->
      let cfg = H.or_fail (Config.mesh ~width:w ~height:h (H.line_cfg ())) in
      let gains =
        List.map
          (fun app ->
            H.exec_improvement
              (H.run cfg ~optimized:false app)
              (H.run cfg ~optimized:true app))
          (H.apps ())
      in
      Printf.printf "  %dx%-6d %+9.1f%%\n" w h
        (List.fold_left ( +. ) 0. gains /. float_of_int (List.length gains)))
    [ (4, 4); (4, 8); (8, 8) ]

let fig22 () =
  four_metric_figure "Figure 22: shared (SNUCA) L2"
    "(paper: average execution-time improvement 24.3% under shared L2)"
    (H.shared_cfg ()) (H.shared_cfg ())

let fig23 () =
  H.header "Figure 23: improvement over the first-touch policy"
    "(paper: 12.3% average; first-touch only places pages well for\n\
     wupwise, gafort and minimd)";
  let ft = H.page_cfg ~policy:Config.First_touch () in
  let ours = H.page_cfg ~policy:Config.Mc_aware () in
  let gains =
    List.map
      (fun app ->
        let o = H.run ft ~optimized:false app in
        let p = H.run ours ~optimized:true app in
        let g = H.exec_improvement o p in
        H.csv_row app.App.name "exec" g;
        Printf.printf "  %-10s %+7.1f%%%s\n" app.App.name g
          (if app.App.first_touch_friendly then "   (first-touch friendly)"
           else "");
        g)
      (H.apps ())
  in
  Printf.printf "  %-10s %+7.1f%%\n" "AVERAGE"
    (List.fold_left ( +. ) 0. gains /. float_of_int (List.length gains))

let fig24 () =
  H.header "Figure 24: more threads per core"
    "(paper: improvements grow with thread count as baseline contention\n\
     intensifies)";
  Printf.printf "  %-14s %10s\n" "threads/core" "exec gain";
  List.iter
    (fun tpc ->
      let cfg = { (H.line_cfg ()) with Config.threads_per_core = tpc } in
      let gains =
        List.map
          (fun app ->
            H.exec_improvement
              (H.run cfg ~optimized:false app)
              (H.run cfg ~optimized:true app))
          (H.apps ())
      in
      Printf.printf "  %-14d %+9.1f%%\n" tpc
        (List.fold_left ( +. ) 0. gains /. float_of_int (List.length gains)))
    [ 1; 2; 4 ]

let fig25 () =
  H.header "Figure 25: multiprogrammed workloads (weighted speedup)"
    "(paper: improvements between 5.4% and 13.1% — the layouts are\n\
     compiled for the whole machine, so co-running halves their fit.\n\
     Optimized pairs run with OS assistance: the MC-aware policy places\n\
     hinted pages on the compiler's controller, the rest by first touch)";
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
    let c = H.ctx_of app in
    if optimized then
      Sim.Runner.prepare cfg ~optimized:true ~threads:32 ~core_offset:offset
        ~vaddr_base:vbase ~name:app.App.name
        ~warmup_phases:app.App.warmup_nests ~index_lookup:c.H.index_lookup
        ~profile:c.H.profile c.H.program
    else
      Sim.Runner.prepare cfg ~optimized:false ~threads:32 ~core_offset:offset
        ~vaddr_base:vbase ~name:app.App.name
        ~warmup_phases:app.App.warmup_nests ~index_lookup:c.H.index_lookup
        c.H.program
  in
  let alone cfg optimized app =
    let p = prep cfg optimized 0 0 app in
    (Sim.Runner.run_many cfg ~jobs:[ p ]).Engine.measured_time
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
        let ta = float_of_int (alone cfg optimized appa)
        and tb = float_of_int (alone cfg optimized appb) in
        (ta /. float_of_int (max 1 r.Engine.job_measured.(0)))
        +. (tb /. float_of_int (max 1 r.Engine.job_measured.(1)))
      in
      let wso = ws false and wsp = ws true in
      Printf.printf "  %-4s %-22s %10.3f %10.3f %+7.1f%%\n" wname (a ^ "+" ^ b)
        wso wsp
        (100. *. ((wsp /. wso) -. 1.)))
    pairs

let fig25serve () =
  H.header "Figure 25 (serve): open-system consolidation (policy x load)"
    "(weighted speedup and p95 completion latency of the serve smoke mix\n\
     under each placement policy as the arrival rate rises; each cell is\n\
     one consolidation scenario, run as a fleet in pool workers)";
  let policies =
    [
      Serve.Scenario.Interleaved;
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
    Sweep.Pool.run ~workers:4 ~timeout_s:600. ~retries:0
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
  H.header "Alternative: loop restructuring vs / plus layout transformation"
    "(paper Section 1: loop transformations could aim at similar goals but\n\
     are constrained by dependences.  Interchange repairs cache-hostile\n\
     traversal orders where legal - an orthogonal, on-chip effect - while\n\
     the layout pass owns the Data-to-MC mapping; 'combined' runs the\n\
     layout pass on the restructured program.  Where dependences or\n\
     imperfect nests block interchange (blk), only the layout pass helps)";
  let page_ft = H.page_cfg ~policy:Config.First_touch () in
  let ours = H.page_cfg ~policy:Config.Mc_aware () in
  Printf.printf "  %-10s %15s %10s %10s %10s\n" "" "perm/align/blk" "loop"
    "layout" "combined";
  List.iter
    (fun app ->
      let c = H.ctx_of app in
      let lt = Core.Loop_transform.run c.H.analysis in
      let base = H.run page_ft ~optimized:false app in
      (* loop-restructured program under the same first-touch OS *)
      let restructured =
        Sim.Runner.run page_ft ~optimized:false
          ~warmup_phases:app.App.warmup_nests ~index_lookup:c.H.index_lookup
          lt.Core.Loop_transform.program
      in
      let layout = H.run ours ~optimized:true app in
      let combined =
        (* the layout pass applied on top of the restructured program *)
        let lt_analysis =
          Lang.Analysis.analyze lt.Core.Loop_transform.program
        in
        let profile a = Workloads.Profile.for_transform app lt_analysis a in
        Sim.Runner.run ours ~optimized:true
          ~warmup_phases:app.App.warmup_nests ~index_lookup:c.H.index_lookup
          ~profile lt.Core.Loop_transform.program
      in
      Printf.printf "  %-10s %9d/%d/%d %+9.1f%% %+9.1f%% %+9.1f%%\n"
        app.App.name lt.Core.Loop_transform.permuted_nests
        lt.Core.Loop_transform.already_aligned lt.Core.Loop_transform.blocked
        (H.exec_improvement base restructured)
        (H.exec_improvement base layout)
        (H.exec_improvement base combined))
    (H.apps ())

let ablation () =
  H.header "Ablation: model ingredients (apsi)"
    "(DESIGN.md Section 5: how much of the improvement comes from link\n\
     contention, thread decorrelation and channel bandwidth)";
  let app = Workloads.Suite.by_name "apsi" in
  let show name cfg =
    let o = H.run cfg ~optimized:false app in
    let p = H.run cfg ~optimized:true app in
    Printf.printf "  %-28s exec gain %+6.1f%%  (off-net %+6.1f%%)\n" name
      (H.exec_improvement o p)
      (H.four_metrics o p).H.offchip_net
  in
  show "default model" (H.line_cfg ());
  show "wide links (no contention)"
    {
      (H.line_cfg ()) with
      Config.noc = { Noc.Network.per_hop_latency = 4; link_bytes = 4096 };
    };
  show "no issue jitter" { (H.line_cfg ()) with Config.jitter = false };
  show "single DRAM channel" (Config.with_channels_per_mc (H.line_cfg ()) 1);
  show "FCFS scheduling (no FR)"
    { (H.line_cfg ()) with Config.mc_scheduler = Dram.Fr_fcfs.Fcfs };
  show "closed-page DRAM"
    { (H.line_cfg ()) with Config.mc_row_policy = Dram.Fr_fcfs.Closed_page }

let sensitivity () =
  H.header "Sensitivity: link width, L2 capacity, compute intensity"
    "(robustness of the execution-time gain to the scaled platform's\n\
     parameters, averaged over apsi, swim and fma3d)";
  let sample = [ "apsi"; "swim"; "fma3d" ] in
  let avg_gain cfg =
    let gains =
      List.map
        (fun name ->
          let app = Workloads.Suite.by_name name in
          H.exec_improvement
            (H.run cfg ~optimized:false app)
            (H.run cfg ~optimized:true app))
        sample
    in
    List.fold_left ( +. ) 0. gains /. float_of_int (List.length gains)
  in
  Printf.printf "  %-24s %10s\n" "variant" "exec gain";
  List.iter
    (fun (name, cfg) -> Printf.printf "  %-24s %+9.1f%%\n" name (avg_gain cfg))
    [
      ("default", H.line_cfg ());
      ( "8 B links",
        { (H.line_cfg ()) with Config.noc = { Noc.Network.per_hop_latency = 4; link_bytes = 8 } } );
      ( "32 B links",
        { (H.line_cfg ()) with Config.noc = { Noc.Network.per_hop_latency = 4; link_bytes = 32 } } );
      ("L2 8 KB/node", { (H.line_cfg ()) with Config.l2_size = 8192 });
      ("L2 32 KB/node", { (H.line_cfg ()) with Config.l2_size = 32768 });
      ("compute x0.5", { (H.line_cfg ()) with Config.compute_cycles = 8 });
      ("compute x2", { (H.line_cfg ()) with Config.compute_cycles = 32 });
    ]

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

(* --jobs N: shard the independent sections across N forked workers via
   the sweep pool, capturing each worker's stdout and re-printing it in
   section order as results arrive.  Per-process run memoization is not
   shared between workers, so shared baselines are re-simulated in each —
   the trade for running the sections concurrently.  (OFFCHIP_CSV is a
   single shared file and is not supported in this mode; use --json.) *)
let run_sections_parallel ~jobs selected =
  let tasks = Array.of_list selected in
  let f i =
    let _, fn = tasks.(i) in
    let tmp = Filename.temp_file "bench-section" ".out" in
    let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
    flush stdout;
    Unix.dup2 fd Unix.stdout;
    Unix.close fd;
    fn ();
    Format.pp_print_flush Format.std_formatter ();
    flush stdout;
    H.flush_json_section ();
    let ic = open_in_bin tmp in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    Sys.remove tmp;
    Ok s
  in
  let results = Array.make (Array.length tasks) None in
  let next = ref 0 in
  let flush_ready () =
    while !next < Array.length tasks && results.(!next) <> None do
      (match results.(!next) with
      | Some (Sweep.Pool.Completed { payload; _ }) -> print_string payload
      | Some (Sweep.Pool.Failed { reason; _ }) ->
        Printf.printf "\n=== %s === FAILED: %s\n" (fst tasks.(!next)) reason
      | None -> ());
      incr next
    done;
    flush stdout
  in
  ignore
    (Sweep.Pool.run ~workers:jobs ~timeout_s:3600. ~retries:0
       ~on_outcome:(fun i o ->
         results.(i) <- Some o;
         flush_ready ())
       ~jobs:(Array.length tasks) f);
  flush_ready ()

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
    match if platform = "" then Ok () else H.set_platform platform with
    | Error e -> fail "--platform %s: %s" platform e
    | Ok () ->
      Option.iter H.set_json_dir json;
      let t0 = Unix.gettimeofday () in
      let selected =
        if only = None then sections
        else List.filter (fun (name, _) -> List.mem name names) sections
      in
      if jobs > 1 then run_sections_parallel ~jobs selected
      else List.iter (fun (_, f) -> f ()) selected;
      Printf.printf "\n(total wall time: %.0f s)\n" (Unix.gettimeofday () -. t0);
      Cli.ok)

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
        ~doc:
          "Run the sections in N forked workers, printing each section's \
           output in order (use --json, not OFFCHIP_CSV, with N > 1).")

let cmd =
  Cmd.v
    (Cmd.info "bench" ~doc:"regenerate the paper's tables and figures")
    Term.(
      const main $ only_arg $ more_sections_arg $ Cli.platform $ json_arg
      $ jobs_arg)

(* cmdliner reports a bad flag or value as a message, a usage line and a
   hint; keep the message alone and exit with the user-error code *)
let () =
  let buf = Buffer.create 256 in
  let err = Format.formatter_of_buffer buf in
  Format.pp_set_margin err 10_000;
  match Cmd.eval_value ~err cmd with
  | Ok (`Ok code) -> exit code
  | Ok (`Version | `Help) -> exit Cli.ok
  | Error _ ->
    Format.pp_print_flush err ();
    prerr_endline (List.hd (String.split_on_char '\n' (Buffer.contents buf)));
    exit Cli.user_error
