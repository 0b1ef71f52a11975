module Json = Obs.Json

let result_json ?attr ?(extra = []) ~app cfg (r : Sim.Engine.result) =
  (* the attribution and heatmap sections exist only when the run was
     attributed: a plain run's document must stay byte-identical to the
     pre-attribution format (the seed-0 golden pins this) *)
  let attr_fields =
    match attr with
    | None -> []
    | Some a ->
      let snap = Obs.Attr.snapshot a in
      let node_requests =
        Array.map
          (Array.fold_left ( + ) 0)
          (Sim.Stats.node_mc_requests r.Sim.Engine.stats)
      in
      [
        ("attribution", Obs.Attr.to_json snap);
        ( "heatmaps",
          Json.obj
            [
              ( "link_utilization",
                Json.String
                  (Sim.Platform_map.render_link_heat cfg
                     r.Sim.Engine.link_utilization) );
              ( "bank_pressure",
                Json.String (Obs.Report.bank_heat (Obs.Attr.bank_load snap)) );
              ( "node_requests",
                Json.String (Sim.Platform_map.render_heat cfg node_requests) );
            ] );
      ]
  in
  Json.obj
    ([
       ("app", Json.String app);
       ("config", Sim.Config.to_json cfg);
       ("stats", Sim.Stats.to_json r.Sim.Engine.stats);
       ("measured_time", Json.Int r.Sim.Engine.measured_time);
       ("mc_occupancy", Json.float_array r.Sim.Engine.mc_occupancy);
       ("mc_row_hit_rate", Json.float_array r.Sim.Engine.mc_row_hit_rate);
       ("mc_max_queue", Json.int_array r.Sim.Engine.mc_max_queue);
       ("link_utilization", Json.float_array r.Sim.Engine.link_utilization);
       ("pages_allocated", Json.Int r.Sim.Engine.pages_allocated);
     ]
    @ attr_fields @ extra)

let run_job (job : Spec.job) =
  let app = Workloads.Suite.by_name job.Spec.app in
  let program = Workloads.App.program app in
  let analysis = Lang.Analysis.analyze program in
  let index_lookup = Workloads.App.index_lookup app in
  let cfg = job.Spec.config in
  (* the profile only steers the layout pass, which only optimized runs use *)
  let profile a = Workloads.Profile.for_transform app analysis a in
  let r =
    Sim.Runner.run cfg ~optimized:job.Spec.optimized
      ~warmup_phases:app.Workloads.App.warmup_nests ~index_lookup ~profile
      program
  in
  result_json ~app:job.Spec.app cfg r
