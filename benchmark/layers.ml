(* Per-layer metrics of a traced run: host self time per layer from the
   spans, the pipeline's own pass timers, trace-only measurements on the
   prepared jobs (heap footprint, replay kernels, the parallel engine's
   byte oracle) and the simulated machine's statistics.  A metric whose
   layer the workload never calls reads 0. *)

module W = Workload
module S = Sim.Stats
module Engine = Sim.Engine

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }
let median = Kernels.median
let sum f xs = List.fold_left (fun acc x -> acc +. f x) 0. xs
let ratio a b = if b = 0. then 0. else a /. b

(* Standalone calls into the analysis and transform layers on an
   operation's own input, as often as its prepare makes them, so that
   prepare's self time can be split. *)
let attribute_prepare (i : W.input) =
  let copies =
    if i.W.replicas then Core.Cluster.num_clusters (Sim.Config.cluster i.W.cfg)
    else 1
  in
  for _ = 1 to copies do
    let analysis =
      Spans.with_span "sim.analysis" (fun () ->
          Lang.Analysis.analyze i.W.program)
    in
    if i.W.optimized then
      Spans.with_span "sim.transform" (fun () ->
          ignore
            (Core.Transform.run ~profile:i.W.profile
               (Sim.Config.customize_config i.W.cfg)
               analysis))
  done

type prepared = {
  heap_mb : float;  (** largest prepared trace footprint over the inputs *)
  kernels : (string * float) list;  (** replay kernels on the first input *)
  par : (float * bool) option;
      (** parallel engine speedup, and its byte equality to one domain *)
}

let prepared_layers inputs =
  let heap_mb = ref 0. and kernels = ref [] and par = ref None in
  List.iteri
    (fun k (i : W.input) ->
      let jobs = W.prepare i in
      let words =
        List.fold_left
          (fun acc p -> acc + Obj.reachable_words (Obj.repr p.Sim.Runner.job))
          0 jobs
      in
      let mb = float_of_int (words * (Sys.word_size / 8)) /. 1e6 in
      heap_mb := Float.max !heap_mb mb;
      if k = 0 then kernels := Kernels.replay i.W.cfg (List.hd jobs);
      if i.W.domains > 1 then begin
        let run domains =
          Gc.full_major ();
          let t0 = Unix.gettimeofday () in
          let r = Sim.Runner.run_many ~domains i.W.cfg ~jobs in
          let dt = Unix.gettimeofday () -. t0 in
          (W.sim_doc i r, dt)
        in
        let seq_doc, seq_s = run 1 in
        let par_doc, par_s = run i.W.domains in
        par := Some (seq_s /. par_s, String.equal seq_doc par_doc)
      end)
    inputs;
  { heap_mb = !heap_mb; kernels = !kernels; par = !par }

(* Controller reads served, warm-up included, as the row-hit counter
   counts them. *)
let reads (r : Engine.result) =
  let hists = (S.snapshot r.Engine.stats).Obs.Metrics.histograms in
  match List.assoc_opt "mem.latency" hists with
  | Some h -> h.Obs.Metrics.total
  | None -> 0

(* Simulated statistics of one side (original or optimized), summed over
   its runs before any ratio is taken. *)
let side_metrics suffix (rs : Engine.result list) =
  let total f = sum (fun r -> float_of_int (f r.Engine.stats)) rs in
  let accesses = total S.total_accesses and l1 = total S.l1_hits in
  let offchip = total S.offchip_accesses in
  let hop_sum = ref 0 and hop_count = ref 0 in
  List.iter
    (fun r ->
      Array.iteri
        (fun hops c ->
          hop_sum := !hop_sum + (hops * c);
          hop_count := !hop_count + c)
        (S.offchip_hops r.Engine.stats))
    rs;
  let mean a =
    ratio (Array.fold_left ( +. ) 0. a) (float_of_int (Array.length a))
  in
  List.map
    (fun x -> { x with name = x.name ^ suffix })
    [
      m "cache.l1_hit_rate" "share" (ratio l1 accesses);
      m "cache.l2_hit_rate" "share" (ratio (total S.l2_hits) (accesses -. l1));
      m "noc.avg_offchip_net_cycles" "cycles"
        (ratio (total S.offchip_net_cycles) (total S.offchip_messages));
      m "noc.avg_offchip_hops" "hops"
        (ratio (float_of_int !hop_sum) (float_of_int !hop_count));
      m "noc.max_link_utilization" "share"
        (List.fold_left
           (fun acc r ->
             Array.fold_left Float.max acc r.Engine.link_utilization)
           0. rs);
      m "noc.offchip_cross_chiplet" "count"
        (sum
           (fun r -> float_of_int (W.counter "sim.offchip_cross_chiplet" r))
           rs);
      m "dram.avg_memory_cycles" "cycles"
        (ratio (total S.memory_cycles) offchip);
      m "dram.avg_queue_cycles" "cycles"
        (ratio (total S.memory_queue_cycles) offchip);
      m "dram.row_hit_rate" "share"
        (ratio (total S.row_hits) (sum (fun r -> float_of_int (reads r)) rs));
      m "dram.avg_occupancy" "requests"
        (ratio (sum (fun r -> mean r.Engine.mc_occupancy) rs)
           (float_of_int (List.length rs)));
      m "dram.writebacks" "count" (total S.writebacks);
      m "sim.offchip_accesses" "count" offchip;
    ]

(* The paper's gains over the original/optimized pairs, weighted by
   access and message counts as the figure harness aggregates them. *)
let gains orig opt =
  let total f rs = sum (fun r -> float_of_int (f r)) rs in
  let avg num den rs =
    ratio (total (fun r -> num r.Engine.stats) rs)
      (Float.max 1. (total (fun r -> den r.Engine.stats) rs))
  in
  let reduction f =
    if orig = [] || opt = [] then 0.
    else
      let o = f orig and p = f opt in
      if o = 0. then 0. else 100. *. (1. -. (p /. o))
  in
  [
    m "sim.exec_gain_pct" "%"
      (reduction (total (fun r -> r.Engine.measured_time)));
    m "sim.offchip_net_gain_pct" "%"
      (reduction (avg S.offchip_net_cycles S.offchip_messages));
    m "sim.memory_gain_pct" "%"
      (reduction (avg S.memory_cycles S.offchip_accesses));
  ]

let simulated outcomes =
  let serves =
    List.filter_map
      (fun (_, o) -> match o.W.result with W.Served r -> Some r | _ -> None)
      outcomes
  in
  let serve_engines = List.map (fun r -> r.Serve.Server.engine) serves in
  let orig = W.engines ~optimized:false outcomes in
  let opt = W.engines ~optimized:true outcomes in
  let qos f = sum (fun r -> f r.Serve.Server.qos) serves in
  gains orig opt
  @ [
      m "serve.weighted_speedup" "x"
        (qos (fun q -> q.Serve.Server.weighted_speedup));
      m "serve.p95_latency_mcycles" "Mcycles"
        (qos (fun q -> float_of_int q.Serve.Server.p95_latency) /. 1e6);
      m "serve.avg_queue_wait_mcycles" "Mcycles"
        (qos (fun q -> q.Serve.Server.avg_queue_wait) /. 1e6);
      m "os.page_fallbacks" "count"
        (sum
           (fun r -> float_of_int (S.page_fallbacks r.Engine.stats))
           (orig @ opt @ serve_engines));
    ]
  @ side_metrics ".orig" orig
  @ side_metrics ".opt" (opt @ serve_engines)

let pipeline_passes =
  [
    "search"; "parse"; "check"; "analyze"; "solve"; "mapping"; "customize";
    "rewrite"; "sites"; "verify"; "codegen"; "verify-codegen";
  ]

let kernel_names =
  [
    "kernel.sacache_ns"; "kernel.page_alloc_ns"; "kernel.network_ns";
    "kernel.fr_fcfs_ns"; "kernel.event_heap_ns";
  ]

(* What the traced run measured, per pass where it is a time. *)
type run = {
  spans : Spans.span list;
  traced_passes : int;
  inputs : W.input list;
  outcomes : (string * W.outcome) list;
  pass_phases : (string * float) list list;
      (** the pipeline's pass timers, summed over a pass's compiles *)
  wall_s : float;
  traced_wall_s : float;
}

let metrics r =
  let passes = float_of_int r.traced_passes in
  let per_pass name = Spans.self_total r.spans name /. passes in
  let prepare = per_pass "sim.prepare" and engine = per_pass "sim.engine" in
  let analysis = per_pass "sim.analysis" in
  let transform = per_pass "sim.transform" in
  let engine_words =
    sum
      (fun s -> if s.Spans.name = "sim.engine" then s.Spans.words else 0.)
      r.spans
    /. passes
  in
  let accesses ~sim =
    sum
      (fun (_, o) ->
        match o.W.result with
        | W.Simulated _ -> float_of_int o.W.accesses
        | W.Served _ when not sim -> float_of_int o.W.accesses
        | _ -> 0.)
      r.outcomes
  in
  let compiles =
    List.filter_map
      (fun (_, o) -> match o.W.result with W.Compiled c -> Some c | _ -> None)
      r.outcomes
  in
  let p = prepared_layers r.inputs in
  let phase name =
    median
      (List.map
         (fun t -> Option.value ~default:0. (List.assoc_opt name t))
         r.pass_phases)
  in
  [
    m "sim.trace_gen_s" "s" (prepare -. analysis -. transform);
    m "sim.analysis_s" "s" analysis;
    m "sim.transform_s" "s" transform;
    m "sim.engine_s" "s" engine;
    m "sim.engine_ns_per_access" "ns"
      (ratio (engine *. 1e9) (accesses ~sim:true));
    m "sim.engine_minor_words_per_access" "words"
      (ratio engine_words (accesses ~sim:true));
    m "sim.prepare_heap_mb" "MB" p.heap_mb;
    m "sim.maccesses_per_s" "M/s" (ratio (accesses ~sim:false /. 1e6) r.wall_s);
    m "sim.par_speedup_x" "x" (match p.par with Some (x, _) -> x | None -> 0.);
    m "sim.par_oracle_equal" "bool"
      (match p.par with Some (_, true) -> 1. | _ -> 0.);
    m "obs.emit_s" "s" (per_pass "obs.emit");
    m "serve.run_s" "s" (per_pass "serve.run");
    m "core.compile_s" "s" (per_pass "core.compile");
    m "core.compiles_per_s" "1/s"
      (ratio (float_of_int (List.length compiles)) r.wall_s);
    m "core.search_evaluations" "count"
      (sum
         (fun c ->
           match c.Core.Pipeline.artifacts.Core.Pipeline.search with
           | Some s -> float_of_int s.Core.Place_search.evaluations
           | None -> 0.)
         compiles);
  ]
  @ List.map
      (fun name -> m ("core.pass." ^ name ^ "_s") "s" (phase name))
      pipeline_passes
  @ [
      m "trace.overhead_s" "s" (r.traced_wall_s -. r.wall_s);
      m "trace.span_coverage" "share" (Spans.min_coverage r.spans ~root:"op");
    ]
  @ List.map
      (fun k ->
        m k "ns" (Option.value ~default:0. (List.assoc_opt k p.kernels)))
      kernel_names
  @ simulated r.outcomes
