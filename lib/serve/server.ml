module Json = Obs.Json
module Config = Sim.Config
module Engine = Sim.Engine
module Par_engine = Sim.Par_engine
module Runner = Sim.Runner

(* each tenant owns one 256 MB virtual-address slice; slices never
   overlap, so the shared allocator can hand a departing tenant's whole
   page range back with one free_region call *)
let slice = 1 lsl 28

type tenant = {
  id : int;
  app : string;
  slot : int;
  arrival : int;
  start : int;
  finish : int;
  measured : int;
  solo : int;
  slowdown : float;
  offchip : int;
  fallbacks : int;
}

let queue_wait t = t.start - t.arrival
let completion_latency t = t.finish - t.arrival

type qos = {
  weighted_speedup : float;
  p50_latency : int;
  p95_latency : int;
  p99_latency : int;
  total_fallbacks : int;
  avg_queue_wait : float;
}

type t = {
  scenario : Scenario.t;
  cfg : Config.t;
  engine : Engine.result;
  tenants : tenant list;
  qos : qos;
  attr : Obs.Attr.t option;
}

(* ------------------------------------------------------------------ *)
(* Arrival process *)

(* xorshift64 stream seeded like the engine's jitter streams but with a
   distinct mixing constant, so serving decisions never correlate with
   issue jitter at equal seeds *)
let stream seed =
  let state = ref ((seed * 0x2545F4914F6CDD1D) lxor 0x1E3779B97F4A7C15) in
  if !state = 0 then state := 1;
  fun () ->
    let x = !state in
    let x = x lxor (x lsl 13) in
    let x = x lxor (x lsr 7) in
    let x = x lxor (x lsl 17) in
    state := x;
    (* fold high bits down: raw xorshift low bits are too regular for
       the small moduli the lottery takes *)
    (x lxor (x lsr 29)) land max_int

(* geometric inter-arrival with success probability 1/mean: the discrete
   memoryless (Poisson-like) process, in pure integer arithmetic so
   committed goldens cannot drift across libm versions *)
let interarrival draw mean =
  if mean <= 1 then 1
  else
    let rec go n = if draw () mod mean = 0 then n else go (n + 1) in
    go 1

type admission = { aid : int; aapp : string; aslot : int; at : int }

let plan (sc : Scenario.t) ~slots =
  let draw = stream sc.Scenario.seed in
  let mix = Array.of_list sc.Scenario.mix in
  let napps = Array.length mix in
  let rec go id t acc =
    if id >= sc.Scenario.tenants then List.rev acc
    else
      let arrival =
        if id = 0 then 0 else t + interarrival draw sc.Scenario.arrival_mean
      in
      match sc.Scenario.duration with
      | Some d when arrival > d -> List.rev acc
      | _ ->
        let app = mix.(draw () mod napps) in
        go (id + 1) arrival
          ({ aid = id; aapp = app; aslot = id mod slots; at = arrival } :: acc)
  in
  go 0 0 []

(* ------------------------------------------------------------------ *)
(* Run *)

(* an app's canonical preparation: traced once at slot 0 of slice 0 —
   exactly its solo run — and relocated for every tenant running it *)
let prepare_app cfg ~(sc : Scenario.t) ~attr appname =
  let app = Workloads.Suite.by_name appname in
  let program = Workloads.App.program app in
  let index_lookup = Workloads.App.index_lookup app in
  let profile =
    if sc.Scenario.optimized then
      let analysis = Lang.Analysis.analyze program in
      Some (fun arr -> Workloads.Profile.for_transform app analysis arr)
    else None
  in
  Runner.prepare cfg ~optimized:sc.Scenario.optimized
    ~threads:sc.Scenario.threads_per_tenant
    ~name:(Printf.sprintf "t0:%s" appname)
    ~warmup_phases:app.Workloads.App.warmup_nests ~index_lookup ?profile ~attr
    program

let place_tenant cfg ~(sc : Scenario.t) canonical a =
  let tpc = cfg.Config.threads_per_core in
  Runner.relocate cfg canonical ~vaddr_base:(a.aid * slice)
    ~core_offset:(a.aslot * (sc.Scenario.threads_per_tenant / tpc))
    ~name:(Printf.sprintf "t%d:%s" a.aid a.aapp)

(* solo golden: the tenant alone on an otherwise idle machine, same
   thread count and policy — the denominator of slowdown and the
   numerator of weighted speedup.  That is the app's canonical job, run
   untagged. *)
let solo_time cfg canonical =
  let tbl = Hashtbl.create 8 in
  fun appname ->
    match Hashtbl.find_opt tbl appname with
    | Some t -> t
    | None ->
      let p = canonical appname in
      let r =
        Engine.run cfg ~desired_mc_of_vpage:p.Runner.desired_mc
          ~jobs:[ { p.Runner.job with Engine.site_streams = [] } ]
          ()
      in
      let t = max 1 r.Engine.measured_time in
      Hashtbl.replace tbl appname t;
      t

let combined_attr cfg plan preps =
  let site_arrays =
    List.map (fun p -> Lang.Sites.sites p.Runner.sites) preps
  in
  let sites =
    List.concat
      (List.map2
         (fun a arr ->
           Array.to_list
             (Array.map
                (fun (s : Lang.Sites.site) ->
                  {
                    Obs.Attr.array =
                      Printf.sprintf "t%d:%s/%s" a.aid a.aapp
                        s.Lang.Sites.array;
                    write = s.Lang.Sites.write;
                    phase = s.Lang.Sites.phase;
                    loc = Lang.Span.to_string s.Lang.Sites.span;
                  })
                arr))
         plan site_arrays)
  in
  let cube =
    Obs.Attr.create ~sites:(Array.of_list sites)
      ~mcs:(Config.num_mcs cfg) ~banks:(Config.banks_per_mc cfg)
      ~max_hops:Sim.Stats.max_hops
  in
  (* per-tenant offset of each tenant's site ids in the combined table *)
  let bases =
    let acc = ref 0 in
    List.map
      (fun arr ->
        let b = !acc in
        acc := b + Array.length arr;
        b)
      site_arrays
  in
  (cube, bases)

let offset_streams base streams =
  if base = 0 then streams
  else
    List.map
      (Array.map (Array.map (fun s -> if s >= 0 then s + base else s)))
      streams

let percentile sorted n k =
  let rank = ((k * n) + 99) / 100 in
  List.nth sorted (max 0 (rank - 1))

let run ?(attr = false) ?(progress = Obs.Progress.null) ?(domains = 1) ?on_plan
    (sc : Scenario.t) =
  let ( let* ) = Result.bind in
  let* sc = Scenario.validate sc in
  let* cfg = Scenario.config sc in
  let tpc = cfg.Config.threads_per_core in
  let cores_total = Noc.Topology.nodes (Config.topo cfg) in
  let tpt = sc.Scenario.threads_per_tenant in
  let* () =
    if tpt mod tpc <> 0 then
      Error
        (Printf.sprintf
           "serve: threads_per_tenant (%d) must be a multiple of \
            threads_per_core (%d)"
           tpt tpc)
    else Ok ()
  in
  let cores_per_tenant = tpt / tpc in
  let* () =
    if cores_per_tenant > cores_total then
      Error
        (Printf.sprintf
           "serve: a tenant needs %d cores but the platform has only %d"
           cores_per_tenant cores_total)
    else Ok ()
  in
  let slots = cores_total / cores_per_tenant in
  let plan = plan sc ~slots in
  let* () =
    if plan = [] then
      Error "serve: no tenant arrives within the scenario duration"
    else Ok ()
  in
  let canonical =
    let tbl = Hashtbl.create 8 in
    fun appname ->
      match Hashtbl.find_opt tbl appname with
      | Some p -> p
      | None ->
        let p = prepare_app cfg ~sc ~attr appname in
        Hashtbl.replace tbl appname p;
        p
  in
  let preps =
    List.map (fun a -> place_tenant cfg ~sc (canonical a.aapp) a) plan
  in
  let* () =
    match
      List.find_opt
        (fun (a, p) ->
          List.exists
            (fun (_, base) -> base >= (a.aid + 1) * slice)
            p.Runner.bases)
        (List.combine plan preps)
    with
    | Some (a, _) ->
      Error
        (Printf.sprintf
           "serve: tenant %d (%s) overflows its %d MB address slice" a.aid
           a.aapp (slice / (1 lsl 20)))
    | None -> Ok ()
  in
  let cube, site_bases =
    if attr then
      let c, b = combined_attr cfg plan preps in
      (Some c, b)
    else (None, List.map (fun _ -> 0) preps)
  in
  let page_bytes = Config.page_bytes cfg in
  let last_on_slot = Array.make slots (-1) in
  let jobs =
    List.map2
      (fun (a, p) base ->
        let pred = last_on_slot.(a.aslot) in
        last_on_slot.(a.aslot) <- a.aid;
        let job = p.Runner.job in
        {
          job with
          Engine.site_streams = offset_streams base job.Engine.site_streams;
          start_time = a.at;
          start_after = (if pred < 0 then None else Some pred);
          free_vpage_range =
            Some
              ( a.aid * slice / page_bytes,
                (((a.aid + 1) * slice) - 1) / page_bytes );
        })
      (List.combine plan preps) site_bases
  in
  (* the co-run is the hot loop; tenants whose slots share no cluster
     decompose by partition (first-touch scenarios with cluster-sized
     tenants), everything else falls back sequentially — byte-identical
     either way.  Solo calibration runs below stay sequential. *)
  let r =
    Par_engine.run cfg
      ~desired_mc_of_vpage:(Runner.combined_hints preps)
      ?attr:cube ?on_plan ~domains ~jobs ()
  in
  let solo = solo_time cfg canonical in
  let tenants =
    List.map
      (fun a ->
        let i = a.aid in
        let measured = max 1 r.Engine.job_measured.(i) in
        let solo = solo a.aapp in
        {
          id = i;
          app = a.aapp;
          slot = a.aslot;
          arrival = a.at;
          start = r.Engine.job_start.(i);
          finish = r.Engine.job_finish.(i);
          measured;
          solo;
          slowdown = float_of_int measured /. float_of_int solo;
          offchip = r.Engine.job_offchip.(i);
          fallbacks = r.Engine.job_fallbacks.(i);
        })
      plan
  in
  let n = List.length tenants in
  let lats = List.sort compare (List.map completion_latency tenants) in
  let qos =
    {
      weighted_speedup =
        List.fold_left
          (fun acc t -> acc +. (float_of_int t.solo /. float_of_int t.measured))
          0. tenants
        /. float_of_int n;
      p50_latency = percentile lats n 50;
      p95_latency = percentile lats n 95;
      p99_latency = percentile lats n 99;
      total_fallbacks = List.fold_left (fun acc t -> acc + t.fallbacks) 0 tenants;
      avg_queue_wait =
        float_of_int (List.fold_left (fun acc t -> acc + queue_wait t) 0 tenants)
        /. float_of_int n;
    }
  in
  let result = { scenario = sc; cfg; engine = r; tenants; qos; attr = cube } in
  (* lifecycle events in simulated-time order (arrive < start < finish at
     equal times, then tenant id) — the same NDJSON framing sweeps use *)
  let events =
    List.concat_map
      (fun t -> [ (t.arrival, 0, t); (t.start, 1, t); (t.finish, 2, t) ])
      tenants
    |> List.sort (fun (ta, ka, a) (tb, kb, b) ->
           compare (ta, ka, a.id) (tb, kb, b.id))
  in
  List.iter
    (fun (time, kind, t) ->
      let event =
        match kind with
        | 0 -> "tenant_arrive"
        | 1 -> "tenant_start"
        | _ -> "tenant_finish"
      in
      let tail =
        if kind = 2 then
          [
            ("completion_latency", Json.Int (completion_latency t));
            ("slowdown", Json.Float t.slowdown);
          ]
        else []
      in
      Obs.Progress.emit progress
        (Json.obj
           ([
              ("event", Json.String event);
              ("time", Json.Int time);
              ("tenant", Json.Int t.id);
              ("app", Json.String t.app);
              ("slot", Json.Int t.slot);
            ]
           @ tail)))
    events;
  Obs.Progress.emit progress
    (Json.obj
       [
         ("event", Json.String "serve_done");
         ("scenario", Json.String sc.Scenario.name);
         ("tenants", Json.Int n);
         ("weighted_speedup", Json.Float qos.weighted_speedup);
       ]);
  Ok result

(* ------------------------------------------------------------------ *)
(* Result document *)

let tenant_json t =
  Json.obj
    [
      ("id", Json.Int t.id);
      ("app", Json.String t.app);
      ("slot", Json.Int t.slot);
      ("arrival", Json.Int t.arrival);
      ("start", Json.Int t.start);
      ("finish", Json.Int t.finish);
      ("queue_wait", Json.Int (queue_wait t));
      ("completion_latency", Json.Int (completion_latency t));
      ("measured_time", Json.Int t.measured);
      ("solo_time", Json.Int t.solo);
      ("slowdown", Json.Float t.slowdown);
      ("offchip_accesses", Json.Int t.offchip);
      ("fallback_allocations", Json.Int t.fallbacks);
    ]

let qos_json q =
  Json.obj
    [
      ("weighted_speedup", Json.Float q.weighted_speedup);
      ("p50_latency", Json.Int q.p50_latency);
      ("p95_latency", Json.Int q.p95_latency);
      ("p99_latency", Json.Int q.p99_latency);
      ("total_fallbacks", Json.Int q.total_fallbacks);
      ("avg_queue_wait", Json.Float q.avg_queue_wait);
    ]

let result_json run =
  Sweep.Exec.result_json ?attr:run.attr
    ~extra:
      [
        ("scenario", Scenario.to_json run.scenario);
        ("tenants", Json.list tenant_json run.tenants);
        ("qos", qos_json run.qos);
      ]
    ~app:("serve:" ^ run.scenario.Scenario.name)
    run.cfg run.engine
