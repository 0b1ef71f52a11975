(* Tests for the consolidation server: solo equivalence, determinism,
   per-tenant accounting, policy comparison and the committed two-seed
   goldens. *)

module Scenario = Serve.Scenario
module Server = Serve.Server

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let run_exn sc =
  match Server.run sc with
  | Ok r -> r
  | Error e -> Alcotest.failf "serve failed: %s" e

(* The smoke runs are shared across several tests; memoize them. *)
let smoke_run = lazy (run_exn (Scenario.smoke ()))

let smoke_interleaved =
  lazy (run_exn (Scenario.smoke ~policy:Scenario.Hardware ()))

let one_tenant app seed =
  {
    (Scenario.smoke ~seed ()) with
    Scenario.mix = [ app ];
    tenants = 1;
    name = "solo-" ^ app;
  }

(* A 1-tenant, zero-churn serve run is exactly a solo Sim.Runner run:
   same placement, same jitter, byte-identical steady-state stats. *)
let solo_stats_json sc =
  let cfg =
    match Scenario.config sc with
    | Ok c -> c
    | Error e -> Alcotest.failf "config: %s" e
  in
  let app = Workloads.Suite.by_name (List.hd sc.Scenario.mix) in
  let program = Workloads.App.program app in
  let analysis = Lang.Analysis.analyze program in
  let index_lookup = Workloads.App.index_lookup app in
  let profile a = Workloads.Profile.for_transform app analysis a in
  let p =
    Sim.Runner.prepare cfg ~optimized:true ~threads:sc.Scenario.threads_per_tenant
      ~warmup_phases:app.Workloads.App.warmup_nests ~index_lookup ~profile
      program
  in
  let r =
    Sim.Engine.run cfg ~desired_mc_of_vpage:p.Sim.Runner.desired_mc
      ~jobs:[ p.Sim.Runner.job ] ()
  in
  ( Obs.Json.to_string (Sim.Stats.to_json r.Sim.Engine.stats),
    r.Sim.Engine.measured_time )

let check_solo_equivalence app seed =
  let sc = one_tenant app seed in
  let run = run_exn sc in
  let solo_json, solo_time = solo_stats_json sc in
  Alcotest.(check string)
    (Printf.sprintf "%s seed %d: byte-identical stats" app seed)
    solo_json
    (Obs.Json.to_string (Sim.Stats.to_json run.Server.engine.Sim.Engine.stats));
  Alcotest.(check int) "same measured time" solo_time
    run.Server.engine.Sim.Engine.measured_time;
  match run.Server.tenants with
  | [ t ] ->
    Alcotest.(check int) "arrives at boot" 0 t.Server.arrival;
    Alcotest.(check int) "no queue wait" 0 (Server.queue_wait t);
    Alcotest.(check (float 1e-9)) "slowdown exactly 1" 1. t.Server.slowdown
  | ts -> Alcotest.failf "expected 1 tenant, got %d" (List.length ts)

let test_solo_equivalence_seed0 () = check_solo_equivalence "minimd" 0

let prop_solo_equivalence =
  QCheck.Test.make ~name:"serve(1 tenant) == solo runner, byte for byte"
    ~count:3
    (QCheck.make
       QCheck.Gen.(
         pair (oneofl [ "minimd"; "gafort"; "hpccg" ]) (int_range 1 5)))
    (fun (app, seed) ->
      check_solo_equivalence app seed;
      true)

let test_determinism () =
  (* same scenario, two fresh runs: byte-identical result documents *)
  let doc () = Obs.Json.to_string (Server.result_json (run_exn (Scenario.smoke ()))) in
  Alcotest.(check string) "byte-identical documents" (doc ()) (doc ())

let test_offchip_split () =
  let run = Lazy.force smoke_run in
  let total =
    List.fold_left (fun acc t -> acc + t.Server.offchip) 0 run.Server.tenants
  in
  Alcotest.(check int) "per-tenant off-chip sums to the engine counter"
    (Sim.Stats.offchip_accesses run.Server.engine.Sim.Engine.stats)
    total;
  Alcotest.(check bool) "tenants saw off-chip traffic" true (total > 0)

let test_reclaim_leaves_pool_empty () =
  let run = Lazy.force smoke_run in
  Alcotest.(check int) "all tenant pages reclaimed at the end" 0
    run.Server.engine.Sim.Engine.pages_allocated

let test_admission_chains () =
  let run = Lazy.force smoke_run in
  let by_id = Array.of_list run.Server.tenants in
  Array.iter
    (fun (t : Server.tenant) ->
      Alcotest.(check bool)
        (Printf.sprintf "tenant %d starts at/after arrival" t.Server.id)
        true
        (t.Server.start >= t.Server.arrival);
      Alcotest.(check bool)
        (Printf.sprintf "tenant %d finishes after start" t.Server.id)
        true
        (t.Server.finish > t.Server.start))
    by_id;
  (* 4 tenants on 2 slots: tenants 2 and 3 queue behind 0 and 1 *)
  Alcotest.(check int) "tenant 2 starts when tenant 0 departs"
    by_id.(0).Server.finish by_id.(2).Server.start;
  Alcotest.(check int) "tenant 3 starts when tenant 1 departs"
    by_id.(1).Server.finish by_id.(3).Server.start;
  Alcotest.(check bool) "queued tenants waited" true
    (Server.queue_wait by_id.(2) > 0 && Server.queue_wait by_id.(3) > 0)

let test_policy_comparison () =
  let mc = (Lazy.force smoke_run).Server.qos.Server.weighted_speedup in
  let il = (Lazy.force smoke_interleaved).Server.qos.Server.weighted_speedup in
  Alcotest.(check bool)
    (Printf.sprintf "mc-aware WS (%.3f) beats interleaved (%.3f)" mc il)
    true (mc > il)

let test_fallbacks_under_pressure () =
  (* first-touch concentrates minimd's pages on its own clusters'
     controllers; a 200-frame budget forces 2*(256-200) spills, all
     charged to the only tenant *)
  let sc =
    {
      (Scenario.smoke ()) with
      Scenario.name = "pressure";
      policy = Scenario.First_touch;
      mix = [ "minimd" ];
      tenants = 1;
      frames_per_mc = Some 200;
    }
  in
  let run = run_exn sc in
  let t = List.hd run.Server.tenants in
  Alcotest.(check int) "budget overflow spills are counted" 112
    t.Server.fallbacks;
  Alcotest.(check int) "qos aggregates them" 112
    run.Server.qos.Server.total_fallbacks

let test_progress_events () =
  let path = Filename.temp_file "serve_progress" ".ndjson" in
  let sink =
    match Obs.Progress.file_sink path with
    | Ok s -> s
    | Error e -> Alcotest.failf "sink: %s" e
  in
  let run =
    match Server.run ~progress:sink (Scenario.smoke ()) with
    | Ok r ->
      Obs.Progress.close sink;
      r
    | Error e ->
      Obs.Progress.close sink;
      Alcotest.failf "serve failed: %s" e
  in
  let events =
    match Obs.Progress.read path with
    | Ok evs -> evs
    | Error e -> Alcotest.failf "read: %s" e
  in
  Sys.remove path;
  let n = List.length run.Server.tenants in
  Alcotest.(check int) "three lifecycle events per tenant plus serve_done"
    ((3 * n) + 1)
    (List.length events);
  let kind e =
    match Obs.Json.member "event" e with
    | Some (Obs.Json.String s) -> s
    | _ -> "?"
  in
  Alcotest.(check string) "first event is an arrival" "tenant_arrive"
    (kind (List.hd events));
  Alcotest.(check string) "last event closes the run" "serve_done"
    (kind (List.nth events (3 * n)));
  (* simulated times are non-decreasing across lifecycle events *)
  let times =
    List.filter_map
      (fun e ->
        match Obs.Json.member "time" e with
        | Some (Obs.Json.Int t) -> Some t
        | _ -> None)
      events
  in
  Alcotest.(check bool) "event times sorted" true
    (List.sort compare times = times)

let test_attr_totals () =
  let run =
    match Server.run ~attr:true (Scenario.smoke ()) with
    | Ok r -> r
    | Error e -> Alcotest.failf "serve failed: %s" e
  in
  match run.Server.attr with
  | None -> Alcotest.fail "attr requested but absent"
  | Some a ->
    let snap = Obs.Attr.snapshot a in
    Alcotest.(check int) "cube total equals the off-chip counter"
      (Sim.Stats.offchip_accesses run.Server.engine.Sim.Engine.stats)
      (Obs.Attr.snap_total snap)

(* Every tenant and every solo calibration relocates its app's one
   canonical trace: a run interprets each app of the mix once. *)
let test_one_trace_per_app () =
  let sc = { (Scenario.smoke ()) with Scenario.tenants = 6 } in
  let before = Sim.Runner.traces_generated () in
  let run = run_exn sc in
  let apps =
    List.sort_uniq compare (List.map (fun t -> t.Server.app) run.Server.tenants)
  in
  Alcotest.(check int) "six tenants" 6 (List.length run.Server.tenants);
  Alcotest.(check int) "one trace per app" (List.length apps)
    (Sim.Runner.traces_generated () - before)

let check_golden seed =
  let sc = Scenario.smoke ~seed () in
  let got = Obs.Json.to_string (Server.result_json (run_exn sc)) ^ "\n" in
  let path = Printf.sprintf "golden/serve_seed%d.json" seed in
  Alcotest.(check string)
    (Printf.sprintf "seed %d byte-identical to committed golden" seed)
    (read_file path) got

let test_golden_seed0 () = check_golden 0
let test_golden_seed1 () = check_golden 1

let test_scenario_json_roundtrip () =
  let sc = { (Scenario.smoke ()) with Scenario.duration = Some 123456 } in
  match Scenario.of_json (Scenario.to_json sc) with
  | Ok sc' ->
    Alcotest.(check bool) "roundtrip preserves the scenario" true (sc = sc')
  | Error e -> Alcotest.failf "roundtrip: %s" e

let test_scenario_validation () =
  let bad mix = { (Scenario.smoke ()) with Scenario.mix } in
  (match Scenario.validate (bad []) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty mix accepted");
  (match Scenario.validate (bad [ "nosuchapp" ]) with
  | Error e ->
    Alcotest.(check bool) "names the unknown app" true
      (Astring.String.is_infix ~affix:"nosuchapp" e)
  | Ok _ -> Alcotest.fail "unknown app accepted");
  (* a misspelt key would otherwise run the default (MC-aware) policy *)
  (match
     Result.bind
       (Obs.Json.of_string {|{"mix":["minimd"],"polcy":"first-touch"}|})
       Scenario.of_json
   with
  | Error e ->
    Alcotest.(check string) "names the misspelt key"
      {|scenario: unknown scenario field "polcy"|} e
  | Ok _ -> Alcotest.fail "misspelt key accepted");
  match Scenario.policy_of_string "round-robin" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown policy accepted"

let qsuite = List.map QCheck_alcotest.to_alcotest

let suite =
  [
    ( "serve.scenario",
      [
        Alcotest.test_case "json roundtrip" `Quick test_scenario_json_roundtrip;
        Alcotest.test_case "validation" `Quick test_scenario_validation;
      ] );
    ( "serve.server",
      [
        Alcotest.test_case "solo equivalence (seed 0)" `Quick
          test_solo_equivalence_seed0;
        Alcotest.test_case "determinism" `Quick test_determinism;
        Alcotest.test_case "off-chip split" `Quick test_offchip_split;
        Alcotest.test_case "reclaim leaves pool empty" `Quick
          test_reclaim_leaves_pool_empty;
        Alcotest.test_case "admission chains" `Quick test_admission_chains;
        Alcotest.test_case "mc-aware beats interleaved" `Quick
          test_policy_comparison;
        Alcotest.test_case "fallbacks under pressure" `Quick
          test_fallbacks_under_pressure;
        Alcotest.test_case "progress events" `Quick test_progress_events;
        Alcotest.test_case "attribution totals" `Quick test_attr_totals;
        Alcotest.test_case "one trace per app" `Quick test_one_trace_per_app;
        Alcotest.test_case "golden seed 0" `Quick test_golden_seed0;
        Alcotest.test_case "golden seed 1" `Quick test_golden_seed1;
      ]
      @ qsuite [ prop_solo_equivalence ] );
  ]
