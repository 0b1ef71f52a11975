(* Tests for the partitioned parallel engine: plan acceptance and
   rejection, the parallel == sequential byte oracle (plain, attributed,
   consolidation serving, fallback), and a randomized identity property
   over app × seed × mesh draws.  Every identity check compares full
   result documents as strings, the same shape the CI oracle diffs. *)

module Config = Sim.Config
module Par = Sim.Par_engine
module Runner = Sim.Runner
module Json = Obs.Json

let cfg_of ?(interleave = "page") ?(policy = "first-touch") ?(l2 = "private")
    ?(platform = "mesh4x4-mc4") ?(optimal = false) ?(seed = 0) () =
  match
    Config.build ~scaled:true ~platform ~l2 ~interleave ~policy ~mapping:""
      ~tpc:1 ~optimal ~seed ()
  with
  | Ok c -> c
  | Error e -> Alcotest.failf "config: %s" e

let replicas ?(attr = false) cfg name =
  let app = Workloads.Suite.by_name name in
  Runner.prepare_replicas cfg ~optimized:false
    ~warmup_phases:app.Workloads.App.warmup_nests
    ~index_lookup:(Workloads.App.index_lookup app)
    ~attr
    (Workloads.App.program app)

let whole_machine cfg name =
  let app = Workloads.Suite.by_name name in
  Runner.prepare cfg ~optimized:false
    ~warmup_phases:app.Workloads.App.warmup_nests
    ~index_lookup:(Workloads.App.index_lookup app)
    (Workloads.App.program app)

let plan_of cfg preps =
  Par.plan cfg
    ~desired_mc_of_vpage:(Runner.combined_hints preps)
    ~jobs:(List.map (fun p -> p.Runner.job) preps)
    ()

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* --- plan acceptance and rejection --- *)

let test_plan_accepts_replicas () =
  let cfg = cfg_of () in
  match plan_of cfg (replicas cfg "minimd") with
  | Par.Parallel parts ->
    Alcotest.(check int) "one partition per cluster" 4 (Array.length parts);
    Array.iteri
      (fun i p ->
        Alcotest.(check (list int)) "one cluster each, ascending" [ i ]
          p.Par.part_clusters;
        Alcotest.(check bool) "owns controllers" true (p.Par.part_mcs <> []);
        Alcotest.(check bool) "owns a job" true (p.Par.part_jobs <> []))
      parts
  | Par.Sequential reason -> Alcotest.failf "expected parallel plan: %s" reason

let reject ?interleave ?policy ?l2 name =
  let cfg = cfg_of ?interleave ?policy ?l2 () in
  match plan_of cfg (replicas cfg name) with
  | Par.Sequential reason ->
    Alcotest.(check bool) "has a reason" true (reason <> "")
  | Par.Parallel _ -> Alcotest.fail "expected a sequential fallback"

let contains ~sub s =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

(* --- the byte oracle --- *)

let attributed_doc cfg app preps domains =
  let attr = Runner.attr_for cfg (List.hd preps) in
  let r = Runner.run_many ~attr ~domains cfg ~jobs:preps in
  Json.to_string (Sweep.Exec.result_json ~attr ~app cfg r)

let plain_doc cfg app preps domains =
  let r = Runner.run_many ~domains cfg ~jobs:preps in
  Json.to_string (Sweep.Exec.result_json ~app cfg r)

let test_plan_joins_interacting_clusters () =
  (* on chiplet2x2-mc8 the M1x8 clusters are 4x2 tiles, two per 4x4
     chiplet: only the pair whose routes share on-die links (2 and 3)
     becomes one partition, and no chiplet special case merges the rest *)
  let cfg = cfg_of ~platform:"chiplet2x2-mc8" () in
  let preps = replicas cfg "minimd" in
  (match plan_of cfg preps with
  | Par.Parallel parts ->
    Alcotest.(check int) "seven partitions" 7 (Array.length parts);
    Alcotest.(check (list (list int)))
      "clusters 2 and 3 joined"
      [ [ 0 ]; [ 1 ]; [ 2; 3 ]; [ 4 ]; [ 5 ]; [ 6 ]; [ 7 ] ]
      (Array.to_list (Array.map (fun p -> p.Par.part_clusters) parts))
  | Par.Sequential reason -> Alcotest.failf "expected parallel plan: %s" reason);
  Alcotest.(check string) "chiplet domains 4 == domains 1"
    (plain_doc cfg "minimd" preps 1)
    (plain_doc cfg "minimd" preps 4)

let test_plan_rejects_line () = reject ~interleave:"line" "minimd"
let test_plan_rejects_shared_l2 () = reject ~l2:"shared" "minimd"
let test_plan_rejects_hardware () = reject ~policy:"hardware" "minimd"

let test_plan_rejects_sub_page_offset () =
  (* a trace moved by part of a page no longer has whole pages to
     replay: the planner falls back instead of guessing *)
  let cfg = cfg_of () in
  match replicas cfg "minimd" with
  | first :: rest ->
    let job = first.Runner.job in
    let moved =
      {
        first with
        Runner.job =
          {
            job with
            Sim.Engine.vaddr_offset = job.Sim.Engine.vaddr_offset + 64;
          };
      }
    in
    (match plan_of cfg (moved :: rest) with
    | Par.Sequential reason ->
      Alcotest.(check bool) ("names the offset: " ^ reason) true
        (contains ~sub:"not page-aligned" reason)
    | Par.Parallel _ -> Alcotest.fail "a sub-page offset must fall back")
  | [] -> Alcotest.fail "expected replicas"

let test_plan_rejects_whole_machine () =
  (* one job bound across every cluster cannot be partitioned *)
  let cfg = cfg_of () in
  match plan_of cfg [ whole_machine cfg "minimd" ] with
  | Par.Sequential reason ->
    Alcotest.(check bool)
      ("reason names a join: " ^ reason)
      true
      (contains ~sub:" joins clusters " reason)
  | Par.Parallel _ -> Alcotest.fail "whole-machine job must fall back"

(* The plan replays each distinct trace's first-touch pages shifted by a
   job's offset.  Replicas sharing one trace must plan exactly like
   replicas each traced at its own slice (the way they were once
   prepared): same partitions, and the same reason when the plan
   rejects.  Traced once, the replicas cost one interpretation. *)
let test_shared_and_copied_plan_alike () =
  let slice = 1 lsl 28 in
  List.iter
    (fun (what, cfg, name, optimized, rejects) ->
      let app = Workloads.Suite.by_name name in
      let program = Workloads.App.program app in
      let analysis = Lang.Analysis.analyze program in
      let profile =
        if optimized then Some (Workloads.Profile.for_transform app analysis)
        else None
      in
      let warmup_phases = app.Workloads.App.warmup_nests
      and index_lookup = Workloads.App.index_lookup app in
      let before = Runner.traces_generated () in
      let shared =
        Runner.prepare_replicas cfg ~optimized ~warmup_phases ~index_lookup
          ?profile program
      in
      Alcotest.(check int) (what ^ ": replicas traced once") 1
        (Runner.traces_generated () - before);
      let copied =
        List.mapi
          (fun c (p : Runner.prepared) ->
            let job = p.Runner.job in
            let fresh =
              Runner.prepare cfg ~optimized
                ~threads:(Array.length job.Sim.Engine.node_of_thread)
                ~vaddr_base:(c * slice) ~name:job.Sim.Engine.name
                ~warmup_phases ~index_lookup ?profile program
            in
            {
              fresh with
              Runner.job =
                {
                  fresh.Runner.job with
                  Sim.Engine.node_of_thread = job.Sim.Engine.node_of_thread;
                };
            })
          shared
      in
      Alcotest.(check bool) (what ^ ": one shared trace") true
        (List.for_all
           (fun (p : Runner.prepared) ->
             p.Runner.job.Sim.Engine.phases
             == (List.hd shared).Runner.job.Sim.Engine.phases)
           shared);
      let show = function
        | Par.Sequential reason -> "sequential: " ^ reason
        | Par.Parallel parts ->
          String.concat ","
            (Array.to_list
               (Array.map
                  (fun p ->
                    String.concat "+"
                      (List.map string_of_int p.Par.part_clusters))
                  parts))
      in
      let expected = plan_of cfg copied and got = plan_of cfg shared in
      Alcotest.(check string) (what ^ ": same plan") (show expected) (show got);
      Alcotest.(check bool) (what ^ ": same partitions") true (expected = got);
      match (got, rejects) with
      | Par.Parallel _, false -> ()
      | Par.Sequential reason, true ->
        Alcotest.(check bool) (what ^ ": a page rejects: " ^ reason) true
          (contains ~sub:"virtual page" reason)
      | _ -> Alcotest.failf "%s: unexpected plan %s" what (show got))
    [
      ("mesh4x4-mc4 minimd", cfg_of (), "minimd", false, false);
      ( "mesh8x8-mc8 apsi",
        cfg_of ~platform:"mesh8x8-mc8" (),
        "apsi",
        false,
        false );
      (* compiler hints home pages across clusters *)
      ( "mc-aware gafort (opt)",
        cfg_of ~policy:"mc-aware" (),
        "gafort",
        true,
        true );
      ( "hardware placement",
        cfg_of ~policy:"hardware" (),
        "minimd",
        false,
        true );
    ]

let test_identity_plain () =
  (* mesh8x8-mc8: clusters 2 and 3 share route links, so the plan joins
     that pair instead of giving up on the whole machine.
     --optimal: a miss another L2 can serve goes through its page's
     controller, and the forward and invalidations start there too. *)
  List.iter
    (fun (what, cfg, app) ->
      let preps = replicas cfg app in
      (match plan_of cfg preps with
      | Par.Parallel _ -> ()
      | Par.Sequential reason ->
        Alcotest.failf "%s: expected parallel plan: %s" what reason);
      let d1 = plain_doc cfg app preps 1 in
      Alcotest.(check string) (what ^ " domains 2 == domains 1") d1
        (plain_doc cfg app preps 2);
      Alcotest.(check string) (what ^ " domains 4 == domains 1") d1
        (plain_doc cfg app preps 4))
    [
      ("mesh4x4-mc4", cfg_of (), "minimd");
      ("mesh8x8-mc8", cfg_of ~platform:"mesh8x8-mc8" (), "hpccg");
      ("optimal", cfg_of ~optimal:true (), "minimd");
    ]

let test_identity_attributed () =
  (* the attributed document embeds the full attribution cube and its
     totals, so string equality covers the Σ-per-site invariant too *)
  let cfg = cfg_of () in
  let preps = replicas ~attr:true cfg "gafort" in
  let d1 = attributed_doc cfg "gafort" preps 1 in
  Alcotest.(check string) "attributed domains 4 == domains 1" d1
    (attributed_doc cfg "gafort" preps 4)

let test_identity_fallback_dispatch () =
  (* a non-decomposable workload asked for 4 domains must fall back to
     the sequential engine — same bytes, reason on the plan line *)
  let cfg = cfg_of () in
  let preps = [ whole_machine cfg "gafort" ] in
  let reason = ref "" in
  let r1 = Runner.run_many ~domains:1 cfg ~jobs:preps in
  let r4 =
    Runner.run_many ~domains:4 ~on_plan:(fun s -> reason := s) cfg ~jobs:preps
  in
  Alcotest.(check bool)
    "plan line reports the fallback" true
    (starts_with "sequential engine" !reason);
  Alcotest.(check bool)
    ("fallback names a join: " ^ !reason)
    true
    (contains ~sub:" joins clusters " !reason);
  Alcotest.(check string) "fallback is byte-identical"
    (Json.to_string (Sweep.Exec.result_json ~app:"gafort" cfg r1))
    (Json.to_string (Sweep.Exec.result_json ~app:"gafort" cfg r4))

let test_identity_serve () =
  (* cluster-confined consolidation scenario: first-touch placement,
     4-thread tenants — the serving workload the planner accepts *)
  let sc =
    {
      (Serve.Scenario.smoke ()) with
      Serve.Scenario.name = "par-smoke-test";
      policy = Serve.Scenario.First_touch;
      threads_per_tenant = 4;
      tenants = 4;
      arrival_mean = 5000;
      optimized = false;
    }
  in
  let doc domains plan =
    match Serve.Server.run ~domains ?on_plan:plan sc with
    | Ok run -> Json.to_string (Serve.Server.result_json run)
    | Error e -> Alcotest.failf "serve: %s" e
  in
  let plan = ref "" in
  let d1 = doc 1 None in
  let d2 = doc 2 (Some (fun s -> plan := s)) in
  Alcotest.(check bool) "serve co-run planned parallel" true
    (starts_with "parallel:" !plan);
  Alcotest.(check string) "serve domains 2 == domains 1" d1 d2

(* --- randomized identity property --- *)

let arb_draw =
  let gen =
    let open QCheck.Gen in
    let* app = oneofl [ "minimd"; "gafort"; "hpccg" ] in
    let* seed = int_range 0 3 in
    let* platform = oneofl [ "mesh4x4-mc4"; "mesh8x8-mc4"; "mesh8x8-mc8" ] in
    return (app, seed, platform)
  in
  QCheck.make
    ~print:(fun (a, s, p) -> Printf.sprintf "%s seed=%d %s" a s p)
    gen

let prop_identity =
  QCheck.Test.make
    ~name:"attributed stats JSON identical across domains 1/2/4" ~count:4
    arb_draw
    (fun (app, seed, platform) ->
      let cfg = cfg_of ~seed ~platform () in
      let preps = replicas ~attr:true cfg app in
      let d1 = attributed_doc cfg app preps 1 in
      d1 = attributed_doc cfg app preps 2
      && d1 = attributed_doc cfg app preps 4)

let suite =
  [
    ( "par_engine",
      [
        Alcotest.test_case "plan accepts confined replicas" `Quick
          test_plan_accepts_replicas;
        Alcotest.test_case "plan joins only interacting clusters" `Quick
          test_plan_joins_interacting_clusters;
        Alcotest.test_case "plan rejects line interleaving" `Quick
          test_plan_rejects_line;
        Alcotest.test_case "plan rejects shared L2" `Quick
          test_plan_rejects_shared_l2;
        Alcotest.test_case "plan rejects hardware placement" `Quick
          test_plan_rejects_hardware;
        Alcotest.test_case "shared and copied traces plan alike" `Quick
          test_shared_and_copied_plan_alike;
        Alcotest.test_case "plan rejects a sub-page offset" `Quick
          test_plan_rejects_sub_page_offset;
        Alcotest.test_case "plan rejects a whole-machine job" `Quick
          test_plan_rejects_whole_machine;
        Alcotest.test_case "replica stats identical across domains" `Quick
          test_identity_plain;
        Alcotest.test_case "attributed stats identical across domains" `Quick
          test_identity_attributed;
        Alcotest.test_case "fallback dispatch is byte-identical" `Quick
          test_identity_fallback_dispatch;
        Alcotest.test_case "serve scenario identical across domains" `Quick
          test_identity_serve;
      ]
      @ List.map QCheck_alcotest.to_alcotest [ prop_identity ] );
  ]
