(* Tests for the sweep subsystem: the fork/pipe process pool (timeouts,
   crash retry, payload transport), the content-addressed result cache,
   and the headline property — a pooled sweep merges to exactly the same
   registry as the sequential reference run. *)

module Json = Obs.Json

let fresh_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "offchip-sweep-test.%d.%d" (Unix.getpid ()) !counter)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let with_dir f =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let spec_of_string s =
  match Result.bind (Json.of_string s) Sweep.Spec.of_json with
  | Ok spec -> spec
  | Error e -> Alcotest.failf "spec did not parse: %s" e

let tiny_spec ?(name = "tiny") ?(apps = [ "apsi" ]) ?(optimized = [ false ])
    ?(seed = 0) () =
  spec_of_string
    (Printf.sprintf
       {|{"name":"%s","apps":[%s],"optimized":[%s],
          "configs":[{"name":"base","platform":"mesh4x4-mc4","seed":%d}]}|}
       name
       (String.concat "," (List.map (Printf.sprintf "%S") apps))
       (String.concat "," (List.map string_of_bool optimized))
       seed)

(* A config with "search": true runs the placement search at spec-load
   time and substitutes the searched machine: the job's platform carries
   a digest-bearing placement name (distinct cache identity), and two
   loads of the same spec agree byte-for-byte. *)
let test_spec_search_knob () =
  let load () =
    spec_of_string
      {|{"name":"searched","apps":["apsi"],"optimized":[false],
         "configs":[{"name":"s","platform":"mesh8x8-mc8","search":true}]}|}
  in
  let spec = load () in
  Alcotest.(check int) "one job" 1 (Array.length spec.Sweep.Spec.jobs);
  let job = spec.Sweep.Spec.jobs.(0) in
  let placement =
    (Sim.Config.placement job.Sweep.Spec.config).Noc.Placement.name
  in
  Alcotest.(check bool)
    (Printf.sprintf "digest-bearing placement name (%s)" placement)
    true
    (String.length placement > String.length "searched-"
    && String.sub placement 0 9 = "searched-");
  let identity j = Json.to_string (Sweep.Spec.job_identity j) in
  Alcotest.(check string) "deterministic across loads" (identity job)
    (identity (load ()).Sweep.Spec.jobs.(0));
  (* the searched machine's identity differs from the preset's *)
  let preset =
    spec_of_string
      {|{"name":"preset","apps":["apsi"],"optimized":[false],
         "configs":[{"name":"s","platform":"mesh8x8-mc8"}]}|}
  in
  Alcotest.(check bool) "distinct cache identity from the preset" false
    (String.equal (identity job) (identity preset.Sweep.Spec.jobs.(0)))

(* Malformed specs are one-line errors, never silently accepted: a
   leftover or misspelt key fails the load instead of being ignored. *)
let test_spec_malformed () =
  let expect_error ?message input =
    match Result.bind (Json.of_string input) Sweep.Spec.of_json with
    | Ok _ -> Alcotest.failf "accepted malformed spec %s" input
    | Error e ->
      Alcotest.(check bool) ("one line: " ^ e) false (String.contains e '\n');
      Option.iter (fun m -> Alcotest.(check string) input m e) message
  in
  expect_error "[1]";
  expect_error {|{"name":"x"}|};
  expect_error {|{"apps":[]}|};
  expect_error {|{"apps":["nope"]}|};
  expect_error {|{"apps":["apsi"],"retries":-1}|};
  List.iter
    (fun k ->
      expect_error ~message:(Printf.sprintf "unknown config field %S" k)
        (Printf.sprintf {|{"apps":["apsi"],"configs":[{%S:1}]}|} k))
    [ "bogus"; "width"; "height" ];
  expect_error ~message:{|unknown sweep field "domains"|}
    {|{"apps":["apsi"],"domains":2}|};
  expect_error ~message:{|unknown search field "restart"|}
    {|{"apps":["apsi"],"configs":[{"search":{"restart":3}}]}|};
  (* the cost model's inputs: negative restarts, a negative or infinite
     pressure *)
  expect_error ~message:{|field "search": "restarts" must be >= 0|}
    {|{"apps":["apsi"],"configs":[{"search":{"restarts":-3,"pressure":1.0}}]}|};
  expect_error
    ~message:{|field "search": "pressure": bank pressure -5 is not a finite number >= 0|}
    {|{"apps":["apsi"],"configs":[{"search":{"restarts":3,"pressure":-5.0}}]}|};
  expect_error
    ~message:{|field "search": "pressure": bank pressure inf is not a finite number >= 0|}
    {|{"apps":["apsi"],"configs":[{"search":{"pressure":1e999}}]}|}

(* The cache identity covers every Config field, including the ones the
   result document's config summary leaves out: two jobs that differ only
   in NoC link width, or only in controller sites, must never share a
   cached result. *)
let test_identity_covers_config () =
  let job = (tiny_spec ()).Sweep.Spec.jobs.(0) in
  let cfg = job.Sweep.Spec.config in
  let noc = { cfg.Sim.Config.noc with Noc.Network.link_bytes = 32 } in
  let wide = { job with Sweep.Spec.config = { cfg with Sim.Config.noc } } in
  Alcotest.(check bool) "link widths: distinct keys" false
    (Sweep.Cache.key job = Sweep.Cache.key wide);
  with_dir (fun dir ->
      Sweep.Cache.ensure ~dir;
      let path = Filename.concat dir "platform.json" in
      (* unnamed placements: both are named "custom" *)
      let key sites =
        Out_channel.with_open_bin path (fun oc ->
            Printf.fprintf oc
              {|{"mesh_width":8,"mesh_height":8,"placement":{"sites":%s}}|} sites);
        let spec =
          spec_of_string
            (Printf.sprintf {|{"apps":["apsi"],"configs":[{"platform":%S}]}|} path)
        in
        Sweep.Cache.key spec.Sweep.Spec.jobs.(0)
      in
      Alcotest.(check bool) "controller sites: distinct keys" false
        (key "[[0,0],[7,0],[0,7],[7,7]]" = key "[[3,0],[7,3],[0,4],[4,7]]"))

let test_example_specs_load () =
  let dir = "../examples/sweeps" in
  let specs =
    List.filter
      (fun f -> Filename.check_suffix f ".json")
      (Array.to_list (Sys.readdir dir))
  in
  Alcotest.(check bool) "examples found" true (specs <> []);
  List.iter
    (fun f ->
      match Sweep.Spec.load (Filename.concat dir f) with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%s" e)
    specs

(* ---- pool ---- *)

let test_pool_payloads () =
  let outcomes =
    Sweep.Pool.run ~workers:2 ~timeout_s:30. ~retries:0 ~jobs:5 (fun i ->
        Ok (Printf.sprintf "job-%d:%d" i (i * i)))
  in
  Array.iteri
    (fun i o ->
      match o with
      | Sweep.Pool.Completed { attempts; payload } ->
        Alcotest.(check int) "one attempt" 1 attempts;
        Alcotest.(check string)
          "payload" (Printf.sprintf "job-%d:%d" i (i * i)) payload
      | Sweep.Pool.Failed { reason; _ } -> Alcotest.failf "job %d: %s" i reason)
    outcomes

let test_pool_timeout () =
  let outcomes =
    Sweep.Pool.run ~workers:1 ~timeout_s:0.25 ~retries:0 ~backoff_s:0.01 ~jobs:1
      (fun _ ->
        Unix.sleepf 30.;
        Ok "never")
  in
  match outcomes.(0) with
  | Sweep.Pool.Failed { attempts; reason } ->
    Alcotest.(check int) "one attempt" 1 attempts;
    Alcotest.(check bool)
      (Printf.sprintf "reason mentions timeout: %S" reason)
      true
      (Astring.String.is_infix ~affix:"timeout" reason)
  | Sweep.Pool.Completed _ -> Alcotest.fail "sleeping job completed"

let test_pool_crash_retry_exhaustion () =
  let outcomes =
    Sweep.Pool.run ~workers:1 ~timeout_s:30. ~retries:2 ~backoff_s:0.01 ~jobs:1
      (fun _ -> Stdlib.exit 7)
  in
  match outcomes.(0) with
  | Sweep.Pool.Failed { attempts; reason } ->
    Alcotest.(check int) "initial try + 2 retries" 3 attempts;
    Alcotest.(check string)
      "crash reason" "worker exited unexpectedly" reason
  | Sweep.Pool.Completed _ -> Alcotest.fail "crashing job completed"

let test_pool_error_payload () =
  (* An [Error _] from [f] is a failed attempt with the given reason, in
     both the forked and the in-process mode. *)
  List.iter
    (fun workers ->
      let outcomes =
        Sweep.Pool.run ~workers ~timeout_s:30. ~retries:1 ~backoff_s:0.01 ~jobs:1
          (fun _ -> Error "nope")
      in
      match outcomes.(0) with
      | Sweep.Pool.Failed { attempts; reason } ->
        Alcotest.(check int) "attempts" 2 attempts;
        Alcotest.(check string) "reason" "nope" reason
      | Sweep.Pool.Completed _ -> Alcotest.fail "erroring job completed")
    [ 1; 0 ]

(* ---- protocol ---- *)

let test_protocol_roundtrip () =
  let r, w = Unix.pipe () in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close r with Unix.Unix_error _ -> ());
      try Unix.close w with Unix.Unix_error _ -> ())
    (fun () ->
      let payload = "line1\nline2\x00\xffREP 9 1 3\n" in
      Sweep.Protocol.write_reply w
        { Sweep.Protocol.job = 42; ok = false; payload };
      let rd = Sweep.Protocol.reader r in
      (match Sweep.Protocol.feed rd with
      | `Data -> ()
      | `Eof -> Alcotest.fail "eof before reply");
      match Sweep.Protocol.next_reply rd with
      | Some (Ok rep) ->
        Alcotest.(check int) "job" 42 rep.Sweep.Protocol.job;
        Alcotest.(check bool) "ok" false rep.Sweep.Protocol.ok;
        Alcotest.(check string) "payload" payload rep.Sweep.Protocol.payload
      | Some (Error e) -> Alcotest.failf "corrupt frame: %s" e
      | None -> Alcotest.fail "incomplete reply")

(* ---- metrics JSON round-trip (what merge_results relies on) ---- *)

let test_metrics_snapshot_roundtrip () =
  let reg = Obs.Metrics.create () in
  let c = Obs.Metrics.counter reg "requests" in
  Obs.Metrics.add c 17;
  Obs.Metrics.set (Obs.Metrics.gauge reg "queue.max") 5.5;
  let hist reg name =
    match Obs.Metrics.histogram reg name with
    | Ok h -> h
    | Error e -> failwith e
  in
  let h = hist reg "latency" in
  List.iter (Obs.Metrics.observe h) [ 0; 1; 3; 100; 4096 ];
  let hl = hist reg "occupancy" in
  List.iter (Obs.Metrics.observe hl) [ 0; 7; 31; 500 ];
  let snap = Obs.Metrics.snapshot reg in
  let json = Obs.Metrics.to_json snap in
  match Obs.Metrics.snapshot_of_json json with
  | Error e -> Alcotest.failf "decode failed: %s" e
  | Ok snap' ->
    Alcotest.(check string)
      "snapshot JSON round-trips"
      (Json.to_string ~minify:true json)
      (Json.to_string ~minify:true (Obs.Metrics.to_json snap'))

(* ---- orchestration: cache, resume, degradation ---- *)

let run_sweep ?workers ?timeout_s ?retries ?backoff_s ?force ?inject_fail ~out
    spec =
  flush stdout;
  flush stderr;
  Sweep.Orchestrate.run_sweep ?workers ?timeout_s ?retries ?backoff_s ?force
    ?inject_fail ~out spec

let test_cache_hit_skips () =
  with_dir (fun out ->
      let spec = tiny_spec () in
      let first = run_sweep ~workers:0 ~out spec in
      Alcotest.(check int) "first run executes" 1 first.Sweep.Orchestrate.ran;
      let ok, cached, failed, pending =
        Sweep.Manifest.summary first.Sweep.Orchestrate.manifest
      in
      Alcotest.(check (list int)) "first summary" [ 1; 0; 0; 0 ]
        [ ok; cached; failed; pending ];
      let second = run_sweep ~workers:0 ~out spec in
      Alcotest.(check int) "second run executes nothing" 0
        second.Sweep.Orchestrate.ran;
      let ok, cached, failed, pending =
        Sweep.Manifest.summary second.Sweep.Orchestrate.manifest
      in
      Alcotest.(check (list int)) "second summary" [ 0; 1; 0; 0 ]
        [ ok; cached; failed; pending ];
      match (first.Sweep.Orchestrate.merged, second.Sweep.Orchestrate.merged) with
      | Some a, Some b ->
        Alcotest.(check string)
          "cached merge identical"
          (Json.to_string ~minify:true a)
          (Json.to_string ~minify:true b)
      | _ -> Alcotest.fail "a run produced no merged document")

let test_injected_failure_degrades () =
  with_dir (fun out ->
      let spec = tiny_spec ~apps:[ "apsi"; "swim" ] () in
      let r =
        run_sweep ~workers:2 ~retries:1 ~backoff_s:0.01
          ~inject_fail:"swim" ~out spec
      in
      let ok, cached, failed, pending =
        Sweep.Manifest.summary r.Sweep.Orchestrate.manifest
      in
      Alcotest.(check (list int)) "one survivor, one failure" [ 1; 0; 1; 0 ]
        [ ok; cached; failed; pending ];
      (match r.Sweep.Orchestrate.merged with
      | Some doc ->
        Alcotest.(check bool) "merged over the survivor" true
          (Json.member "completed" doc = Some (Json.Int 1))
      | None -> Alcotest.fail "no merged document");
      (* Resume: the failed job (and only it) runs again. *)
      let r2 = run_sweep ~workers:2 ~retries:0 ~out spec in
      Alcotest.(check int) "resume runs only the failed job" 1
        r2.Sweep.Orchestrate.ran;
      let ok, cached, failed, pending =
        Sweep.Manifest.summary r2.Sweep.Orchestrate.manifest
      in
      Alcotest.(check (list int)) "resume completes the sweep" [ 1; 1; 0; 0 ]
        [ ok; cached; failed; pending ])

(* ---- the determinism property ---- *)

let merged_string (r : Sweep.Orchestrate.report) =
  match r.Sweep.Orchestrate.merged with
  | Some doc -> Json.to_string ~minify:true doc
  | None -> Alcotest.fail "sweep produced no merged document"

let gen_prop_spec =
  QCheck.Gen.(
    let* apps = oneofl [ [ "apsi" ]; [ "swim" ]; [ "apsi"; "swim" ] ] in
    let* optimized = oneofl [ [ false ]; [ true ] ] in
    let* seed = int_range 0 3 in
    return (apps, optimized, seed))

let arb_prop_spec =
  QCheck.make
    ~print:(fun (apps, optimized, seed) ->
      Printf.sprintf "apps=[%s] optimized=[%s] seed=%d"
        (String.concat ";" apps)
        (String.concat ";" (List.map string_of_bool optimized))
        seed)
    gen_prop_spec

let prop_pool_matches_sequential =
  QCheck.Test.make ~name:"pooled sweep merges identically to sequential run"
    ~count:2 arb_prop_spec (fun (apps, optimized, seed) ->
      let spec = tiny_spec ~name:"prop" ~apps ~optimized ~seed () in
      let pooled =
        with_dir (fun out -> merged_string (run_sweep ~workers:2 ~out spec))
      in
      let sequential =
        with_dir (fun out -> merged_string (run_sweep ~workers:0 ~out spec))
      in
      pooled = sequential)

let suite =
  [
    ( "sweep",
      [
        Alcotest.test_case "spec search knob substitutes searched machine"
          `Quick test_spec_search_knob;
        Alcotest.test_case "malformed specs are one-line errors" `Quick
          test_spec_malformed;
        Alcotest.test_case "cache key covers every config field" `Quick
          test_identity_covers_config;
        Alcotest.test_case "example specs load" `Quick test_example_specs_load;
        Alcotest.test_case "pool transports payloads" `Quick
          test_pool_payloads;
        Alcotest.test_case "pool kills a job on timeout" `Quick
          test_pool_timeout;
        Alcotest.test_case "pool exhausts retries on worker crash" `Quick
          test_pool_crash_retry_exhaustion;
        Alcotest.test_case "pool reports Error payloads as failures" `Quick
          test_pool_error_payload;
        Alcotest.test_case "protocol reply round-trips binary payloads" `Quick
          test_protocol_roundtrip;
        Alcotest.test_case "metrics snapshot JSON round-trips" `Quick
          test_metrics_snapshot_roundtrip;
        Alcotest.test_case "cache hit skips execution" `Quick
          test_cache_hit_skips;
        Alcotest.test_case "injected failure degrades and resumes" `Quick
          test_injected_failure_degrades;
        QCheck_alcotest.to_alcotest prop_pool_matches_sequential;
      ] );
  ]
