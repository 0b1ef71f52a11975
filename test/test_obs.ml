(* Tests for the observability layer: JSON encoder/parser round-trips,
   metrics registry (bucketing properties, snapshots, merge), the trace
   ring buffer and its Chrome trace_event export (golden file), the phase
   timer, and Sim.Stats aggregation on top of it all. *)

module J = Obs.Json
module M = Obs.Metrics
module T = Obs.Trace
module Stats = Sim.Stats

(* --- JSON: units --- *)

let test_json_basics () =
  let v =
    J.Obj
      [
        ("a", J.Int 3);
        ("b", J.List [ J.Null; J.Bool true; J.Float 2.5 ]);
        ("c", J.String "x\"y\n");
      ]
  in
  let s = J.to_string v in
  (match J.of_string s with
  | Ok v' -> Alcotest.(check bool) "round-trip" true (J.equal v v')
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "member a" true (J.member "a" v = Some (J.Int 3));
  Alcotest.(check bool) "member missing" true (J.member "z" v = None);
  Alcotest.(check bool) "member on list" true (J.member "a" (J.List []) = None)

let test_json_parse () =
  (match J.of_string {| [1, -2.5e2, "ABC", true, null, {}] |} with
  | Ok (J.List [ J.Int 1; J.Float f; J.String s; J.Bool true; J.Null; J.Obj [] ])
    ->
    Alcotest.(check (float 1e-9)) "float" (-250.) f;
    Alcotest.(check string) "unicode escape" "ABC" s
  | Ok _ -> Alcotest.fail "unexpected shape"
  | Error e -> Alcotest.fail e);
  (match J.of_string "{" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted malformed input");
  match J.of_string "[1] trailing" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted trailing garbage"

let test_json_nonfinite () =
  Alcotest.(check string) "nan encodes as null" "null"
    (J.to_string ~minify:true (J.Float nan));
  Alcotest.(check string) "inf encodes as null" "null"
    (J.to_string ~minify:true (J.Float infinity))

(* --- JSON: qcheck round-trip --- *)

let json_gen =
  let open QCheck.Gen in
  let finite_float =
    map (fun f -> if Float.is_finite f then f else 0.5) float
  in
  let scalar =
    oneof
      [
        return J.Null;
        map (fun b -> J.Bool b) bool;
        map (fun i -> J.Int i) int;
        map (fun f -> J.Float f) finite_float;
        map (fun s -> J.String s) (string_size (int_range 0 8));
      ]
  in
  let rec value depth =
    if depth = 0 then scalar
    else
      frequency
        [
          (3, scalar);
          ( 1,
            map (fun l -> J.List l) (list_size (int_range 0 4) (value (depth - 1)))
          );
          ( 1,
            map
              (fun l -> J.Obj l)
              (list_size (int_range 0 4)
                 (pair (string_size (int_range 0 5)) (value (depth - 1)))) );
        ]
  in
  value 3

let prop_json_roundtrip =
  QCheck.Test.make ~name:"json to_string |> of_string round-trips" ~count:500
    (QCheck.make json_gen) (fun v ->
      match J.of_string (J.to_string v) with
      | Ok v' -> J.equal v v'
      | Error _ -> false)

let prop_json_roundtrip_minified =
  QCheck.Test.make ~name:"minified json round-trips" ~count:500
    (QCheck.make json_gen) (fun v ->
      match J.of_string (J.to_string ~minify:true v) with
      | Ok v' -> J.equal v v'
      | Error _ -> false)

(* --- metrics: histogram bucketing --- *)

(* bucket 0 = {0}; bucket i>=1 = [2^(i-1), 2^i); the last bucket is
   open-ended *)
let bucket_bounds i =
  if i = 0 then (0, 1)
  else if i >= M.max_log2_buckets - 1 then (1 lsl (M.max_log2_buckets - 2), max_int)
  else (1 lsl (i - 1), 1 lsl i)

let in_bucket v =
  let i = M.bucket_index v in
  let lo, hi = bucket_bounds i in
  lo <= v && (v < hi || hi = max_int)

let prop_log2_buckets =
  QCheck.Test.make ~name:"log2 bucket bounds contain their values" ~count:1000
    QCheck.(make Gen.(oneof [ int_range 0 1_000_000; int_bound max_int ]))
    in_bucket

let test_log2_boundaries () =
  let idx = M.bucket_index in
  Alcotest.(check int) "v=0" 0 (idx 0);
  Alcotest.(check int) "v=1" 1 (idx 1);
  Alcotest.(check int) "v=2" 2 (idx 2);
  Alcotest.(check int) "v=3" 2 (idx 3);
  Alcotest.(check int) "v=4" 3 (idx 4);
  Alcotest.(check int) "powers land in a fresh bucket" 11 (idx 1024);
  Alcotest.(check int) "one below stays" 10 (idx 1023);
  Alcotest.(check int) "max_int clamps to the last bucket"
    (M.max_log2_buckets - 1) (idx max_int);
  (* successive bucket bounds tile the nonnegative ints *)
  for i = 0 to M.max_log2_buckets - 2 do
    let _, hi = bucket_bounds i in
    let lo, _ = bucket_bounds (i + 1) in
    Alcotest.(check int) (Printf.sprintf "contiguous at bucket %d" i) hi lo
  done

(* --- metrics: registry --- *)

(* tests know their registrations are fresh, so force the Result *)
let hist reg name =
  match M.histogram reg name with
  | Ok h -> h
  | Error e -> failwith e

let test_registry_basics () =
  let reg = M.create () in
  let c = M.counter reg "c" in
  M.incr c;
  M.add c 4;
  Alcotest.(check int) "counter" 5 (M.value c);
  (* registration is idempotent: same name, same cell *)
  let c' = M.counter reg "c" in
  M.incr c';
  Alcotest.(check int) "same cell" 6 (M.value c);
  let g = M.gauge reg "g" in
  M.set g 2.0;
  M.set_max g 1.0;
  Alcotest.(check (float 1e-9)) "set_max keeps max" 2.0 (M.gauge_value g);
  let h = hist reg "h" in
  M.observe h 0;
  M.observe h 5;
  M.observe h (-3);
  let hist_snapshot () = List.assoc "h" (M.snapshot reg).M.histograms in
  Alcotest.(check int) "hist count" 3 (hist_snapshot ()).M.total;
  Alcotest.(check int) "negatives clamp to 0" 5 (hist_snapshot ()).M.sum;
  Alcotest.check_raises "kind mismatch"
    (Invalid_argument "Metrics.gauge: c is not a gauge") (fun () ->
      ignore (M.gauge reg "c"));
  (* histogram conflicts surface as values, not exceptions *)
  (match M.histogram reg "c" with
  | Ok _ -> Alcotest.fail "counter re-registered as histogram"
  | Error _ -> ());
  (* same name: idempotent, same cells *)
  M.observe (hist reg "h") 1;
  Alcotest.(check int) "histogram registration idempotent" 4 (hist_snapshot ()).M.total

let test_snapshot_merge () =
  let mk records =
    let reg = M.create () in
    records reg;
    M.snapshot reg
  in
  let a =
    mk (fun reg ->
        M.add (M.counter reg "x") 2;
        M.set (M.gauge reg "g") 5.;
        M.observe (hist reg "h") 7)
  in
  let b =
    mk (fun reg ->
        M.add (M.counter reg "x") 3;
        M.add (M.counter reg "only_b") 1;
        M.set (M.gauge reg "g") 9.;
        M.observe (hist reg "h") 9)
  in
  let m = M.merge a b in
  Alcotest.(check int) "counters add" 5 (List.assoc "x" m.M.counters);
  Alcotest.(check int) "one-sided passes through" 1
    (List.assoc "only_b" m.M.counters);
  Alcotest.(check (float 1e-9)) "gauges keep max" 9.
    (List.assoc "g" m.M.gauges);
  let h = List.assoc "h" m.M.histograms in
  Alcotest.(check int) "histogram total" 2 h.M.total;
  Alcotest.(check int) "histogram sum" 16 h.M.sum;
  Alcotest.(check int) "histogram bucket"
    2
    (h.M.counts.(M.bucket_index 7) + h.M.counts.(M.bucket_index 9))

let test_metrics_kind_only_log2 () =
  (* histograms are log2 only: any other kind is a one-line error, even
     one asking for more buckets than memory holds *)
  let doc kind =
    Printf.sprintf
      {|{"histograms": {"mem.latency": {"kind": %s, "counts": [1], "sum": 1, "total": 1}}}|}
      kind
  in
  let decode kind =
    match J.of_string (doc kind) with
    | Ok j ->
      (* report reads the same snapshot out of a stats document *)
      let report = Obs.Report.build (J.Obj [ ("stats", J.Obj [ ("metrics", j) ]) ]) in
      let snap = M.snapshot_of_json j in
      Alcotest.(check bool) "report agrees" (Result.is_ok snap) (Result.is_ok report);
      snap
    | Error e -> Alcotest.fail e
  in
  (match decode {|"log2"|} with
  | Ok s -> Alcotest.(check int) "log2 decodes" 1 (List.length s.M.histograms)
  | Error e -> Alcotest.fail e);
  List.iter
    (fun kind ->
      match decode kind with
      | Ok _ -> Alcotest.failf "kind %s accepted" kind
      | Error e ->
        Alcotest.(check bool) ("one line: " ^ e) false (String.contains e '\n'))
    [
      {|{"linear_width":1,"buckets":4611686018427387903}|};
      {|{"linear_width":4,"buckets":8}|};
      {|"linear"|};
    ]

let test_report_rejects_bad_attribution () =
  (* an attribution the report cannot decode fails the whole document,
     as undecodable metrics do *)
  match J.of_string {|{"stats": {}, "attribution": {"bogus": 1}}|} with
  | Error e -> Alcotest.fail e
  | Ok doc -> (
    match Obs.Report.build doc with
    | Ok _ -> Alcotest.fail "undecodable attribution accepted"
    | Error e ->
      Alcotest.(check bool) ("names the section: " ^ e) true
        (String.length e > 13 && String.sub e 0 13 = "attribution: ");
      Alcotest.(check bool) "one line" false (String.contains e '\n'))

let test_metrics_json () =
  let reg = M.create () in
  M.add (M.counter reg "sim.accesses") 42;
  M.observe (hist reg "lat") 100;
  let j = M.to_json (M.snapshot reg) in
  (* the export must itself be valid, parseable JSON *)
  match J.of_string (J.to_string j) with
  | Ok v ->
    Alcotest.(check bool) "counters present" true
      (J.member "counters" v <> None)
  | Error e -> Alcotest.fail e

(* --- trace ring buffer --- *)

let test_trace_disabled () =
  let t = T.disabled in
  Alcotest.(check bool) "disabled" false (T.enabled t);
  Alcotest.(check bool) "hit is false" false (T.hit t 0);
  T.span t ~cat:"cache" ~name:"x" ~pid:0 ~tid:0 ~ts:0 ~dur:1 ();
  Alcotest.(check int) "no events" 0 (List.length (T.events t))

let test_trace_ring () =
  let t = T.create ~capacity:4 ~sample:1 () in
  for i = 0 to 5 do
    T.span t ~cat:"cache" ~name:(string_of_int i) ~pid:0 ~tid:0 ~ts:i ~dur:1 ()
  done;
  Alcotest.(check int) "recorded counts everything" 6 (T.recorded t);
  Alcotest.(check int) "dropped = recorded - capacity" 2 (T.dropped t);
  let names =
    List.map
      (function T.Complete { name; _ } -> name | T.Counter _ -> "?")
      (T.events t)
  in
  Alcotest.(check (list string)) "oldest evicted, order kept"
    [ "2"; "3"; "4"; "5" ] names

let test_trace_sampling () =
  let t = T.create ~capacity:16 ~sample:3 () in
  let hits = List.filter (T.hit t) [ 0; 1; 2; 3; 4; 5; 6 ] in
  Alcotest.(check (list int)) "every 3rd request" [ 0; 3; 6 ] hits

let test_trace_json () =
  let t = T.create ~capacity:8 ~sample:1 () in
  T.span t ~cat:"noc" ~name:"link 3" ~pid:1 ~tid:2 ~ts:10 ~dur:0 ();
  T.counter t ~name:"mc0 queue depth" ~pid:0 ~ts:11 ~value:4;
  let j = T.to_json t in
  match J.member "traceEvents" j with
  | Some (J.List [ span; counter ]) ->
    Alcotest.(check bool) "ph X" true (J.member "ph" span = Some (J.String "X"));
    Alcotest.(check bool) "zero durations render 1 cycle" true
      (J.member "dur" span = Some (J.Int 1));
    Alcotest.(check bool) "ph C" true
      (J.member "ph" counter = Some (J.String "C"))
  | _ -> Alcotest.fail "traceEvents shape"

(* --- phase timer --- *)

let test_phase_timer () =
  let t = Obs.Phase_timer.create () in
  let x = Obs.Phase_timer.time t "a" (fun () -> 41 + 1) in
  Alcotest.(check int) "returns the thunk's value" 42 x;
  Obs.Phase_timer.record t "a" 0.25;
  Obs.Phase_timer.record t "b" 0.5;
  (try Obs.Phase_timer.time t "c" (fun () -> failwith "boom") with
  | Failure _ -> ());
  let names = List.map fst (Obs.Phase_timer.phases t) in
  Alcotest.(check (list string)) "first-recorded order, exn phase kept"
    [ "a"; "b"; "c" ] names;
  Alcotest.(check bool) "a accumulated" true
    (List.assoc "a" (Obs.Phase_timer.phases t) >= 0.25);
  Alcotest.(check bool) "total covers phases" true
    (Obs.Phase_timer.total t >= 0.75)

(* --- Sim.Stats on top of the registry --- *)

let test_stats_merge () =
  let a = Stats.create ~nodes:4 ~mcs:2 and b = Stats.create ~nodes:4 ~mcs:2 in
  Stats.record_access a;
  Stats.record_access a;
  Stats.record_access b;
  Stats.record_l1_hit a;
  Stats.record_offchip a ~origin:1 ~mc:0;
  Stats.record_offchip b ~origin:1 ~mc:1;
  Stats.record_leg a ~offchip:true ~hops:3 ~cycles:12;
  Stats.record_leg b ~offchip:true ~hops:(Stats.max_hops + 5) ~cycles:7;
  Stats.record_memory a ~latency:100 ~queue:40 ~row_hit:true;
  Stats.note_finish a 500;
  Stats.note_finish b 900;
  let m = Stats.merge a b in
  Alcotest.(check int) "accesses add" 3 (Stats.total_accesses m);
  Alcotest.(check int) "l1 hits add" 1 (Stats.l1_hits m);
  Alcotest.(check int) "offchip adds" 2 (Stats.offchip_accesses m);
  Alcotest.(check int) "net cycles add" 19 (Stats.offchip_net_cycles m);
  Alcotest.(check int) "messages add" 2 (Stats.offchip_messages m);
  Alcotest.(check int) "memory cycles" 100 (Stats.memory_cycles m);
  Alcotest.(check int) "row hits" 1 (Stats.row_hits m);
  Alcotest.(check int) "finish is max" 900 (Stats.finish_time m);
  Alcotest.(check int) "hop histogram adds" 1 (Stats.offchip_hops m).(3);
  Alcotest.(check int) "node x mc map adds" 1 (Stats.node_mc_requests m).(1).(0);
  Alcotest.(check int) "node x mc map adds b" 1
    (Stats.node_mc_requests m).(1).(1);
  (try
     ignore (Stats.merge a (Stats.create ~nodes:2 ~mcs:2));
     Alcotest.fail "shape mismatch accepted"
   with Invalid_argument _ -> ())

let test_hop_clamp () =
  (* routes longer than max_hops land in the last bucket instead of
     silently vanishing, and the CDF still reaches 1 *)
  let s = Stats.create ~nodes:1 ~mcs:1 in
  Stats.record_leg s ~offchip:true ~hops:(Stats.max_hops + 100) ~cycles:1;
  Stats.record_leg s ~offchip:true ~hops:0 ~cycles:1;
  let h = Stats.offchip_hops s in
  Alcotest.(check int) "clamped into last bucket" 1 h.(Stats.max_hops);
  let cdf = Stats.hop_cdf h in
  Alcotest.(check (float 1e-9)) "cdf complete" 1.0 cdf.(Stats.max_hops);
  Alcotest.(check (float 1e-9)) "half below" 0.5 cdf.(0)

let test_stats_json () =
  let s = Stats.create ~nodes:2 ~mcs:1 in
  Stats.record_access s;
  Stats.record_offchip s ~origin:0 ~mc:0;
  Stats.record_memory s ~latency:50 ~queue:10 ~row_hit:false;
  Stats.note_finish s 123;
  match J.of_string (J.to_string (Stats.to_json s)) with
  | Ok v ->
    List.iter
      (fun k ->
        Alcotest.(check bool) (k ^ " present") true (J.member k v <> None))
      [ "metrics"; "derived"; "hops"; "node_mc_requests" ]
  | Error e -> Alcotest.fail e

(* --- golden Chrome trace for a tiny 2x2-mesh run --- *)

(* kept in sync with test/golden/trace_2x2.json: same program, platform,
   capacity and sampling.  The simulator is deterministic, so the exported
   trace is byte-stable; regenerate the golden when the engine's timing
   model changes (see test/golden/README). *)
let golden_src =
  {|
param N = 96;
array A[N][N];
array B[N][N];
parfor i = 0 to N-1 { for j = 0 to N-1 { A[i][j] = B[i][j] + B[j][i]; } }
|}

let parse src =
  match Lang.Parser.parse_result src with
  | Ok p -> p
  | Error _ -> failwith "parse failed"

let mesh2x2 () =
  match Sim.Config.mesh ~width:2 ~height:2 (Sim.Config.scaled ()) with
  | Ok c -> c
  | Error e -> failwith e

let golden_trace () =
  let cfg = mesh2x2 () in
  let trace = T.create ~capacity:256 ~sample:7 () in
  ignore
    (Sim.Runner.run cfg ~optimized:false ~trace (parse golden_src));
  trace

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let test_golden_trace () =
  let trace = golden_trace () in
  let got = T.to_json trace in
  let want =
    match J.of_string (read_file "golden/trace_2x2.json") with
    | Ok v -> v
    | Error e -> Alcotest.fail ("golden file unreadable: " ^ e)
  in
  Alcotest.(check bool) "matches golden/trace_2x2.json" true (J.equal got want)

let test_trace_categories () =
  (* an end-to-end run must produce spans for every pipeline stage *)
  let cfg = mesh2x2 () in
  let trace = T.create ~capacity:65536 ~sample:1 () in
  ignore
    (Sim.Runner.run cfg ~optimized:false ~trace (parse golden_src));
  let cats =
    List.fold_left
      (fun acc -> function
        | T.Complete { cat; _ } -> if List.mem cat acc then acc else cat :: acc
        | T.Counter _ -> acc)
      [] (T.events trace)
  in
  List.iter
    (fun c ->
      Alcotest.(check bool) (c ^ " spans present") true (List.mem c cats))
    [ "cache"; "noc"; "mc-queue"; "dram" ];
  Alcotest.(check bool) "queue-depth counter series present" true
    (List.exists
       (function T.Counter _ -> true | T.Complete _ -> false)
       (T.events trace))

let suite =
  [
    ( "obs",
      [
        Alcotest.test_case "json basics" `Quick test_json_basics;
        Alcotest.test_case "json parse" `Quick test_json_parse;
        Alcotest.test_case "json non-finite" `Quick test_json_nonfinite;
        QCheck_alcotest.to_alcotest prop_json_roundtrip;
        QCheck_alcotest.to_alcotest prop_json_roundtrip_minified;
        QCheck_alcotest.to_alcotest prop_log2_buckets;
        Alcotest.test_case "log2 boundaries" `Quick test_log2_boundaries;
        Alcotest.test_case "registry basics" `Quick test_registry_basics;
        Alcotest.test_case "snapshot merge" `Quick test_snapshot_merge;
        Alcotest.test_case "metrics json" `Quick test_metrics_json;
        Alcotest.test_case "histogram kind is log2 only" `Quick
          test_metrics_kind_only_log2;
        Alcotest.test_case "report rejects an undecodable attribution" `Quick
          test_report_rejects_bad_attribution;
        Alcotest.test_case "trace disabled" `Quick test_trace_disabled;
        Alcotest.test_case "trace ring" `Quick test_trace_ring;
        Alcotest.test_case "trace sampling" `Quick test_trace_sampling;
        Alcotest.test_case "trace json" `Quick test_trace_json;
        Alcotest.test_case "phase timer" `Quick test_phase_timer;
        Alcotest.test_case "stats merge" `Quick test_stats_merge;
        Alcotest.test_case "hop clamp" `Quick test_hop_clamp;
        Alcotest.test_case "stats json" `Quick test_stats_json;
        Alcotest.test_case "golden 2x2 trace" `Quick test_golden_trace;
        Alcotest.test_case "trace categories" `Quick test_trace_categories;
      ] );
  ]
