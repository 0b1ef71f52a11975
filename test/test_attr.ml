(* Tests for the off-chip attribution layer: site tables, the engine's
   per-site cube, tagged trace files, progress streams and the report
   renderer. *)

module Config = Sim.Config
module Runner = Sim.Runner
module Attr = Obs.Attr
module Json = Obs.Json

let parse src =
  match Lang.Parser.parse_result src with
  | Ok p -> p
  | Error (d :: _) -> failwith (Lang.Diag.to_string d)
  | Error [] -> failwith "parse failed"

(* the program behind the seed-0 stats golden (gen_golden.ml) *)
let small_src =
  {|
param N = 64;
array A[N][N];
array B[N][N];
parfor i = 1 to N-2 { for j = 0 to N-1 { A[i][j] = B[i][j] + B[i-1][j] + B[i+1][j]; } }
|}

(* --- site tables --- *)

let test_sites_numbering () =
  let p = parse small_src in
  let t = Lang.Sites.of_program p in
  (* rhs reads before the lhs write, in interpreter emission order *)
  let s = Lang.Sites.sites t in
  Alcotest.(check int) "four references" 4 (Array.length s);
  Alcotest.(check (list string)) "emission order (reads then write)"
    [ "B"; "B"; "B"; "A" ]
    (Array.to_list (Array.map (fun (x : Lang.Sites.site) -> x.Lang.Sites.array) s));
  Alcotest.(check (list bool)) "write flags"
    [ false; false; false; true ]
    (Array.to_list (Array.map (fun (x : Lang.Sites.site) -> x.Lang.Sites.write) s));
  (* a foreign node resolves to no site *)
  let foreign =
    { Lang.Ast.array = "A"; subs = []; ref_span = Lang.Span.dummy }
  in
  Alcotest.(check int) "foreign ref" (-1) (Lang.Sites.id_of_ref t foreign)

(* --- golden attribution table + sum cross-check --- *)

let run_attributed () =
  let cfg = Config.scaled () in
  let p = Runner.prepare cfg ~optimized:false ~attr:true (parse small_src) in
  let attr = Runner.attr_for cfg p in
  let r = Runner.run_many ~attr cfg ~jobs:[ p ] in
  (cfg, r, attr)

let test_attr_golden () =
  let _, _, attr = run_attributed () in
  let table = Format.asprintf "%a" Attr.pp_table (Attr.snapshot attr) in
  let ic = open_in_bin "golden/seed0_attr.txt" in
  let golden = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Alcotest.(check string) "byte-identical to committed golden" golden table

let test_attr_sum_matches_engine () =
  let _, r, attr = run_attributed () in
  let snap = Attr.snapshot attr in
  let offchip = Sim.Stats.offchip_accesses r.Sim.Engine.stats in
  Alcotest.(check int) "cube total == sim.offchip_accesses" offchip
    (Attr.snap_total snap);
  let per_site =
    List.init
      (Array.length snap.Attr.sites + 1)
      (fun s -> Attr.site_count snap s)
  in
  Alcotest.(check int) "sum of per-site counts == total" offchip
    (List.fold_left ( + ) 0 per_site);
  Alcotest.(check int) "every access attributed (empty unknown row)" 0
    (Attr.site_count snap (Array.length snap.Attr.sites));
  (* the cube's per-controller split agrees with the stats' per-node map *)
  let node_mc = Sim.Stats.node_mc_requests r.Sim.Engine.stats in
  let mcs = snap.Attr.mcs in
  for m = 0 to mcs - 1 do
    let from_stats =
      Array.fold_left (fun acc row -> acc + row.(m)) 0 node_mc
    in
    let from_cube =
      List.fold_left ( + ) 0
        (List.init
           (Array.length snap.Attr.sites + 1)
           (fun s -> Attr.site_mc_count snap ~site:s ~mc:m))
    in
    Alcotest.(check int)
      (Printf.sprintf "controller %d split agrees" m)
      from_stats from_cube
  done

let test_attr_off_is_byte_identical () =
  (* with attribution off the registry must not even mention the
     attr-only metrics — the seed-0 stats golden (test_sim) pins the
     whole document; here we pin the specific invariant *)
  let cfg = Config.scaled () in
  let p = Runner.prepare cfg ~optimized:false (parse small_src) in
  let r = Runner.run_many cfg ~jobs:[ p ] in
  let snap = Obs.Metrics.snapshot (Sim.Stats.registry r.Sim.Engine.stats) in
  Alcotest.(check bool) "no queue-depth histogram" false
    (List.mem_assoc "mem.queue_depth" snap.Obs.Metrics.histograms);
  Alcotest.(check bool) "no link gauges" false
    (List.mem_assoc "noc.max_link_utilization" snap.Obs.Metrics.gauges)

(* --- snapshot JSON round-trip and merge --- *)

let test_attr_json_roundtrip () =
  let _, _, attr = run_attributed () in
  let snap = Attr.snapshot attr in
  match Attr.of_json (Attr.to_json snap) with
  | Error e -> Alcotest.failf "decode failed: %s" e
  | Ok snap' ->
    Alcotest.(check bool) "snapshot JSON round-trips" true
      (Json.equal (Attr.to_json snap) (Attr.to_json snap'))

(* a decoded snapshot's counts feed the report's sums, so a negative
   count or a cube total past [max_int] is refused at the door *)
let test_of_json_rejects_bad_counts () =
  let sites =
    [| { Attr.array = "A"; write = false; phase = 0; loc = "x:1-2" } |]
  in
  let a = Attr.create ~sites ~mcs:2 ~banks:2 ~max_hops:4 in
  Attr.record a ~site:0 ~mc:1 ~bank:0 ~hops:2;
  let with_counts counts =
    match Attr.to_json (Attr.snapshot a) with
    | Json.Obj fields ->
      Json.Obj
        (List.map
           (fun (k, v) -> if k = "counts" then (k, Json.int_array counts) else (k, v))
           fields)
    | _ -> Alcotest.fail "snapshot JSON is an object"
  in
  let rejected what affix counts =
    match Attr.of_json (with_counts counts) with
    | Ok _ -> Alcotest.failf "%s accepted" what
    | Error e ->
      Alcotest.(check bool) (what ^ ": " ^ e) true
        (Astring.String.is_infix ~affix e)
  in
  rejected "negative count" "negative count" [| 0; 0; -1; 0; 0; 0; 0; 0 |];
  rejected "total past max_int" "counts overflow"
    [| 0; 0; max_int; 0; 0; 0; 1; 0 |];
  match Attr.of_json (with_counts [| 0; 0; max_int; 0; 0; 0; 0; 0 |]) with
  | Ok s -> Alcotest.(check int) "a total of max_int decodes" max_int (Attr.snap_total s)
  | Error e -> Alcotest.failf "max_int total rejected: %s" e

(* the shade index is taken in floats: [count * 7] past [max_int] used
   to index out of the shade table *)
let test_bank_heat_near_max_int () =
  let heat =
    Obs.Report.bank_heat [| [| max_int / 2; max_int / 4; 0 |]; [| 1; 0; 0 |] |]
  in
  List.iter
    (fun row ->
      Alcotest.(check bool) row true (Astring.String.is_infix ~affix:row heat))
    [ "mc0  |#- |"; "mc1  |   | 1" ]

let test_merge_errors () =
  let sites =
    [| { Attr.array = "A"; write = false; phase = 0; loc = "x:1-2" } |]
  in
  let a = Attr.create ~sites ~mcs:2 ~banks:2 ~max_hops:4 in
  let b = Attr.create ~sites ~mcs:4 ~banks:2 ~max_hops:4 in
  (match Attr.absorb a (Attr.snapshot b) with
  | Ok () -> Alcotest.fail "shape mismatch absorbed"
  | Error _ -> ());
  let other =
    [| { Attr.array = "B"; write = true; phase = 0; loc = "y:1-2" } |]
  in
  let c = Attr.create ~sites:other ~mcs:2 ~banks:2 ~max_hops:4 in
  match Attr.absorb a (Attr.snapshot c) with
  | Ok () -> Alcotest.fail "site-table mismatch absorbed"
  | Error _ -> ()

let test_unknown_row () =
  let sites =
    [| { Attr.array = "A"; write = false; phase = 0; loc = "x:1-2" } |]
  in
  let a = Attr.create ~sites ~mcs:2 ~banks:2 ~max_hops:4 in
  Attr.record a ~site:(-1) ~mc:0 ~bank:1 ~hops:2;
  Attr.record a ~site:7 ~mc:1 ~bank:0 ~hops:1;
  Attr.record a ~site:0 ~mc:1 ~bank:1 ~hops:0;
  let snap = Attr.snapshot a in
  Alcotest.(check int) "total counts everything" 3 (Attr.snap_total snap);
  Alcotest.(check int) "out-of-range lands in the unknown row" 2
    (Attr.site_count snap 1);
  let table = Format.asprintf "%a" Attr.pp_table snap in
  Alcotest.(check bool) "unknown row rendered" true
    (Astring.String.is_infix ~affix:"(unattributed)" table)

(* random snapshots of a fixed small shape, for the merge laws *)
let snapshot_gen =
  let sites =
    [|
      { Attr.array = "A"; write = false; phase = 0; loc = "x:1-2" };
      { Attr.array = "B"; write = true; phase = 1; loc = "x:3-9" };
    |]
  in
  QCheck.Gen.(
    let event =
      quad (int_range (-1) 3) (int_range 0 1) (int_range 0 1) (int_range 0 5)
    in
    map
      (fun events ->
        let a = Attr.create ~sites ~mcs:2 ~banks:2 ~max_hops:4 in
        List.iter
          (fun (site, mc, bank, hops) ->
            Attr.record a ~site ~mc ~bank ~hops;
            Attr.record_queue a ~site ~queue:(hops * 7))
          events;
        Attr.snapshot a)
      (list_size (int_range 0 40) event))

(* two snapshots absorbed, in order, into a fresh cube of their shape —
   how the parallel engine folds its partitions' cubes back *)
let merge_exn (a : Attr.snapshot) b =
  let t =
    Attr.create ~sites:a.Attr.sites ~mcs:a.Attr.mcs ~banks:a.Attr.banks
      ~max_hops:a.Attr.max_hops
  in
  List.iter
    (fun s -> match Attr.absorb t s with Ok () -> () | Error e -> failwith e)
    [ a; b ];
  Attr.snapshot t

let prop_merge_commutative =
  QCheck.Test.make ~name:"Attr.absorb is commutative" ~count:100
    (QCheck.make snapshot_gen)
    (fun s ->
      (* split differently each run by merging with itself reversed *)
      let t = merge_exn s s in
      Json.equal (Attr.to_json (merge_exn s t)) (Attr.to_json (merge_exn t s)))

let prop_merge_associative =
  QCheck.Test.make ~name:"Attr.absorb is associative" ~count:100
    (QCheck.make QCheck.Gen.(triple snapshot_gen snapshot_gen snapshot_gen))
    (fun (a, b, c) ->
      Json.equal
        (Attr.to_json (merge_exn (merge_exn a b) c))
        (Attr.to_json (merge_exn a (merge_exn b c))))

(* --- progress streams --- *)

let test_progress_roundtrip () =
  let path = Filename.temp_file "offchip" ".ndjson" in
  (match Obs.Progress.file_sink path with
  | Error e -> Alcotest.fail e
  | Ok sink ->
    Obs.Progress.emit sink (Json.obj [ ("event", Json.String "a") ]);
    Obs.Progress.emit sink
      (Json.obj [ ("event", Json.String "b"); ("n", Json.Int 3) ]);
    Obs.Progress.close sink);
  (match Obs.Progress.read path with
  | Error e -> Alcotest.fail e
  | Ok events ->
    Alcotest.(check int) "two events" 2 (List.length events);
    List.iter
      (fun ev ->
        Alcotest.(check bool) "ts stamped" true (Json.member "ts" ev <> None))
      events;
    (* a trailing partial line (concurrent writer) is not an event *)
    let oc = open_out_gen [ Open_append ] 0o644 path in
    output_string oc "{\"event\":\"tr";
    close_out oc;
    match Obs.Progress.read path with
    | Error e -> Alcotest.fail e
    | Ok events' ->
      Alcotest.(check int) "partial line ignored" 2 (List.length events'));
  Sys.remove path

let test_progress_follow () =
  let path = Filename.temp_file "offchip" ".ndjson" in
  (match Obs.Progress.file_sink path with
  | Error e -> Alcotest.fail e
  | Ok sink ->
    Obs.Progress.emit sink (Json.obj [ ("event", Json.String "job_finish") ]);
    Obs.Progress.emit sink (Json.obj [ ("event", Json.String "sweep_done") ]);
    Obs.Progress.close sink);
  let seen = ref 0 in
  (match
     Obs.Progress.follow ~poll_s:0.01 ~timeout_s:5.
       ~stop:(fun ev ->
         match Json.member "event" ev with
         | Some (Json.String "sweep_done") -> true
         | _ -> false)
       ~on_event:(fun _ -> incr seen)
       path
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "both events delivered" 2 !seen;
  (* a stream that never finishes times out instead of hanging *)
  let dead = Filename.temp_file "offchip" ".ndjson" in
  (match
     Obs.Progress.follow ~poll_s:0.01 ~timeout_s:0.05
       ~stop:(fun _ -> false)
       ~on_event:(fun _ -> ())
       dead
   with
  | Ok () -> Alcotest.fail "follow returned without a stop event"
  | Error _ -> ());
  Sys.remove path;
  Sys.remove dead

(* --- report --- *)

let test_report_names_hot_site () =
  let cfg, r, attr = run_attributed () in
  let doc = Sweep.Exec.result_json ~attr ~app:"golden-small" cfg r in
  match Obs.Report.build doc with
  | Error e -> Alcotest.fail e
  | Ok sections ->
    let md = Obs.Report.to_markdown ~title:"t" sections in
    let snap = Attr.snapshot attr in
    (* the report names the hottest site's (array, span, controller)
       triple with exactly the engine's count *)
    let hot =
      let best = ref 0 in
      Array.iteri
        (fun i _ ->
          if Attr.site_count snap i > Attr.site_count snap !best then best := i)
        snap.Attr.sites;
      !best
    in
    let site = snap.Attr.sites.(hot) in
    let count = Attr.site_mc_count snap ~site:hot ~mc:0 in
    Alcotest.(check bool) "names the array" true
      (Astring.String.is_infix ~affix:site.Attr.array md);
    Alcotest.(check bool) "names the source span" true
      (Astring.String.is_infix ~affix:site.Attr.loc md);
    Alcotest.(check bool) "per-controller count is exact" true
      (Astring.String.is_infix ~affix:(Printf.sprintf "mc0=%d" count) md);
    Alcotest.(check bool) "totals agree with the engine" true
      (Astring.String.is_infix ~affix:"exactly the engine's" md);
    Alcotest.(check bool) "heatmaps embedded" true
      (Astring.String.is_infix ~affix:"per-link utilization" md);
    (* html rendering stays self-contained and keeps the pre blocks *)
    let html = Obs.Report.to_html ~title:"t" sections in
    Alcotest.(check bool) "html has the table" true
      (Astring.String.is_infix ~affix:"<pre>" html)

(* a stats document whose attribution cube is out of range is a report
   error, not an exception: a negative count, and a cell of [max_int]
   beside another count *)
let test_report_refuses_bad_cube () =
  let cfg, r, attr = run_attributed () in
  let doc = Sweep.Exec.result_json ~attr ~app:"golden-small" cfg r in
  let set_first_counts c =
    let counts = function
      | Json.List (_ :: rest) -> Json.List (Json.Int c :: rest)
      | j -> j
    in
    let attribution = function
      | Json.Obj fields ->
        Json.Obj (List.map (fun (k, v) -> if k = "counts" then (k, counts v) else (k, v)) fields)
      | j -> j
    in
    match doc with
    | Json.Obj fields ->
      Json.Obj
        (List.map
           (fun (k, v) -> if k = "attribution" then (k, attribution v) else (k, v))
           fields)
    | _ -> Alcotest.fail "stats document is an object"
  in
  Alcotest.(check bool) "the document has counts" true
    (Attr.snap_total (Attr.snapshot attr) > 0);
  List.iter
    (fun (what, c, affix) ->
      match Obs.Report.build (set_first_counts c) with
      | Ok _ -> Alcotest.failf "%s: report built" what
      | Error e ->
        Alcotest.(check bool) (what ^ ": " ^ e) true
          (Astring.String.is_infix ~affix e))
    [
      ("negative count", -1, "negative count");
      ("max_int count", max_int, "counts overflow");
    ]

let suite =
  [
    ( "attr",
      [
        Alcotest.test_case "site numbering" `Quick test_sites_numbering;
        Alcotest.test_case "seed-0 attribution golden" `Quick test_attr_golden;
        Alcotest.test_case "cube total == engine counters" `Quick
          test_attr_sum_matches_engine;
        Alcotest.test_case "attr off leaves registry untouched" `Quick
          test_attr_off_is_byte_identical;
        Alcotest.test_case "snapshot JSON round-trip" `Quick
          test_attr_json_roundtrip;
        Alcotest.test_case "merge refuses mismatched shapes" `Quick
          test_merge_errors;
        Alcotest.test_case "of_json rejects bad counts" `Quick
          test_of_json_rejects_bad_counts;
        Alcotest.test_case "bank heat near max_int" `Quick
          test_bank_heat_near_max_int;
        Alcotest.test_case "unknown row" `Quick test_unknown_row;
        QCheck_alcotest.to_alcotest prop_merge_commutative;
        QCheck_alcotest.to_alcotest prop_merge_associative;
        Alcotest.test_case "progress NDJSON round-trip" `Quick
          test_progress_roundtrip;
        Alcotest.test_case "progress follow" `Quick test_progress_follow;
        Alcotest.test_case "report names a hot site exactly" `Quick
          test_report_names_hot_site;
        Alcotest.test_case "report refuses a bad cube" `Quick
          test_report_refuses_bad_cube;
      ] );
  ]
