(* Tests for the 13-application suite: every kernel parses, analyzes,
   traces and transforms; per-app characteristics match what the paper
   reports about them. *)

module App = Workloads.App
module Suite = Workloads.Suite
module Profile = Workloads.Profile
module Analysis = Lang.Analysis

let paper_names =
  [
    "wupwise"; "swim"; "mgrid"; "applu"; "galgel"; "apsi"; "gafort"; "fma3d";
    "art"; "ammp"; "hpccg"; "minighost"; "minimd";
  ]

let cfg_private =
  Sim.Config.customize_config (Sim.Config.scaled ())

let test_thirteen_apps () =
  Alcotest.(check int) "13 applications" 13 (List.length Suite.all);
  Alcotest.(check (list string)) "paper's suite (minus equake)" paper_names Suite.names

let test_all_parse_and_analyze () =
  List.iter
    (fun app ->
      let a = Analysis.analyze (App.program app) in
      Alcotest.(check bool)
        (app.App.name ^ " has arrays")
        true
        (List.length a.Analysis.arrays > 0);
      (* every app has at least one parallel affine reference *)
      let has_parallel =
        List.exists
          (fun (info : Analysis.array_info) ->
            List.exists
              (fun (o : Analysis.occurrence) ->
                o.Analysis.par_dim <> None
                && match o.Analysis.kind with
                   | Analysis.Affine_ref _ -> true
                   | Analysis.Indexed_ref -> false)
              info.Analysis.occurrences)
          a.Analysis.arrays
      in
      Alcotest.(check bool) (app.App.name ^ " parallel refs") true has_parallel)
    Suite.all

let test_all_trace () =
  List.iter
    (fun app ->
      let p = App.program app in
      let phases =
        Lang.Interp.trace ~threads:4
          ~addr_of:(fun _ ->
            Lang.Interp.Fn
              (Array.fold_left (fun a x -> (a * 1024) + (x land 1023)) 0))
          ~index_lookup:(fun name v -> App.index_lookup app name v)
          p
      in
      let total =
        List.fold_left
          (fun a ph -> a + Array.fold_left (fun a s -> a + Array.length s) 0 ph)
          0 phases
      in
      Alcotest.(check bool) (app.App.name ^ " nonempty trace") true (total > 1000);
      Alcotest.(check bool)
        (app.App.name ^ " warmup phases within range")
        true
        (app.App.warmup_nests < List.length phases))
    Suite.all

let test_all_transform () =
  List.iter
    (fun app ->
      let a = Analysis.analyze (App.program app) in
      let profile arr = Profile.for_transform app a arr in
      let report = Core.Transform.run ~profile cfg_private a in
      Alcotest.(check bool)
        (app.App.name ^ " optimizes some arrays")
        true
        (report.Core.Transform.pct_arrays_optimized > 0.);
      Alcotest.(check bool)
        (app.App.name ^ " satisfies some references")
        true
        (report.Core.Transform.pct_refs_satisfied > 0.))
    Suite.all

let test_index_arrays () =
  (* hpccg and minimd are the indexed-access apps *)
  let has_index app =
    List.exists (fun (d : Lang.Ast.decl) -> d.Lang.Ast.index_array)
      (App.program app).Lang.Ast.decls
  in
  Alcotest.(check bool) "hpccg" true (has_index (Suite.by_name "hpccg"));
  Alcotest.(check bool) "minimd" true (has_index (Suite.by_name "minimd"));
  Alcotest.(check bool) "swim has none" false (has_index (Suite.by_name "swim"))

let test_index_contents_bounded () =
  List.iter
    (fun (name, arr, shape) ->
      let app = Suite.by_name name in
      let a = Analysis.analyze (App.program app) in
      let info = Analysis.array_info a arr in
      let n = info.Analysis.extents.(0) and k = info.Analysis.extents.(1) in
      for i = 0 to n - 1 do
        for z = 0 to k - 1 do
          let v = App.index_lookup app arr [| i; z |] in
          if v < 0 || v >= shape then
            Alcotest.failf "%s.%s[%d][%d] = %d out of range" name arr i z v
        done
      done)
    [ ("hpccg", "COLS", 32768); ("minimd", "NEIGH", 16384) ]

let test_profiles_approximate () =
  (* the banded/cell-sorted index structures fit within the threshold *)
  List.iter
    (fun (name, arr) ->
      let app = Suite.by_name name in
      let a = Analysis.analyze (App.program app) in
      let target =
        List.find
          (fun (info : Analysis.array_info) ->
            List.exists
              (fun (o : Analysis.occurrence) -> o.Analysis.kind = Analysis.Indexed_ref)
              info.Analysis.occurrences)
          a.Analysis.arrays
      in
      let samples = Profile.samples app a target.Analysis.decl.Lang.Ast.name in
      Alcotest.(check bool) (name ^ " has samples") true (List.length samples > 100);
      match Core.Indexed.approximate ~samples with
      | Some (_, inacc) ->
        Alcotest.(check bool)
          (Printf.sprintf "%s.%s approximates (%.2f)" name arr inacc)
          true
          (inacc <= Core.Indexed.default_threshold)
      | None -> Alcotest.fail "expected a fit")
    [ ("hpccg", "XV"); ("minimd", "PX") ]

let test_first_touch_flags () =
  let friendly =
    List.filter_map
      (fun a -> if a.App.first_touch_friendly then Some a.App.name else None)
      Suite.all
  in
  (* Section 6.3: first-touch works only for wupwise, gafort and minimd *)
  Alcotest.(check (list string)) "paper's first-touch apps"
    [ "wupwise"; "gafort"; "minimd" ] friendly

let test_by_name () =
  Alcotest.(check string) "lookup" "apsi" (Suite.by_name "apsi").App.name;
  (match Suite.by_name_result "equake" with
  | Error e ->
    Alcotest.(check bool) "unknown app named" true
      (Astring.String.is_prefix ~affix:"unknown application \"equake\"" e)
  | Ok _ -> Alcotest.fail "equake is not in the suite");
  Alcotest.check_raises "by_name raises the same message"
    (Invalid_argument
       (match Suite.by_name_result "equake" with Error e -> e | Ok _ -> ""))
    (fun () -> ignore (Suite.by_name "equake"))

(* occ and simulate resolve --app through by_name_result: every suite
   app and every well-formed gemm name resolves to itself *)
let test_by_name_result_resolves () =
  List.iter
    (fun name ->
      match Suite.by_name_result name with
      | Ok app -> Alcotest.(check string) "resolved name" name app.App.name
      | Error e -> Alcotest.failf "%s: %s" name e)
    (List.map (fun (a : App.t) -> a.App.name) Suite.all
    @ [ "gemm"; "gemm-n128t4"; "gemm-n128t8p64" ])

(* --- the tiled-GEMM generator family --- *)

let test_gemm_generator () =
  let module Gemm = Workloads.Gemm in
  (* the default instance parses, analyzes and has the strip-parallel
     structure the mapping experiments rely on *)
  let app = Suite.by_name "gemm" in
  Alcotest.(check string) "default name" "gemm" app.App.name;
  Alcotest.(check bool) "strips localize A and C: first-touch friendly" true
    app.App.first_touch_friendly;
  let a = Analysis.analyze (App.program app) in
  Alcotest.(check int) "A, B, C" 3 (List.length a.Analysis.arrays);
  (* gemm is a generator, not a suite member: the fixed 13 are unchanged *)
  Alcotest.(check bool) "not in Suite.all" false
    (List.exists (fun (x : App.t) -> String.equal x.App.name "gemm") Suite.all);
  (* knobbed instances carry their knobs in the canonical name *)
  let shaped = Suite.by_name "gemm-n128t8p64" in
  Alcotest.(check string) "canonical name" "gemm-n128t8p64" shaped.App.name;
  (match Gemm.of_name "gemm-n128t4" with
  | Some (Ok app) ->
    Alcotest.(check string) "strip knob optional" "gemm-n128t4" app.App.name
  | Some (Error e) -> Alcotest.fail e
  | None -> Alcotest.fail "gemm-n128t4 is in the family");
  Alcotest.(check bool) "non-family names are not claimed" true
    (Gemm.of_name "swim" = None && Gemm.of_name "gemmology" = None)

let test_gemm_bad_knobs () =
  let module Gemm = Workloads.Gemm in
  let expect_error label = function
    | Some (Error e) ->
      Alcotest.(check bool) (label ^ " message non-empty") true
        (String.length e > 0)
    | Some (Ok _) -> Alcotest.failf "%s must be rejected" label
    | None -> Alcotest.failf "%s is in the family" label
  in
  expect_error "tile does not divide n" (Gemm.of_name "gemm-n64t7");
  expect_error "strips do not divide n" (Gemm.of_name "gemm-n64t8p7");
  expect_error "zero tile" (Gemm.of_name "gemm-n64t0");
  (* by_name_result surfaces the knob error, not "unknown application" *)
  List.iter
    (fun (name, knob) ->
      match Suite.by_name_result name with
      | Error e ->
        Alcotest.(check bool) (name ^ " names the knob") true
          (Astring.String.is_infix ~affix:knob e)
      | Ok _ -> Alcotest.failf "%s must be rejected" name)
    [ ("gemm-n64t7", "tile size 7"); ("gemm-n0t8", "problem size N=0") ]

let suite =
  [
    ( "workloads",
      [
        Alcotest.test_case "13 apps" `Quick test_thirteen_apps;
        Alcotest.test_case "parse + analyze" `Quick test_all_parse_and_analyze;
        Alcotest.test_case "trace" `Quick test_all_trace;
        Alcotest.test_case "transform" `Quick test_all_transform;
        Alcotest.test_case "index arrays" `Quick test_index_arrays;
        Alcotest.test_case "index contents bounded" `Quick test_index_contents_bounded;
        Alcotest.test_case "profiles approximate" `Quick test_profiles_approximate;
        Alcotest.test_case "first-touch flags" `Quick test_first_touch_flags;
        Alcotest.test_case "by_name" `Quick test_by_name;
        Alcotest.test_case "by_name_result resolves" `Quick
          test_by_name_result_resolves;
        Alcotest.test_case "gemm generator" `Quick test_gemm_generator;
        Alcotest.test_case "gemm knob validation" `Quick test_gemm_bad_knobs;
      ] );
  ]
