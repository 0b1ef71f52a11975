(* Core.Place_search: determinism, searched-vs-preset dominance, the
   tabled cost model against the per-thread oracle, and the search as
   occ runs it against goldens recorded before the cost model was
   tabled. *)

open Core

let json_of_platform p = Obs.Json.to_string (Platform.to_json p)

(* Same seed => byte-identical emitted platform JSON (the dev-check /CI
   invariant); a different seed still never beats determinism — it may
   find the same optimum, but each seed reproduces itself exactly. *)
let test_deterministic () =
  let base = Platform.default () in
  let run () =
    match Place_search.search ~bank_pressure:1.0 base with
    | Error e -> Alcotest.fail e
    | Ok o -> o
  in
  let a = run () and b = run () in
  Alcotest.(check string) "same JSON" (json_of_platform a.platform)
    (json_of_platform b.platform);
  Alcotest.(check (float 1e-9)) "same cost" a.cost b.cost;
  Alcotest.(check int) "same evaluations" a.evaluations b.evaluations;
  Alcotest.(check (list string)) "same trajectory" a.trajectory b.trajectory

(* The descent starts from every preset candidate, so the searched cost
   can never exceed the best preset's — at any pressure, on any preset
   platform. *)
let test_dominates_presets () =
  List.iter
    (fun (spec, pressure) ->
      match Platform.of_spec spec with
      | Error e -> Alcotest.fail e
      | Ok base ->
        (match Place_search.search ~bank_pressure:pressure base with
         | Error e -> Alcotest.fail e
         | Ok o ->
           if o.cost > o.preset_best.Mapping_select.cost +. 1e-9 then
             Alcotest.failf "%s @ %.2f: searched %.3f > preset %.3f" spec
               pressure o.cost o.preset_best.Mapping_select.cost))
    [
      ("mesh8x8-mc4", 0.25);
      ("mesh8x8-mc4", 1.0);
      ("mesh8x8-mc4", 4.0);
      ("mesh8x8-mc8", 1.0);
      ("mesh8x8-mc16", 2.0);
      ("mesh4x4-m1", 1.0);
    ]

(* The searched platform is a valid machine: it round-trips through JSON
   and its placement keeps one site per controller. *)
let test_roundtrip () =
  let base = Platform.default () in
  match Place_search.search ~bank_pressure:2.0 base with
  | Error e -> Alcotest.fail e
  | Ok o ->
    (match Platform.of_json (Platform.to_json o.platform) with
     | Error e -> Alcotest.fail e
     | Ok p ->
       Alcotest.(check bool) "same machine" true
         (Platform.same_machine p o.platform);
       Alcotest.(check int) "one site per MC"
         (Platform.num_mcs o.platform)
         (Noc.Placement.count o.platform.Platform.placement))

(* The tabled cost model equals the per-thread loop exactly — float [=],
   not a tolerance — on every cluster shape the five controller-budget
   presets admit, with the controllers on random sites of either pool. *)
let prop_tabled_cost =
  let specs =
    [ "mesh8x8-mc4"; "mesh8x8-mc8"; "mesh8x8-mc16"; "chiplet2x2-mc4"; "chiplet2x2-mc8" ]
  in
  let gen =
    let open QCheck.Gen in
    let* spec = oneofl specs in
    let base = Result.get_ok (Platform.of_spec spec) in
    let* cand = oneofl (Platform.candidates base) in
    let* pool = oneofl [ Noc.Placement.Perimeter; Noc.Placement.Flip_chip ] in
    let topo = base.Platform.topo in
    let* sites =
      shuffle_l (Array.to_list (Noc.Placement.pool_sites topo pool))
    in
    let n = Platform.num_mcs cand in
    let* pressure = float_range 0. 8. in
    return
      ( spec,
        topo,
        cand.Platform.cluster,
        Array.of_list (List.filteri (fun i _ -> i < n) sites),
        pressure )
  in
  let print (spec, _, (c : Cluster.t), sites, pressure) =
    Printf.sprintf "%s cluster %s sites %s pressure %h" spec c.Cluster.name
      (String.concat " "
         (Array.to_list
            (Array.map
               (fun (s : Noc.Coord.t) -> Printf.sprintf "(%d,%d)" s.Noc.Coord.x s.Noc.Coord.y)
               sites)))
      pressure
  in
  QCheck.Test.make ~name:"tabled cost = per-thread oracle" ~count:300
    (QCheck.make ~print gen)
    (fun (_, topo, cluster, sites, bank_pressure) ->
      let p = Result.get_ok (Noc.Placement.of_coords_result topo "q" sites) in
      Mapping_select.evaluate topo cluster p
      = Naive_mapping_select.evaluate topo cluster p
      && Mapping_select.estimated_cost topo cluster p ~bank_pressure
         = Naive_mapping_select.estimated_cost topo cluster p ~bank_pressure)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* What test/gen_golden.exe --search records: occ's --search-out file and
   its C004 notes plus the whole trajectory, for apsi on both
   8-controller presets at seeds 0 and 1. *)
let test_search_golden (platform, seed) () =
  let cfg =
    Result.get_ok (Sim.Config.build ~scaled:false ~platform ~mapping:"" ())
  in
  let r =
    Pipeline.compile ~verify:false ~bank_pressure:1.0
      ~platform:(Sim.Config.platform cfg)
      ~search:{ Place_search.default_params with seed }
      ~cfg:(Sim.Config.customize_config cfg)
      (Pipeline.Program (Workloads.App.program (Workloads.Suite.by_name "apsi")))
  in
  let o = Option.get r.Pipeline.artifacts.Pipeline.search in
  let stem = Printf.sprintf "golden/search_%s_seed%d" platform seed in
  let json = Filename.temp_file "search" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove json)
    (fun () ->
      Result.get_ok (Obs.Json.to_file json (Platform.to_json o.Place_search.platform));
      Alcotest.(check string) "--search-out bytes" (read_file (stem ^ ".json"))
        (read_file json));
  let notes =
    List.filter_map
      (fun (d : Lang.Diag.t) ->
        if String.equal d.Lang.Diag.code "C004" then Some d.Lang.Diag.message
        else None)
      r.Pipeline.diags
  in
  Alcotest.(check string) "C004 notes and trajectory" (read_file (stem ^ ".txt"))
    (String.concat "" (List.map (fun l -> l ^ "\n") (notes @ o.Place_search.trajectory)))

let suite =
  [
    ( "place_search",
      [
        Alcotest.test_case "deterministic" `Quick test_deterministic;
        Alcotest.test_case "dominates presets" `Quick test_dominates_presets;
        Alcotest.test_case "json roundtrip" `Quick test_roundtrip;
        QCheck_alcotest.to_alcotest prop_tabled_cost;
      ]
      @ List.map
          (fun ((platform, seed) as w) ->
            Alcotest.test_case
              (Printf.sprintf "golden search on %s, seed %d" platform seed)
              `Quick (test_search_golden w))
          [
            ("mesh8x8-mc8", 0); ("mesh8x8-mc8", 1);
            ("chiplet2x2-mc8", 0); ("chiplet2x2-mc8", 1);
          ] );
  ]
