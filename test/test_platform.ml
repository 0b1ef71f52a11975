(* Tests for Core.Platform — the shared platform description — and the
   profile-calibration helpers that feed its candidate mappings. *)

module Platform = Core.Platform
module Cluster = Core.Cluster
module Mapping_select = Core.Mapping_select

let ok = function Ok v -> v | Error e -> failwith e

(* --- presets ---------------------------------------------------------- *)

let test_default_preset () =
  let p = Platform.default () in
  Alcotest.(check string) "name" "mesh8x8-mc4" p.Platform.name;
  Alcotest.(check int) "64 nodes" 64 (Noc.Topology.nodes p.Platform.topo);
  Alcotest.(check string) "mapping M1" "M1" p.Platform.cluster.Cluster.name;
  Alcotest.(check string) "corner placement" "P1-corners"
    p.Platform.placement.Noc.Placement.name;
  Alcotest.(check int) "4 MCs" 4 (Platform.num_mcs p);
  Alcotest.(check int) "256 B lines" 256 p.Platform.line_bytes;
  Alcotest.(check int) "granule = line (line-interleaved)" 256
    (Platform.granule_bytes p)

let test_of_spec_presets () =
  List.iter
    (fun (spec, mcs, cname) ->
      let p = ok (Platform.of_spec spec) in
      Alcotest.(check int) (spec ^ " MCs") mcs (Platform.num_mcs p);
      Alcotest.(check string) (spec ^ " mapping") cname
        p.Platform.cluster.Cluster.name)
    [
      ("mesh8x8-mc4", 4, "M1");
      ("mesh8x8-m2", 4, "M2");
      ("mesh8x8-mc8", 8, "M1x8");
      ("mesh8x8-mc16", 16, "M1x16");
      ("chiplet2x2-mc4", 4, "M1");
      ("chiplet2x2-mc8", 8, "M1x8");
    ]

let test_chiplet_presets () =
  let p = ok (Platform.of_spec "chiplet2x2-mc4") in
  Alcotest.(check int) "8x8 mesh (2x2 chiplets of 4x4)" 64
    (Noc.Topology.nodes p.Platform.topo);
  (match p.Platform.topo.Noc.Topology.chiplets with
  | None -> Alcotest.fail "chiplet preset must carry a hierarchy"
  | Some g ->
    Alcotest.(check int) "grid_x" 2 g.Noc.Topology.grid_x;
    Alcotest.(check int) "grid_y" 2 g.Noc.Topology.grid_y;
    Alcotest.(check int) "link latency" 12 g.Noc.Topology.link_latency;
    Alcotest.(check int) "link bytes" 8 g.Noc.Topology.link_bytes);
  Alcotest.(check int) "4 chiplets" 4 (Noc.Topology.num_chiplets p.Platform.topo);
  Alcotest.(check bool) "presets list them" true
    (List.mem "chiplet2x2-mc4" Platform.preset_names
    && List.mem "chiplet2x2-mc8" Platform.preset_names)

let test_of_spec_errors () =
  List.iter
    (fun spec ->
      match Platform.of_spec spec with
      | Ok _ -> Alcotest.failf "%s must be rejected" spec
      | Error e ->
        Alcotest.(check bool) (spec ^ " error is non-empty") true
          (String.length e > 0))
    [
      "mesh8x8-mc3"; "nonsense"; "mesh0x0-mc4"; "/no/such/file.json";
      "chiplet2x2-mc3"; "chiplet0x2-mc4";
    ]

(* --- candidate enumeration -------------------------------------------- *)

let candidate_names p =
  List.map
    (fun (q : Platform.t) -> q.Platform.cluster.Cluster.name)
    (Platform.candidates p)

let test_candidates_respect_budget () =
  (* the default 4-MC platform only realizes M1/M2 — the candidate set
     the pre-platform pipeline used, so default behavior is unchanged *)
  Alcotest.(check (list string)) "mc4 candidates" [ "M1"; "M2" ]
    (candidate_names (Platform.default ()));
  Alcotest.(check (list string)) "mc8 adds the 8-MC mapping"
    [ "M1x8"; "M1"; "M2" ]
    (candidate_names (ok (Platform.of_spec "mesh8x8-mc8")));
  Alcotest.(check (list string)) "mc16 realizes all four"
    [ "M1x16"; "M1"; "M2"; "M1x8" ]
    (candidate_names (ok (Platform.of_spec "mesh8x8-mc16")))

let test_candidate_dedupe () =
  let p = Platform.default () in
  (* an extra that collapses to a machine the presets already propose
     (same cluster x placement) is dropped — the C002 table never lists
     the same machine twice *)
  Alcotest.(check (list string)) "duplicate extra dropped" [ "M1"; "M2" ]
    (List.map
       (fun (q : Platform.t) -> q.Platform.cluster.Cluster.name)
       (Platform.candidates ~extra:[ p ] p));
  (* an extra with the same cluster but a different placement is a new
     machine and joins the pool after the presets *)
  let moved =
    let topo = p.Platform.topo in
    let placement =
      ok
        (Noc.Placement.of_coords_result topo "moved"
           [|
             Noc.Coord.make 1 0; Noc.Coord.make 6 0;
             Noc.Coord.make 1 7; Noc.Coord.make 6 7;
           |])
    in
    ok
      (Platform.make_result ~placement ~name:"moved" ~topo
         ~cluster:p.Platform.cluster ())
  in
  Alcotest.(check bool) "distinct machine" false (Platform.same_machine p moved);
  let cs = Platform.candidates ~extra:[ moved ] p in
  Alcotest.(check int) "extra joins the pool" 3 (List.length cs);
  Alcotest.(check string) "after the presets" "moved"
    (let last = List.nth cs 2 in
     last.Platform.placement.Noc.Placement.name);
  (* an extra beyond the MC budget is not realizable and is dropped *)
  let mc16 = ok (Platform.of_spec "mesh8x8-mc16") in
  Alcotest.(check int) "over-budget extra dropped" 2
    (List.length (Platform.candidates ~extra:[ mc16 ] p))

let test_with_mapping () =
  let p = Platform.default () in
  let m2 = ok (Platform.with_mapping p "M2") in
  Alcotest.(check string) "re-mapped to M2" "M2" m2.Platform.cluster.Cluster.name;
  let same = ok (Platform.with_mapping p "") in
  Alcotest.(check string) "empty spec keeps the mapping" "M1"
    same.Platform.cluster.Cluster.name;
  (match Platform.with_mapping p "16" with
  | Ok q -> Alcotest.(check int) "MC-count spec" 16 (Platform.num_mcs q)
  | Error e -> Alcotest.fail e);
  (* the cluster name a C002 note reports is accepted verbatim *)
  match Platform.with_mapping p "M1x8" with
  | Ok q ->
    Alcotest.(check int) "cluster-name spec" 8 (Platform.num_mcs q);
    Alcotest.(check string) "named cluster" "M1x8"
      q.Platform.cluster.Cluster.name
  | Error e -> Alcotest.fail e

(* --- JSON round-trip --------------------------------------------------- *)

let test_json_roundtrip () =
  List.iter
    (fun spec ->
      let p = ok (Platform.of_spec spec) in
      let q = ok (Platform.of_json (Platform.to_json p)) in
      Alcotest.(check string) (spec ^ " name survives") p.Platform.name
        q.Platform.name;
      Alcotest.(check string) (spec ^ " cluster survives")
        p.Platform.cluster.Cluster.name q.Platform.cluster.Cluster.name;
      Alcotest.(check bool) (spec ^ " placement survives") true
        (p.Platform.placement = q.Platform.placement);
      Alcotest.(check bool) (spec ^ " hierarchy survives") true
        (p.Platform.topo = q.Platform.topo);
      Alcotest.(check bool) (spec ^ " scalars survive") true
        (p.Platform.line_bytes = q.Platform.line_bytes
        && p.Platform.page_bytes = q.Platform.page_bytes
        && p.Platform.elem_bytes = q.Platform.elem_bytes
        && p.Platform.banks_per_mc = q.Platform.banks_per_mc
        && p.Platform.channels_per_mc = q.Platform.channels_per_mc
        && p.Platform.interleaving = q.Platform.interleaving))
    [
      "mesh8x8-mc4"; "mesh8x8-m2"; "mesh8x8-mc8"; "mesh8x8-mc16";
      "chiplet2x2-mc4"; "chiplet2x2-mc8";
    ]

(* [of_json (to_json p)] must restore hierarchical platforms exactly —
   the property over the whole (grid, link class) knob space, not just
   the two presets. *)
let prop_hierarchy_json_roundtrip =
  let gen =
    QCheck.Gen.(
      let* grid_x = oneofl [ 1; 2; 4; 8 ] in
      let* grid_y = oneofl [ 1; 2; 4; 8 ] in
      let* link_latency = int_range 1 40 in
      let* link_bytes = oneofl [ 4; 8; 16 ] in
      return (grid_x, grid_y, link_latency, link_bytes))
  in
  let print (gx, gy, lat, by) =
    Printf.sprintf "grid=%dx%d latency=%d bytes=%d" gx gy lat by
  in
  QCheck.Test.make ~name:"hierarchical platform JSON round-trips" ~count:100
    (QCheck.make ~print gen)
    (fun (grid_x, grid_y, link_latency, link_bytes) ->
      let flat = Noc.Topology.make ~width:8 ~height:8 () in
      let topo =
        ok
          (Noc.Topology.chiplets_result flat ~grid_x ~grid_y ~link_latency
             ~link_bytes)
      in
      let base = Platform.default () in
      let p =
        ok
          (Platform.make_result ~name:"qc" ~topo ~cluster:base.Platform.cluster
             ())
      in
      let q = ok (Platform.of_json (Platform.to_json p)) in
      p.Platform.topo = q.Platform.topo
      && String.equal
           (Obs.Json.to_string (Platform.to_json p))
           (Obs.Json.to_string (Platform.to_json q)))

let test_of_json_bad_hierarchy () =
  let doc hierarchy =
    Obs.Json.Obj
      [
        ("name", Obs.Json.String "bad");
        ("mesh_width", Obs.Json.Int 8);
        ("mesh_height", Obs.Json.Int 8);
        ("hierarchy", Obs.Json.Obj hierarchy);
      ]
  in
  List.iter
    (fun (label, hierarchy) ->
      match Platform.of_json (doc hierarchy) with
      | Ok _ -> Alcotest.failf "%s must be rejected" label
      | Error e ->
        (* the diagnostic locates the failure in the hierarchy member *)
        Alcotest.(check bool)
          (Printf.sprintf "%s error cites hierarchy (%s)" label e)
          true
          (String.length e > String.length "hierarchy:"
          && String.equal (String.sub e 0 10) "hierarchy:"
          && not (String.contains e '\n')))
    [
      ( "non-dividing grid",
        [ ("chiplets_x", Obs.Json.Int 3); ("chiplets_y", Obs.Json.Int 3) ] );
      ( "zero grid",
        [ ("chiplets_x", Obs.Json.Int 0); ("chiplets_y", Obs.Json.Int 2) ] );
      ( "zero link latency",
        [
          ("chiplets_x", Obs.Json.Int 2);
          ("chiplets_y", Obs.Json.Int 2);
          ("link_latency", Obs.Json.Int 0);
        ] );
      ( "negative link width",
        [
          ("chiplets_x", Obs.Json.Int 2);
          ("chiplets_y", Obs.Json.Int 2);
          ("link_bytes", Obs.Json.Int (-8));
        ] );
      ("missing grid", [ ("link_latency", Obs.Json.Int 12) ]);
      ( "non-integer grid",
        [
          ("chiplets_x", Obs.Json.String "two"); ("chiplets_y", Obs.Json.Int 2);
        ] );
      ( {|misspelt key "chiplet_x"|},
        [
          ("chiplets_x", Obs.Json.Int 2);
          ("chiplets_y", Obs.Json.Int 2);
          ("chiplet_x", Obs.Json.Int 2);
        ] );
    ]

let test_degenerate_hierarchy_is_flat () =
  (* a 1x1 chiplet grid is the flat machine: it normalizes away on parse,
     and the re-serialized document is byte-identical to the flat
     preset's (no "hierarchy" member survives) *)
  let flat = Platform.default () in
  let degenerate =
    match Platform.to_json flat with
    | Obs.Json.Obj fields ->
      Obs.Json.Obj
        (List.concat_map
           (fun (k, v) ->
             if String.equal k "mesh_height" then
               [
                 (k, v);
                 ( "hierarchy",
                   Obs.Json.Obj
                     [
                       ("chiplets_x", Obs.Json.Int 1);
                       ("chiplets_y", Obs.Json.Int 1);
                       ("link_latency", Obs.Json.Int 99);
                       ("link_bytes", Obs.Json.Int 2);
                     ] );
               ]
             else [ (k, v) ])
           fields)
    | _ -> Alcotest.fail "platform JSON must be an object"
  in
  let q = ok (Platform.of_json degenerate) in
  Alcotest.(check bool) "chiplets normalized away" true
    (q.Platform.topo.Noc.Topology.chiplets = None);
  Alcotest.(check string) "byte-identical to the flat preset"
    (Obs.Json.to_string (Platform.to_json flat))
    (Obs.Json.to_string (Platform.to_json q))

let test_of_file () =
  let p = Platform.default () in
  let path = Filename.temp_file "platform" ".json" in
  let oc = open_out path in
  Obs.Json.to_channel oc (Platform.to_json p);
  close_out oc;
  let q = ok (Platform.of_file path) in
  (* of_spec also accepts a file path *)
  let r = ok (Platform.of_spec path) in
  Sys.remove path;
  Alcotest.(check string) "of_file restores" p.Platform.name q.Platform.name;
  Alcotest.(check string) "of_spec takes a path" p.Platform.name r.Platform.name

(* The mesh bound: 64x64 (4096 nodes) is the largest mesh a preset name
   or a platform file may give; one more row is a one-line error. *)
let test_mesh_bound () =
  let one_line what = function
    | Ok _ -> Alcotest.failf "%s must be rejected" what
    | Error e ->
      Alcotest.(check bool) (what ^ ": one line naming the bound") true
        (Astring.String.is_infix ~affix:"more than 4096 nodes" e
        && not (String.contains e '\n'))
  in
  let file w h =
    let path = Filename.temp_file "platform" ".json" in
    Out_channel.with_open_bin path (fun oc ->
        Printf.fprintf oc {|{"mesh_width": %d, "mesh_height": %d}|} w h);
    let r = Platform.of_spec path in
    Sys.remove path;
    r
  in
  let nodes p = Noc.Topology.nodes p.Platform.topo in
  Alcotest.(check int) "preset 64x64 loads" 4096 (nodes (ok (Platform.of_spec "mesh64x64-mc4")));
  Alcotest.(check int) "file 64x64 loads" 4096 (nodes (ok (file 64 64)));
  Alcotest.(check int) "chiplet16x16 loads" 4096
    (nodes (ok (Platform.of_spec "chiplet16x16-mc4")));
  one_line "preset 64x65" (Platform.of_spec "mesh64x65-mc4");
  one_line "file 64x65" (file 64 65);
  one_line "chiplet16x17" (Platform.of_spec "chiplet16x17-mc4");
  one_line "preset 40000x40000" (Platform.of_spec "mesh40000x40000-mc4");
  (* a product past max_int must not wrap into range *)
  one_line "preset 2^62x4"
    (Platform.of_spec (Printf.sprintf "mesh%dx4-mc4" (max_int / 2 + 1)));
  match
    Platform.of_json
      (Obs.Json.Obj
         [
           ("mesh_width", Obs.Json.Int 8);
           ("mesh_height", Obs.Json.Int 8);
           ( "cluster",
             Obs.Json.Obj
               [ ("cx", Obs.Json.Int 2); ("cy", Obs.Json.Int 2); ("k", Obs.Json.Int max_int) ] );
         ])
  with
  | Ok _ -> Alcotest.fail "max_int controllers per cluster must be rejected"
  | Error e ->
    Alcotest.(check bool) "controller count bounded too" true
      (Astring.String.is_infix ~affix:"more than 4096 controllers" e)

(* A chiplet grid is checked against the node bound before its side is
   multiplied by the 4x4 chiplet tile, so no grid size wraps into range;
   a file's hierarchy must fit its (bounded) mesh. *)
let test_chiplet_bound () =
  let nodes p = Noc.Topology.nodes p.Platform.topo in
  Alcotest.(check int) "chiplet1x256 loads" 4096
    (nodes (ok (Platform.of_spec "chiplet1x256-mc4")));
  let rejected what r =
    match r with
    | Ok _ -> Alcotest.failf "%s must be rejected" what
    | Error e ->
      Alcotest.(check bool) (what ^ ": one line") true
        (e <> "" && not (String.contains e '\n'))
  in
  rejected "chiplet1x257" (Platform.of_spec "chiplet1x257-mc4");
  rejected "chiplet (max_int/2)x1"
    (Platform.of_spec (Printf.sprintf "chiplet%dx1-mc4" (max_int / 2)));
  rejected "hierarchy of max_int chiplets"
    (Platform.of_json
       (Obs.Json.Obj
          [
            ("mesh_width", Obs.Json.Int 64);
            ("mesh_height", Obs.Json.Int 64);
            ( "hierarchy",
              Obs.Json.Obj
                [ ("chiplets_x", Obs.Json.Int max_int); ("chiplets_y", Obs.Json.Int 2) ]
            );
          ]))

(* The bank bound: 65536 banks, and as many channels, across all the
   controllers; a value past it (max_int included) is a one-line error,
   not an allocation. *)
let test_bank_bound () =
  let platform fields =
    Platform.of_json
      (Obs.Json.Obj
         ([ ("mesh_width", Obs.Json.Int 8); ("mesh_height", Obs.Json.Int 8) ]
         @ List.map (fun (k, v) -> (k, Obs.Json.Int v)) fields))
  in
  let p = ok (platform [ ("banks_per_mc", 16384); ("channels_per_mc", 16384) ]) in
  Alcotest.(check int) "4 controllers of 16384 banks load" 65536
    (Cluster.num_mcs p.Platform.cluster * p.Platform.banks_per_mc);
  List.iter
    (fun (what, fields) ->
      match platform fields with
      | Ok _ -> Alcotest.failf "%s must be rejected" what
      | Error e ->
        Alcotest.(check bool) (what ^ ": one line naming the bound") true
          (Astring.String.is_infix ~affix:"more than 65536 banks or channels" e
          && not (String.contains e '\n')))
    [
      ("16385 banks", [ ("banks_per_mc", 16385) ]);
      ("16385 channels", [ ("channels_per_mc", 16385) ]);
      ("max_int banks", [ ("banks_per_mc", max_int) ]);
      ("max_int channels", [ ("channels_per_mc", max_int) ]);
    ]

(* A platform file's interleaving reaches the simulator and the pass
   (p = one page in elements) unless --interleave overrides it. *)
let test_build_keeps_file_interleaving () =
  let page = { (Platform.default ()) with interleaving = Page_interleaved } in
  let path = Filename.temp_file "platform" ".json" in
  Out_channel.with_open_bin path (fun oc ->
      Obs.Json.to_channel oc (Platform.to_json page));
  let check ?interleave expected p_elems =
    let cfg = ok (Sim.Config.build ~platform:path ?interleave ()) in
    Alcotest.(check bool) "interleaving" true (Sim.Config.interleaving cfg = expected);
    Alcotest.(check int) "p in elements" p_elems
      (Sim.Config.customize_config cfg).Core.Customize.p_elems
  in
  check Platform.Page_interleaved (4096 / 8);
  check ~interleave:"line" Platform.Line_interleaved (256 / 8);
  Sys.remove path

(* each document with the error it must give: a misspelt key at any
   level is named, never ignored *)
let test_of_json_garbage () =
  List.iter
    (fun (doc, expected) ->
      match Result.bind (Obs.Json.of_string doc) Platform.of_json with
      | Ok _ -> Alcotest.failf "%s must be rejected" doc
      | Error e -> Alcotest.(check string) doc expected e)
    [
      ({|"nope"|}, "platform must be an object");
      ( {|{"mesh_width":8,"mesh_height":8,"clustr":"M2"}|},
        {|unknown platform field "clustr"|} );
      ( {|{"mesh_width":8,"mesh_height":8,"cluster":{"cx":2,"cy":2,"kk":1}}|},
        {|cluster: unknown cluster field "kk"|} );
      ( {|{"mesh_width":8,"mesh_height":8,
           "placement":{"sites":[[0,0],[7,0],[0,7],[7,7]],"site":[]}}|},
        {|placement: unknown placement field "site"|} );
    ]

(* --- calibration ------------------------------------------------------- *)

let stats_with ~queue_cycles ~finish =
  (* the shape simulate --stats-json / sweep results use *)
  Obs.Json.Obj
    [
      ( "stats",
        Obs.Json.Obj
          [
            ( "metrics",
              Obs.Json.Obj
                [
                  ( "counters",
                    Obs.Json.Obj [ ("mem.queue_cycles", Obs.Json.Int queue_cycles) ] );
                  ( "gauges",
                    Obs.Json.Obj [ ("sim.finish_time", Obs.Json.Int finish) ] );
                ] );
          ] );
    ]

let test_bank_pressure_of_stats () =
  match Mapping_select.bank_pressure_of_stats (stats_with ~queue_cycles:5000 ~finish:1000) with
  | Ok p -> Alcotest.(check (float 1e-9)) "queue_cycles/finish" 5.0 p
  | Error e -> Alcotest.fail e

let test_bank_pressure_errors () =
  (match Mapping_select.bank_pressure_of_stats (Obs.Json.Obj []) with
  | Ok _ -> Alcotest.fail "missing metrics must be an error"
  | Error _ -> ());
  match Mapping_select.bank_pressure_of_stats (stats_with ~queue_cycles:1 ~finish:0) with
  | Ok _ -> Alcotest.fail "zero finish time must be an error"
  | Error _ -> ()

(* --- permutation invariance of the choice (qcheck) --------------------- *)

let prop_choice_permutation_invariant =
  let topo = Noc.Topology.make ~width:8 ~height:8 () in
  let base = ok (Platform.of_spec "mesh8x8-mc16") in
  let candidates =
    List.map
      (fun (q : Platform.t) -> (q.Platform.cluster, q.Platform.placement))
      (Platform.candidates base)
  in
  let gen =
    QCheck.Gen.(
      let* pressure = float_range 0.0 25.0 in
      let* order = shuffle_l candidates in
      return (pressure, order))
  in
  let print (p, order) =
    Printf.sprintf "pressure=%.3f order=%s" p
      (String.concat ","
         (List.map (fun (c, _) -> c.Cluster.name) order))
  in
  QCheck.Test.make
    ~name:"choose_opt is invariant under candidate permutation" ~count:200
    (QCheck.make ~print gen)
    (fun (pressure, order) ->
      let name cs =
        match Mapping_select.choose_opt topo ~candidates:cs ~bank_pressure:pressure with
        | Some (c, _) -> c.Cluster.name
        | None -> "<none>"
      in
      String.equal (name candidates) (name order))

let suite =
  [
    ( "core.platform",
      [
        Alcotest.test_case "default preset" `Quick test_default_preset;
        Alcotest.test_case "of_spec presets" `Quick test_of_spec_presets;
        Alcotest.test_case "chiplet presets" `Quick test_chiplet_presets;
        Alcotest.test_case "of_spec errors" `Quick test_of_spec_errors;
        Alcotest.test_case "candidate budget" `Quick test_candidates_respect_budget;
        Alcotest.test_case "candidate dedupe (extras)" `Quick
          test_candidate_dedupe;
        Alcotest.test_case "with_mapping" `Quick test_with_mapping;
        Alcotest.test_case "JSON round-trip" `Quick test_json_roundtrip;
        Alcotest.test_case "malformed hierarchy rejected" `Quick
          test_of_json_bad_hierarchy;
        Alcotest.test_case "1x1 hierarchy is the flat machine" `Quick
          test_degenerate_hierarchy_is_flat;
        Alcotest.test_case "of_file / of_spec path" `Quick test_of_file;
        Alcotest.test_case "mesh bound" `Quick test_mesh_bound;
        Alcotest.test_case "chiplet bound" `Quick test_chiplet_bound;
        Alcotest.test_case "bank bound" `Quick test_bank_bound;
        Alcotest.test_case "Config.build keeps the file's interleaving" `Quick
          test_build_keeps_file_interleaving;
        Alcotest.test_case "garbage JSON rejected" `Quick test_of_json_garbage;
        Alcotest.test_case "bank pressure from stats" `Quick
          test_bank_pressure_of_stats;
        Alcotest.test_case "bank pressure errors" `Quick test_bank_pressure_errors;
        QCheck_alcotest.to_alcotest prop_choice_permutation_invariant;
        QCheck_alcotest.to_alcotest prop_hierarchy_json_roundtrip;
      ] );
  ]
