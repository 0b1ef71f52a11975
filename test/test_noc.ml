(* Tests for the NoC substrate: topology, XY routing, placements, and the
   link-contention model. *)

module Coord = Noc.Coord
module Topology = Noc.Topology
module Placement = Noc.Placement
module Network = Noc.Network

let topo8 = Topology.make ~width:8 ~height:8 ()

let ok = function Ok v -> v | Error e -> failwith e

let test_node_coord_roundtrip () =
  for n = 0 to Topology.nodes topo8 - 1 do
    Alcotest.(check int) "roundtrip" n
      (Topology.node_of_coord topo8 (Topology.coord_of_node topo8 n))
  done

let test_distance () =
  let n00 = Topology.node_of_coord topo8 (Coord.make 0 0) in
  let n77 = Topology.node_of_coord topo8 (Coord.make 7 7) in
  Alcotest.(check int) "corner to corner" 14 (Topology.distance topo8 n00 n77);
  Alcotest.(check int) "self" 0 (Topology.distance topo8 n00 n00);
  (* the coordinate-free arithmetic is the Manhattan distance of the
     nodes' coordinates, on non-square meshes too *)
  List.iter
    (fun (width, height) ->
      let t = Topology.make ~width ~height () in
      let n = Topology.nodes t in
      for a = 0 to n - 1 do
        for b = 0 to n - 1 do
          Alcotest.(check int) "manhattan"
            (Coord.manhattan (Topology.coord_of_node t a) (Topology.coord_of_node t b))
            (Topology.distance t a b)
        done
      done)
    [ (5, 3); (1, 7); (12, 12) ]

let prop_route_length =
  let arb =
    QCheck.make
      ~print:(fun (a, b) -> Printf.sprintf "%d->%d" a b)
      QCheck.Gen.(pair (int_range 0 63) (int_range 0 63))
  in
  QCheck.Test.make ~name:"XY route length = manhattan distance" ~count:500 arb
    (fun (src, dst) ->
      Array.length (Topology.link_ids topo8 ~src ~dst)
      = Topology.distance topo8 src dst)

(* the link a dense id names, found by enumerating every (node, dir) *)
let link_of_id topo =
  let links = Hashtbl.create 256 in
  for n = 0 to Topology.nodes topo - 1 do
    List.iter
      (fun dir ->
        let l = { Topology.from_node = n; dir } in
        Hashtbl.replace links (Topology.link_id topo l) l)
      Topology.[ East; West; North; South ]
  done;
  Hashtbl.find links

let route topo ~src ~dst =
  List.map (link_of_id topo) (Array.to_list (Topology.link_ids topo ~src ~dst))

let prop_route_valid =
  let arb =
    QCheck.make
      ~print:(fun (a, b) -> Printf.sprintf "%d->%d" a b)
      QCheck.Gen.(pair (int_range 0 63) (int_range 0 63))
  in
  QCheck.Test.make ~name:"XY route: X links first, then Y, ends at dst" ~count:500
    arb
    (fun (src, dst) ->
      let route = route topo8 ~src ~dst in
      let is_x l = l.Topology.dir = Topology.East || l.Topology.dir = Topology.West in
      let rec check_order seen_y = function
        | [] -> true
        | l :: r ->
          if is_x l then (not seen_y) && check_order false r
          else check_order true r
      in
      let step n (l : Topology.link) =
        assert (l.Topology.from_node = n);
        match l.Topology.dir with
        | Topology.East -> n + 1
        | Topology.West -> n - 1
        | Topology.South -> n + 8
        | Topology.North -> n - 8
      in
      check_order false route && List.fold_left step src route = dst)

let test_link_ids_distinct () =
  let ids = ref [] in
  for n = 0 to Topology.nodes topo8 - 1 do
    List.iter
      (fun dir ->
        let id = Topology.link_id topo8 { Topology.from_node = n; dir } in
        Alcotest.(check bool) "id in range" true
          (id >= 0 && id < Topology.num_link_ids topo8);
        ids := id :: !ids)
      Topology.[ East; West; North; South ]
  done;
  Alcotest.(check int) "distinct ids" (List.length !ids)
    (List.length (List.sort_uniq compare !ids))

(* P1 as every 4-controller preset builds it: the corners, MC j nearest
   cluster j's centroid *)
let p1 () = (Core.Platform.default ()).Core.Platform.placement

let test_placements () =
  let p1 = p1 () in
  Alcotest.(check int) "P1 has 4 MCs" 4 (Placement.count p1);
  let p2 = Placement.edge_centers topo8 in
  let p3 = Placement.top_bottom topo8 in
  (* P2 has the lowest average distance to the nearest controller *)
  Alcotest.(check bool) "P2 beats P1" true
    (Placement.avg_distance p2 topo8 < Placement.avg_distance p1 topo8);
  Alcotest.(check bool) "P2 beats P3" true
    (Placement.avg_distance p2 topo8 <= Placement.avg_distance p3 topo8)

let test_nearest () =
  let p1 = p1 () in
  let at x y = Topology.node_of_coord topo8 (Coord.make x y) in
  (* corners order: assign puts MC0 at NW *)
  let m = Placement.nearest p1 topo8 (at 1 1) in
  Alcotest.(check int) "NW node goes to the NW corner MC"
    (Topology.node_of_coord topo8 (Coord.make 0 0))
    (Placement.mc_node p1 m)

let test_assign_alignment () =
  (* assign keeps MC index <-> centroid correspondence: MC j lands on the
     site closest to centroid j (greedy) *)
  let sites = [| Coord.make 0 0; Coord.make 7 0; Coord.make 0 7; Coord.make 7 7 |] in
  let centroids = [| Coord.make 6 6; Coord.make 1 1; Coord.make 6 1; Coord.make 1 6 |] in
  let p = ok (Placement.assign_result topo8 ~name:"t" ~sites ~centroids) in
  Alcotest.(check int) "MC0 at SE" (Topology.node_of_coord topo8 (Coord.make 7 7))
    (Placement.mc_node p 0);
  Alcotest.(check int) "MC1 at NW" (Topology.node_of_coord topo8 (Coord.make 0 0))
    (Placement.mc_node p 1)

(* --- assignment properties (qcheck) --- *)

(* Random assignment instances: n centroids anywhere in the mesh, and a
   shuffled subset of the perimeter (at least n sites) to place on. *)
let assign_arb =
  let gen =
    QCheck.Gen.(
      let* n = int_range 2 8 in
      let* extra = int_range 0 8 in
      let* perm =
        shuffle_l (Array.to_list (Placement.pool_sites topo8 Placement.Perimeter))
      in
      let* centroids =
        list_repeat n (map (fun (x, y) -> Coord.make x y)
                         (pair (int_range 0 7) (int_range 0 7)))
      in
      let sites = List.filteri (fun i _ -> i < n + extra) perm in
      return (Array.of_list sites, Array.of_list centroids))
  in
  QCheck.make
    ~print:(fun (sites, centroids) ->
      let s a =
        String.concat ";"
          (Array.to_list
             (Array.map (fun c -> Printf.sprintf "(%d,%d)" c.Coord.x c.Coord.y) a))
      in
      Printf.sprintf "sites=%s centroids=%s" (s sites) (s centroids))
    gen

let placement_sites p =
  Array.map (Topology.coord_of_node topo8) p.Placement.nodes

(* The 2-opt refinement stops at a local optimum: no exchange of two
   controllers' sites lowers the total centroid distance. *)
let prop_twoopt_local_optimum =
  QCheck.Test.make ~name:"assign: no pairwise swap lowers the centroid distance"
    ~count:300 assign_arb (fun (sites, centroids) ->
      let chosen =
        placement_sites (ok (Placement.assign_result topo8 ~name:"r" ~sites ~centroids))
      in
      let d m s = Coord.manhattan centroids.(m) s in
      let n = Array.length centroids in
      List.for_all
        (fun a ->
          List.for_all
            (fun b ->
              a >= b
              || d a chosen.(a) + d b chosen.(b) <= d a chosen.(b) + d b chosen.(a))
            (List.init n Fun.id))
        (List.init n Fun.id))

(* The refinement permutes site assignments but never forgets the
   MC-index <-> cluster-index correspondence the interleaved layout needs:
   one distinct site per centroid, every site drawn from the given set. *)
let prop_assign_correspondence =
  QCheck.Test.make ~name:"assign: one distinct in-set site per MC" ~count:300
    assign_arb (fun (sites, centroids) ->
      let p = ok (Placement.assign_result topo8 ~name:"c" ~sites ~centroids) in
      let chosen = placement_sites p in
      Placement.count p = Array.length centroids
      && Array.for_all
           (fun c -> Array.exists (Coord.equal c) sites)
           chosen
      &&
      let distinct = ref true in
      Array.iteri
        (fun i a ->
          Array.iteri
            (fun j b -> if i < j && Coord.equal a b then distinct := false)
            chosen)
        chosen;
      !distinct)

(* Every neighborhood move is legal, and the enumeration is deterministic. *)
let prop_neighborhood_legal =
  QCheck.Test.make ~name:"neighborhood: all moves legal, order stable"
    ~count:100 assign_arb (fun (sites, centroids) ->
      let p = ok (Placement.assign_result topo8 ~name:"n" ~sites ~centroids) in
      let state = placement_sites p in
      let pool = Placement.pool_sites topo8 Placement.Perimeter in
      let moves = Placement.neighborhood ~pool ~sites:state in
      moves = Placement.neighborhood ~pool ~sites:state
      && List.for_all
           (fun m ->
             match Placement.apply_move_result topo8 ~sites:state m with
             | Ok next ->
               (* a move changes the state but never its size *)
               Array.length next = Array.length state && next <> state
             | Error _ -> false)
           moves)

(* --- chiplet level --- *)

let chip_grid =
  { Topology.grid_x = 2; grid_y = 2; link_latency = 12; link_bytes = 8 }

let topo_chip = Topology.make ~chiplets:chip_grid ~width:8 ~height:8 ()

let test_chiplet_indexing () =
  Alcotest.(check int) "flat mesh has one chiplet" 1 (Topology.num_chiplets topo8);
  Alcotest.(check int) "2x2 grid has four" 4 (Topology.num_chiplets topo_chip);
  let at x y = Topology.node_of_coord topo_chip (Coord.make x y) in
  (* row-major chiplet indices over 4x4 tiles *)
  Alcotest.(check int) "NW tile" 0 (Topology.chiplet_of_node topo_chip (at 0 0));
  Alcotest.(check int) "NE tile" 1 (Topology.chiplet_of_node topo_chip (at 4 0));
  Alcotest.(check int) "SW tile" 2 (Topology.chiplet_of_node topo_chip (at 0 7));
  Alcotest.(check int) "SE tile" 3 (Topology.chiplet_of_node topo_chip (at 7 7));
  Alcotest.(check int) "interior stays home" 0
    (Topology.chiplet_of_node topo_chip (at 3 3));
  Alcotest.(check int) "flat nodes all map to 0" 0
    (Topology.chiplet_of_node topo8 (Topology.nodes topo8 - 1))

let test_chiplet_hops () =
  let at x y = Topology.node_of_coord topo_chip (Coord.make x y) in
  (* chiplet-grid manhattan distance = boundary crossings under XY *)
  Alcotest.(check int) "within a chiplet" 0
    (Topology.chiplet_hops topo_chip (at 0 0) (at 3 3));
  Alcotest.(check int) "one crossing east" 1
    (Topology.chiplet_hops topo_chip (at 3 0) (at 4 0));
  Alcotest.(check int) "diagonal crosses twice" 2
    (Topology.chiplet_hops topo_chip (at 0 0) (at 7 7));
  Alcotest.(check int) "flat mesh never crosses" 0
    (Topology.chiplet_hops topo8 0 63);
  (* crossing count is a lower bound refined by the actual route *)
  List.iter
    (fun (src, dst) ->
      let crossings =
        List.length
          (List.filter
             (Topology.link_crosses_chiplet topo_chip)
             (route topo_chip ~src ~dst))
      in
      Alcotest.(check int)
        (Printf.sprintf "route %d->%d crossings" src dst)
        (Topology.chiplet_hops topo_chip src dst)
        crossings)
    [ (0, 63); (63, 0); (7, 56); (27, 36); (0, 7); (12, 51) ]

let test_chiplet_normalization () =
  (* a 1x1 grid is the flat machine, structurally *)
  let degenerate =
    Topology.make
      ~chiplets:
        { Topology.grid_x = 1; grid_y = 1; link_latency = 99; link_bytes = 2 }
      ~width:8 ~height:8 ()
  in
  Alcotest.(check bool) "1x1 grid normalizes to None" true
    (degenerate = topo8 && degenerate.Topology.chiplets = None);
  (* chiplets_result rejects the malformed grids with a value *)
  List.iter
    (fun (label, gx, gy, lat, by) ->
      match
        Topology.chiplets_result topo8 ~grid_x:gx ~grid_y:gy ~link_latency:lat
          ~link_bytes:by
      with
      | Ok _ -> Alcotest.failf "%s must be rejected" label
      | Error e ->
        Alcotest.(check bool) (label ^ " error non-empty") true
          (String.length e > 0))
    [
      ("non-dividing grid", 3, 3, 12, 8);
      ("zero grid", 0, 2, 12, 8);
      ("zero latency", 2, 2, 0, 8);
      ("zero width", 2, 2, 12, 0);
    ]

let test_network_chiplet_link_class () =
  let flat = Network.create topo8 in
  let hier = Network.create topo_chip in
  let at topo x y = Topology.node_of_coord topo (Coord.make x y) in
  (* a route confined to one chiplet is charged exactly like the flat mesh *)
  let a_flat =
    Network.transfer flat ~now:0 ~src:(at topo8 0 0) ~dst:(at topo8 3 3) ~bytes:8
  in
  let a_conf =
    Network.transfer hier ~now:0 ~src:(at topo_chip 0 0) ~dst:(at topo_chip 3 3)
      ~bytes:8
  in
  Alcotest.(check int) "on-die route charged as flat" a_flat a_conf;
  (* a crossing route pays the inter-chiplet latency: strictly slower *)
  let a_flat_x =
    Network.transfer flat ~now:0 ~src:(at topo8 3 0) ~dst:(at topo8 4 0) ~bytes:8
  in
  let a_cross =
    Network.transfer hier ~now:0 ~src:(at topo_chip 3 0) ~dst:(at topo_chip 4 0)
      ~bytes:8
  in
  Alcotest.(check bool)
    (Printf.sprintf "crossing link slower (%d > %d)" a_cross a_flat_x)
    true (a_cross > a_flat_x);
  (* the narrow inter-chiplet link also serializes wide messages harder *)
  let small =
    Network.transfer (Network.create topo_chip) ~now:0 ~src:(at topo_chip 3 0)
      ~dst:(at topo_chip 4 0) ~bytes:8
  in
  let wide =
    Network.transfer (Network.create topo_chip) ~now:0 ~src:(at topo_chip 3 0)
      ~dst:(at topo_chip 4 0) ~bytes:64
  in
  Alcotest.(check bool)
    (Printf.sprintf "8-byte link serializes 64 B (%d > %d)" wide small)
    true (wide > small)

let test_neighborhood_on_chiplets () =
  let sites = [| Coord.make 0 0; Coord.make 7 0; Coord.make 0 7; Coord.make 7 7 |] in
  let pool = Placement.pool_sites topo8 Placement.Perimeter in
  let flat_moves = Placement.neighborhood ~pool ~sites in
  let ordered = Placement.neighborhood_on topo_chip ~pool ~sites in
  (* same move set, chiplet-confined moves enumerated first *)
  Alcotest.(check int) "same move count" (List.length flat_moves)
    (List.length ordered);
  Alcotest.(check bool) "same move set" true
    (List.sort compare flat_moves = List.sort compare ordered);
  let chiplet = Topology.chiplet_of_coord topo_chip in
  let crosses = function
    | Placement.Relocate { mc; site } -> chiplet site <> chiplet sites.(mc)
    | Placement.Swap { a; b } -> chiplet sites.(a) <> chiplet sites.(b)
  in
  let rec confined_prefix = function
    | [] -> true
    | m :: rest ->
      if crosses m then List.for_all crosses rest else confined_prefix rest
  in
  Alcotest.(check bool) "confined moves lead" true (confined_prefix ordered);
  (* on a flat mesh the ordering is untouched *)
  Alcotest.(check bool) "flat order unchanged" true
    (Placement.neighborhood_on topo8 ~pool ~sites = flat_moves)

(* --- move operators and site pools --- *)

let test_site_pools () =
  Alcotest.(check int) "perimeter 8x8" 28
    (Array.length (Placement.pool_sites topo8 Placement.Perimeter));
  Alcotest.(check int) "flip-chip 8x8 = all nodes" 64
    (Array.length (Placement.pool_sites topo8 Placement.Flip_chip));
  (match Placement.pool_of_string "flip-chip" with
  | Ok Placement.Flip_chip -> ()
  | _ -> Alcotest.fail "flip-chip should parse");
  (match Placement.pool_of_string "perimeter" with
  | Ok Placement.Perimeter -> ()
  | _ -> Alcotest.fail "perimeter should parse");
  match Placement.pool_of_string "nope" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown pool should be an error"

let test_moves () =
  let sites = [| Coord.make 0 0; Coord.make 7 0 |] in
  (* swap exchanges, leaving the input untouched *)
  (match
     Placement.apply_move_result topo8 ~sites (Placement.Swap { a = 0; b = 1 })
   with
  | Ok next ->
    Alcotest.(check bool) "swapped" true
      (Coord.equal next.(0) (Coord.make 7 0) && Coord.equal next.(1) (Coord.make 0 0));
    Alcotest.(check bool) "input intact" true (Coord.equal sites.(0) (Coord.make 0 0))
  | Error e -> Alcotest.fail e);
  (* relocate moves one MC to a free site *)
  (match
     Placement.apply_move_result topo8 ~sites
       (Placement.Relocate { mc = 1; site = Coord.make 3 7 })
   with
  | Ok next -> Alcotest.(check bool) "relocated" true (Coord.equal next.(1) (Coord.make 3 7))
  | Error e -> Alcotest.fail e);
  (* the error cases are values, not exceptions *)
  let expect_error name = function
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s should be an error" name
  in
  expect_error "self-swap"
    (Placement.apply_move_result topo8 ~sites (Placement.Swap { a = 1; b = 1 }));
  expect_error "swap out of range"
    (Placement.apply_move_result topo8 ~sites (Placement.Swap { a = 0; b = 9 }));
  expect_error "occupied target"
    (Placement.apply_move_result topo8 ~sites
       (Placement.Relocate { mc = 0; site = Coord.make 7 0 }));
  expect_error "off-mesh target"
    (Placement.apply_move_result topo8 ~sites
       (Placement.Relocate { mc = 0; site = Coord.make 9 9 }))

(* --- network contention --- *)

let test_network_unloaded () =
  let net = Network.create topo8 in
  Alcotest.(check int) "arrival = now + hops*4 (1 flit)" (100 + (7 * 4))
    (Network.transfer net ~now:100 ~src:0 ~dst:7 ~bytes:8)

let test_network_serialization () =
  let net = Network.create topo8 in
  (* 264 bytes over 16-byte links = 17 flits: body pipelines behind header *)
  Alcotest.(check int) "arrival includes serialization" (4 + 16)
    (Network.transfer net ~now:0 ~src:0 ~dst:1 ~bytes:264)

let test_network_contention () =
  let net = Network.create topo8 in
  let a1 = Network.transfer net ~now:0 ~src:0 ~dst:1 ~bytes:264 in
  let a2 = Network.transfer net ~now:0 ~src:0 ~dst:1 ~bytes:264 in
  Alcotest.(check int) "first unqueued" (4 + 16) a1;
  Alcotest.(check bool) "second waits for the link" true (a2 > a1);
  (* disjoint paths do not contend *)
  Alcotest.(check int) "disjoint path unaffected" (4 + 16)
    (Network.transfer net ~now:0 ~src:56 ~dst:57 ~bytes:264)

let test_network_same_node () =
  let net = Network.create topo8 in
  Alcotest.(check int) "instant local delivery" 42
    (Network.transfer net ~now:42 ~src:5 ~dst:5 ~bytes:264)

let test_network_link_busy () =
  let net = Network.create topo8 in
  ignore (Network.transfer net ~now:0 ~src:0 ~dst:7 ~bytes:264);
  (* 17 flits reserved on each of the 7 links of the route *)
  Alcotest.(check int) "busy cycles on the route" (7 * 17)
    (Array.fold_left ( + ) 0 (Network.link_busy net));
  Array.iter
    (fun id -> Alcotest.(check int) "route link busy" 17 (Network.link_busy net).(id))
    (Topology.link_ids topo8 ~src:0 ~dst:7)

let qsuite = List.map QCheck_alcotest.to_alcotest

let suite =
  [
    ( "noc.topology",
      [
        Alcotest.test_case "node/coord roundtrip" `Quick test_node_coord_roundtrip;
        Alcotest.test_case "distance" `Quick test_distance;
        Alcotest.test_case "link ids" `Quick test_link_ids_distinct;
        Alcotest.test_case "chiplet indexing" `Quick test_chiplet_indexing;
        Alcotest.test_case "chiplet hops" `Quick test_chiplet_hops;
        Alcotest.test_case "1x1 grid normalization" `Quick
          test_chiplet_normalization;
      ]
      @ qsuite [ prop_route_length; prop_route_valid ] );
    ( "noc.placement",
      [
        Alcotest.test_case "P1/P2/P3" `Quick test_placements;
        Alcotest.test_case "nearest" `Quick test_nearest;
        Alcotest.test_case "assign alignment" `Quick test_assign_alignment;
        Alcotest.test_case "site pools" `Quick test_site_pools;
        Alcotest.test_case "move operators" `Quick test_moves;
        Alcotest.test_case "chiplet-aware neighborhood" `Quick
          test_neighborhood_on_chiplets;
      ]
      @ qsuite
          [
            prop_twoopt_local_optimum;
            prop_assign_correspondence;
            prop_neighborhood_legal;
          ] );
    ( "noc.network",
      [
        Alcotest.test_case "unloaded latency" `Quick test_network_unloaded;
        Alcotest.test_case "serialization" `Quick test_network_serialization;
        Alcotest.test_case "contention" `Quick test_network_contention;
        Alcotest.test_case "local delivery" `Quick test_network_same_node;
        Alcotest.test_case "link busy" `Quick test_network_link_busy;
        Alcotest.test_case "inter-chiplet link class" `Quick
          test_network_chiplet_link_class;
      ] );
  ]
