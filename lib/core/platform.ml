type interleaving = Dram.Address_map.interleaving =
  | Line_interleaved
  | Page_interleaved

type t = {
  name : string;
  topo : Noc.Topology.t;
  cluster : Cluster.t;
  placement : Noc.Placement.t;
  interleaving : interleaving;
  line_bytes : int;
  page_bytes : int;
  elem_bytes : int;
  banks_per_mc : int;
  channels_per_mc : int;
}

let ( let* ) = Result.bind

let num_mcs t = Cluster.num_mcs t.cluster

let granule_bytes t =
  match t.interleaving with
  | Line_interleaved -> t.line_bytes
  | Page_interleaved -> t.page_bytes

let corner_sites (topo : Noc.Topology.t) =
  let w = topo.width - 1 and h = topo.height - 1 in
  [|
    Noc.Coord.make 0 0;
    Noc.Coord.make w 0;
    Noc.Coord.make 0 h;
    Noc.Coord.make w h;
  |]

let placement_for ?sites topo (cluster : Cluster.t) =
  let mcs = Cluster.num_mcs cluster in
  let centroids =
    Array.init mcs (fun m ->
        Cluster.centroid_of_cluster cluster (Cluster.cluster_of_mc cluster m))
  in
  match sites with
  | Some sites -> Noc.Placement.assign_result topo ~name:"custom" ~sites ~centroids
  | None ->
    if mcs <= 4 then
      Noc.Placement.assign_result topo ~name:"P1-corners"
        ~sites:(corner_sites topo) ~centroids
    else
      Noc.Placement.for_centroids_result topo
        ~name:(Printf.sprintf "perimeter-%d" mcs)
        ~centroids

(* The largest mesh a platform may have.  The simulator's per-node-pair
   state grows with the square of the node count: simulate apsi peaks
   near 300 MB on a 64x64 mesh and near 1.6 GB on 100x100. *)
let max_nodes = 4096

(* The most DRAM banks, and separately the most channels, a machine may
   have across all its controllers: the controllers keep state per bank
   and per channel, and attribution keeps a per-(site, controller, bank)
   cube.  4096 controllers of the default 16 banks is the largest. *)
let max_banks = 65536

let check_mesh ~name ~width ~height =
  if width < 1 || height < 1 then
    Error (Printf.sprintf "platform %s: bad mesh %dx%d" name width height)
  else if width > max_nodes / height then
    Error
      (Printf.sprintf "platform %s: a %dx%d mesh has more than %d nodes" name
         width height max_nodes)
  else Ok ()

let make_result ?placement ?(interleaving = Line_interleaved)
    ?(line_bytes = 256) ?(page_bytes = 4096) ?(elem_bytes = 8)
    ?(banks_per_mc = 16) ?(channels_per_mc = 4) ~name ~topo
    ~(cluster : Cluster.t) () =
  let* () =
    check_mesh ~name ~width:topo.Noc.Topology.width
      ~height:topo.Noc.Topology.height
  in
  let* () =
    if cluster.Cluster.width <> topo.Noc.Topology.width
       || cluster.Cluster.height <> topo.Noc.Topology.height
    then
      Error
        (Printf.sprintf
           "platform %s: cluster %s is for a %dx%d mesh, topology is %dx%d"
           name cluster.Cluster.name cluster.Cluster.width
           cluster.Cluster.height topo.Noc.Topology.width
           topo.Noc.Topology.height)
    else if cluster.Cluster.k > max_nodes / Cluster.num_clusters cluster then
      Error
        (Printf.sprintf "platform %s: more than %d controllers" name max_nodes)
    else Ok ()
  in
  let* () =
    if elem_bytes <= 0 then
      Error (Printf.sprintf "platform %s: elem_bytes must be positive" name)
    else if line_bytes <= 0 || line_bytes mod elem_bytes <> 0 then
      Error
        (Printf.sprintf
           "platform %s: line_bytes (%d) must be a positive multiple of \
            elem_bytes (%d)"
           name line_bytes elem_bytes)
    else if page_bytes <= 0 || page_bytes mod line_bytes <> 0 then
      Error
        (Printf.sprintf
           "platform %s: page_bytes (%d) must be a positive multiple of \
            line_bytes (%d)"
           name page_bytes line_bytes)
    else if banks_per_mc <= 0 || channels_per_mc <= 0 then
      Error
        (Printf.sprintf
           "platform %s: banks_per_mc and channels_per_mc must be positive"
           name)
    else if
      max banks_per_mc channels_per_mc > max_banks / Cluster.num_mcs cluster
    then
      Error
        (Printf.sprintf
           "platform %s: %d controllers of %d banks and %d channels: more \
            than %d banks or channels"
           name (Cluster.num_mcs cluster) banks_per_mc channels_per_mc
           max_banks)
    else Ok ()
  in
  let* placement =
    match placement with
    | Some (p : Noc.Placement.t) ->
      if Noc.Placement.count p <> Cluster.num_mcs cluster then
        Error
          (Printf.sprintf
             "platform %s: placement %s has %d sites for %d controllers" name
             p.Noc.Placement.name (Noc.Placement.count p)
             (Cluster.num_mcs cluster))
      else Ok p
    | None -> placement_for topo cluster
  in
  Ok
    {
      name;
      topo;
      cluster;
      placement;
      interleaving;
      line_bytes;
      page_bytes;
      elem_bytes;
      banks_per_mc;
      channels_per_mc;
    }

let with_cluster t cluster =
  let* placement = placement_for t.topo cluster in
  Ok { t with cluster; placement }

let with_mapping t spec =
  let width = t.topo.Noc.Topology.width
  and height = t.topo.Noc.Topology.height in
  match spec with
  | "" -> Ok t
  | "M1" | "m1" -> Result.bind (Cluster.m1 ~width ~height) (with_cluster t)
  | "M2" | "m2" -> Result.bind (Cluster.m2 ~width ~height) (with_cluster t)
  | s -> (
    (* "8" and "M1x8" both name the 8-controller configuration — the
       latter is the cluster name selection notes report, so a C002
       decision can be fed back verbatim. *)
    let count =
      match int_of_string_opt s with
      | Some _ as v -> v
      | None when String.length s > 3 ->
        let prefix = String.sub s 0 3 and rest = String.sub s 3 (String.length s - 3) in
        if prefix = "M1x" || prefix = "m1x" then int_of_string_opt rest else None
      | None -> None
    in
    match count with
    | Some mcs when mcs > 0 ->
      Result.bind (Cluster.with_mcs_result ~width ~height ~mcs) (with_cluster t)
    | _ -> Error ("unknown mapping " ^ s))

(* --- candidate enumeration (Section 4 / Fig. 27) ----------------------- *)

let same_geometry (a : Cluster.t) (b : Cluster.t) =
  a.Cluster.cx = b.Cluster.cx && a.Cluster.cy = b.Cluster.cy
  && a.Cluster.k = b.Cluster.k

(* Two candidates describe the same machine when both the cluster grid and
   the controller attachment sites coincide — the cluster *name* is
   presentation (the platform's own mapping can equal a preset, and a
   searched placement can converge back to the preset sites), so it is
   deliberately not part of the identity. *)
let same_machine a b =
  same_geometry a.cluster b.cluster
  && a.placement.Noc.Placement.nodes = b.placement.Noc.Placement.nodes

let candidates ?(extra = []) t =
  let width = t.topo.Noc.Topology.width
  and height = t.topo.Noc.Topology.height in
  let budget = num_mcs t in
  let pool =
    [
      Cluster.m1 ~width ~height;
      Cluster.m2 ~width ~height;
      Cluster.with_mcs_result ~width ~height ~mcs:8;
      Cluster.with_mcs_result ~width ~height ~mcs:16;
    ]
  in
  let viable =
    List.filter_map
      (function
        | Ok (c : Cluster.t) when Cluster.num_mcs c <= budget -> Some c
        | _ -> None)
      pool
  in
  let clusters =
    List.fold_left
      (fun acc c ->
        if List.exists (same_geometry c) acc then acc else acc @ [ c ])
      [ t.cluster ] viable
  in
  let presets =
    List.filter_map
      (fun c ->
        if same_geometry c t.cluster then Some t
        else match with_cluster t c with Ok p -> Some p | Error _ -> None)
      clusters
  in
  (* extras (e.g. searched placements) join the pool but never duplicate a
     machine the preset enumeration already proposes; the C002 cost table
     must not list the same machine twice *)
  let viable_extra =
    List.filter
      (fun (p : t) ->
        p.topo = t.topo && Cluster.num_mcs p.cluster <= budget)
      extra
  in
  List.fold_left
    (fun acc p ->
      if List.exists (same_machine p) acc then acc else acc @ [ p ])
    [] (presets @ viable_extra)

(* --- presets ----------------------------------------------------------- *)

let preset_names =
  [
    "mesh8x8-mc4";
    "mesh8x8-mc8";
    "mesh8x8-mc16";
    "mesh8x8-m2";
    "chiplet2x2-mc4";
    "chiplet2x2-mc8";
  ]

(* Each chiplet of a chiplet<CX>x<CY> preset is a 4x4 tile of cores, so
   chiplet2x2 is the familiar 8x8 mesh partitioned into four NUMA
   domains.  Crossing a die boundary costs 3x the on-die hop latency
   over links half as wide — the asymmetry the chiplet-GPU literature
   models. *)
let chiplet_tile = 4

let chiplet_link_latency = 12

let chiplet_link_bytes = 8

let preset_result name =
  let fail () =
    Error
      (Printf.sprintf
         "unknown platform %S (expected mesh<W>x<H>-{m1|m2|mc<N>} or \
          chiplet<CX>x<CY>-{m1|m2|mc<N>}, e.g. %s, or a platform JSON file)"
         name
         (String.concat ", " preset_names))
  in
  let mapping_of = function
    (* "mc4" is the paper's default M1 mapping (Fig. 8a): four
       controllers, one per quadrant *)
    | "m1" | "mc4" -> Some `M1
    | "m2" -> Some `M2
    | s when String.length s > 2 && String.sub s 0 2 = "mc" -> (
      match int_of_string_opt (String.sub s 2 (String.length s - 2)) with
      | Some mcs when mcs > 0 -> Some (`Mcs mcs)
      | _ -> None)
    | _ -> None
  in
  (* the mesh is checked before the cluster, whose controller-count
     split walks the divisors of the mesh width *)
  let build ?chiplets ~width ~height mapping =
    let* () = check_mesh ~name ~width ~height in
    let topo = Noc.Topology.make ?chiplets ~width ~height () in
    let cluster =
      match mapping with
      | `M1 -> Cluster.m1 ~width ~height
      | `M2 -> Cluster.m2 ~width ~height
      | `Mcs mcs -> Cluster.with_mcs_result ~width ~height ~mcs
    in
    match cluster with
    | Error e -> Error (Printf.sprintf "platform %s: %s" name e)
    | Ok cluster -> make_result ~name ~topo ~cluster ()
  in
  match String.index_opt name '-' with
  | None -> fail ()
  | Some dash ->
    let mesh = String.sub name 0 dash
    and map = String.sub name (dash + 1) (String.length name - dash - 1) in
    let dims prefix =
      let pl = String.length prefix in
      if String.length mesh < pl + 3 || String.sub mesh 0 pl <> prefix then
        None
      else
        match String.index_from_opt mesh pl 'x' with
        | None -> None
        | Some cross -> (
          let w = String.sub mesh pl (cross - pl)
          and h =
            String.sub mesh (cross + 1) (String.length mesh - cross - 1)
          in
          match (int_of_string_opt w, int_of_string_opt h) with
          | Some w, Some h when w >= 1 && h >= 1 -> Some (w, h)
          | _ -> None)
    in
    (match (dims "mesh", dims "chiplet", mapping_of map) with
    | Some (width, height), _, Some mapping -> build ~width ~height mapping
    | None, Some (gx, gy), Some _
      when gx > max_nodes / chiplet_tile / chiplet_tile / gy ->
      Error
        (Printf.sprintf
           "platform %s: a %dx%d chiplet grid has more than %d nodes" name gx
           gy max_nodes)
    | None, Some (gx, gy), Some mapping ->
      let chiplets =
        {
          Noc.Topology.grid_x = gx;
          grid_y = gy;
          link_latency = chiplet_link_latency;
          link_bytes = chiplet_link_bytes;
        }
      in
      build ~chiplets ~width:(gx * chiplet_tile) ~height:(gy * chiplet_tile)
        mapping
    | _ -> fail ())

let default () =
  match preset_result "mesh8x8-mc4" with
  | Ok p -> p
  | Error e ->
    (* the default preset is total by construction *)
    invalid_arg e

(* --- JSON (de)serialization -------------------------------------------- *)

(* the "hierarchy" member exists only on hierarchical platforms: a flat
   platform's document stays byte-identical to what it was before the
   chiplet level existed *)
let hierarchy_member t =
  match t.topo.Noc.Topology.chiplets with
  | None -> []
  | Some g ->
    Obs.Json.
      [
        ( "hierarchy",
          obj
            [
              ("chiplets_x", Int g.Noc.Topology.grid_x);
              ("chiplets_y", Int g.Noc.Topology.grid_y);
              ("link_latency", Int g.Noc.Topology.link_latency);
              ("link_bytes", Int g.Noc.Topology.link_bytes);
            ] );
      ]

let to_json t =
  let open Obs.Json in
  let coord n =
    let c = Noc.Topology.coord_of_node t.topo n in
    List [ Int c.Noc.Coord.x; Int c.Noc.Coord.y ]
  in
  obj
    ([
      ("name", String t.name);
      ("mesh_width", Int t.topo.Noc.Topology.width);
      ("mesh_height", Int t.topo.Noc.Topology.height);
    ]
    @ hierarchy_member t
    @ [
      ( "cluster",
        obj
          [
            ("name", String t.cluster.Cluster.name);
            ("cx", Int t.cluster.Cluster.cx);
            ("cy", Int t.cluster.Cluster.cy);
            ("k", Int t.cluster.Cluster.k);
          ] );
      ( "placement",
        obj
          [
            ("name", String t.placement.Noc.Placement.name);
            ( "sites",
              List
                (Array.to_list
                   (Array.map coord t.placement.Noc.Placement.nodes)) );
          ] );
      ( "interleaving",
        String (Dram.Address_map.interleaving_to_string t.interleaving) );
      ("line_bytes", Int t.line_bytes);
      ("page_bytes", Int t.page_bytes);
      ("elem_bytes", Int t.elem_bytes);
      ("banks_per_mc", Int t.banks_per_mc);
      ("channels_per_mc", Int t.channels_per_mc);
    ])

module D = Obs.Json.Decode

(* an optional sub-object, checked for misspelt keys and decoded, its
   errors prefixed with its name *)
let sub_object what known decode j =
  match Obs.Json.member what j with
  | None -> Ok None
  | Some sub ->
    Result.map_error
      (fun e -> what ^ ": " ^ e)
      (let* () = D.known_fields ~what known sub in
       Result.map Option.some (decode sub))

let of_json j =
  let* () =
    D.known_fields ~what:"platform"
      [ "name"; "mesh_width"; "mesh_height"; "hierarchy"; "cluster";
        "placement"; "interleaving"; "line_bytes"; "page_bytes"; "elem_bytes";
        "banks_per_mc"; "channels_per_mc" ]
      j
  in
  let* name = D.field ~default:"custom" "name" D.string j in
  let* width = D.field "mesh_width" D.int j in
  let* height = D.field "mesh_height" D.int j in
  let* () = check_mesh ~name ~width ~height in
  let topo = Noc.Topology.make ~width ~height () in
  let* hierarchy =
    sub_object "hierarchy"
      [ "chiplets_x"; "chiplets_y"; "link_latency"; "link_bytes" ]
      (fun hj ->
        let* grid_x = D.field "chiplets_x" D.int hj in
        let* grid_y = D.field "chiplets_y" D.int hj in
        let* link_latency =
          D.field ~default:chiplet_link_latency "link_latency" D.int hj
        in
        let* link_bytes = D.field ~default:chiplet_link_bytes "link_bytes" D.int hj in
        Noc.Topology.chiplets_result topo ~grid_x ~grid_y ~link_latency
          ~link_bytes)
      j
  in
  let topo = Option.value hierarchy ~default:topo in
  let* cluster =
    sub_object "cluster" [ "name"; "cx"; "cy"; "k" ]
      (fun cj ->
        let* cname = D.field ~default:"custom" "name" D.string cj in
        let* cx = D.field "cx" D.int cj in
        let* cy = D.field "cy" D.int cj in
        let* k = D.field ~default:1 "k" D.int cj in
        Cluster.make_result ~name:cname ~width ~height ~cx ~cy ~k)
      j
  in
  let* cluster =
    match cluster with Some c -> Ok c | None -> Cluster.m1 ~width ~height
  in
  let* placement =
    sub_object "placement" [ "name"; "sites" ]
      (fun pj ->
        let* pname = D.field ~default:"custom" "name" D.string pj in
        let site ctx = function
          | Obs.Json.List [ Obs.Json.Int x; Obs.Json.Int y ] -> Ok (Noc.Coord.make x y)
          | _ -> Error (ctx ^ " must hold [x, y] pairs")
        in
        let* sites = D.field "sites" (D.list site) pj in
        Noc.Placement.of_coords_result topo pname (Array.of_list sites))
      j
  in
  let* interleaving =
    let* s = D.field ~default:"line" "interleaving" D.string j in
    Dram.Address_map.interleaving_of_string s
  in
  let* line_bytes = D.field ~default:256 "line_bytes" D.int j in
  let* page_bytes = D.field ~default:4096 "page_bytes" D.int j in
  let* elem_bytes = D.field ~default:8 "elem_bytes" D.int j in
  let* banks_per_mc = D.field ~default:16 "banks_per_mc" D.int j in
  let* channels_per_mc = D.field ~default:4 "channels_per_mc" D.int j in
  make_result ?placement ~interleaving ~line_bytes ~page_bytes ~elem_bytes
    ~banks_per_mc ~channels_per_mc ~name ~topo ~cluster ()

let of_file path = Obs.Json.decode_file path of_json

let of_spec spec =
  if Sys.file_exists spec then of_file spec else preset_result spec
