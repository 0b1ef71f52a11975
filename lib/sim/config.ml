type l2_org = Core.Customize.l2_kind = Private_l2 | Shared_l2

type page_policy = Hardware | First_touch | Mc_aware

type t = {
  platform : Core.Platform.t;
  l2_org : l2_org;
  page_policy : page_policy;
  l1_size : int;
  l1_line : int;
  l1_ways : int;
  l2_size : int;
  l2_ways : int;
  l1_latency : int;
  l2_latency : int;
  directory_latency : int;
  noc : Noc.Network.config;
  timing : Dram.Timing.t;
  mc_scheduler : Dram.Fr_fcfs.scheduler;
  mc_row_policy : Dram.Fr_fcfs.row_policy;
  compute_cycles : int;
  jitter : bool;
  threads_per_core : int;
  optimal : bool;
  frames_per_mc : int;
  seed : int;
}

(* Platform accessors: the simulation layers read the machine description
   through these so there is exactly one source of truth for it. *)

let platform t = t.platform

let topo t = t.platform.Core.Platform.topo

let cluster t = t.platform.Core.Platform.cluster

let placement t = t.platform.Core.Platform.placement

let interleaving t = t.platform.Core.Platform.interleaving

let l2_line t = t.platform.Core.Platform.line_bytes

let page_bytes t = t.platform.Core.Platform.page_bytes

let elem_bytes t = t.platform.Core.Platform.elem_bytes

let banks_per_mc t = t.platform.Core.Platform.banks_per_mc

let channels_per_mc t = t.platform.Core.Platform.channels_per_mc

let num_mcs t = Core.Platform.num_mcs t.platform

let make_default ~l1_size ~l2_size =
  {
    platform = Core.Platform.default ();
    l2_org = Private_l2;
    page_policy = Hardware;
    l1_size;
    l1_line = 64;
    l1_ways = 2;
    l2_size;
    l2_ways = (if l2_size >= 65536 then 16 else 4);
    l1_latency = 2;
    l2_latency = 10;
    directory_latency = 3;
    noc = Noc.Network.default_config;
    timing = Dram.Timing.ddr3_1600;
    mc_scheduler = Dram.Fr_fcfs.Fr_fcfs;
    mc_row_policy = Dram.Fr_fcfs.Open_page;
    compute_cycles = 16;
    jitter = true;
    threads_per_core = 1;
    optimal = false;
    frames_per_mc = 1 lsl 18;
    seed = 0;
  }

let default () = make_default ~l1_size:(16 * 1024) ~l2_size:(256 * 1024)

(* Shrunk caches, same line sizes: keeps the workload models' scaled-down
   working sets comfortably larger than the aggregate L2. *)
let scaled () = make_default ~l1_size:4096 ~l2_size:16384

let with_platform t platform = { t with platform }

let with_cluster t cluster =
  Result.map
    (fun platform -> { t with platform })
    (Core.Platform.with_cluster t.platform cluster)

let with_placement t placement =
  let p = t.platform in
  if Noc.Placement.count placement <> Core.Platform.num_mcs p then
    Error
      (Printf.sprintf "placement %s has %d sites for %d controllers"
         placement.Noc.Placement.name
         (Noc.Placement.count placement)
         (Core.Platform.num_mcs p))
  else Ok { t with platform = { p with Core.Platform.placement } }

let with_interleaving t interleaving =
  { t with platform = { t.platform with Core.Platform.interleaving } }

let with_channels_per_mc t channels_per_mc =
  { t with platform = { t.platform with Core.Platform.channels_per_mc } }

let address_map t =
  Dram.Address_map.make ~interleaving:(interleaving t) ~line_bytes:(l2_line t)
    ~page_bytes:(page_bytes t) ~num_mcs:(num_mcs t)
    ~banks_per_mc:(banks_per_mc t) ()

let customize_config t =
  {
    Core.Customize.cluster = cluster t;
    topo = topo t;
    placement = placement t;
    l2 = t.l2_org;
    p_elems = Core.Platform.granule_bytes t.platform / elem_bytes t;
    elem_bytes = elem_bytes t;
  }

(* the mesh<W>x<H>-mc4 machine, keeping [t]'s address-map parameters *)
let mesh ~width ~height t =
  let ( let* ) = Result.bind in
  let topo = Noc.Topology.make ~width ~height () in
  let* cluster = Core.Cluster.m1 ~width ~height in
  let* placement = Core.Platform.placement_for topo cluster in
  let name = Printf.sprintf "mesh%dx%d-mc4" width height in
  Ok { t with platform = { t.platform with name; topo; cluster; placement } }

(* the one spelling of each simulation-side choice *)
let l2_orgs = [ ("private", Private_l2); ("shared", Shared_l2) ]

let page_policies =
  [ ("hardware", Hardware); ("first-touch", First_touch); ("mc-aware", Mc_aware) ]

let of_name what table s =
  match List.assoc_opt s table with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "unknown %s %s" what s)

let name_of table v = fst (List.find (fun (_, x) -> x = v) table)

(* Shared CLI/spec-facing builder: every choice is a plain string or scalar
   so `simulate`, `occ` and sweep specs validate configurations the same
   way and report the same one-line errors.  [platform] "" is the default
   preset; [interleave] and [mapping] "" keep the platform's own. *)
let build ?(scaled = true) ?(platform = "") ?(l2 = "private")
    ?(interleave = "") ?(policy = "hardware") ?(mapping = "") ?(tpc = 1)
    ?(optimal = false) ?(seed = 0) () =
  let ( let* ) = Result.bind in
  let* () =
    if tpc < 1 then Error (Printf.sprintf "threads-per-core must be >= 1 (got %d)" tpc)
    else Ok ()
  in
  let base =
    if scaled then make_default ~l1_size:4096 ~l2_size:16384
    else make_default ~l1_size:(16 * 1024) ~l2_size:(256 * 1024)
  in
  let* platform =
    if platform = "" then Ok base.platform else Core.Platform.of_spec platform
  in
  let* platform = Core.Platform.with_mapping platform mapping in
  let* platform =
    if interleave = "" then Ok platform
    else
      Result.map
        (fun interleaving -> { platform with Core.Platform.interleaving })
        (Dram.Address_map.interleaving_of_string interleave)
  in
  let* l2_org = of_name "L2 organization" l2_orgs l2 in
  let* page_policy = of_name "policy" page_policies policy in
  Ok { base with platform; l2_org; page_policy; threads_per_core = tpc; optimal; seed }

let to_json t =
  let open Obs.Json in
  obj
    ([
      ("mesh_width", Int (topo t).Noc.Topology.width);
      ("mesh_height", Int (topo t).Noc.Topology.height);
    ]
    (* flat configs keep the pre-chiplet document bytes (the seed-0
       golden pins them) *)
    @ Core.Platform.hierarchy_member t.platform
    @ [
      ("l2_org", String (name_of l2_orgs t.l2_org));
      ( "interleaving",
        String (Dram.Address_map.interleaving_to_string (interleaving t)) );
      ("page_policy", String (name_of page_policies t.page_policy));
      ("num_mcs", Int (num_mcs t));
      ("cluster", String (cluster t).Core.Cluster.name);
      ("placement", String (placement t).Noc.Placement.name);
      ("l1_size", Int t.l1_size);
      ("l1_line", Int t.l1_line);
      ("l1_ways", Int t.l1_ways);
      ("l2_size", Int t.l2_size);
      ("l2_line", Int (l2_line t));
      ("l2_ways", Int t.l2_ways);
      ("l1_latency", Int t.l1_latency);
      ("l2_latency", Int t.l2_latency);
      ("directory_latency", Int t.directory_latency);
      ("banks_per_mc", Int (banks_per_mc t));
      ("channels_per_mc", Int (channels_per_mc t));
      ( "mc_scheduler",
        String
          (match t.mc_scheduler with
          | Dram.Fr_fcfs.Fr_fcfs -> "fr-fcfs"
          | Dram.Fr_fcfs.Fcfs -> "fcfs") );
      ( "mc_row_policy",
        String
          (match t.mc_row_policy with
          | Dram.Fr_fcfs.Open_page -> "open-page"
          | Dram.Fr_fcfs.Closed_page -> "closed-page") );
      ("page_bytes", Int (page_bytes t));
      ("elem_bytes", Int (elem_bytes t));
      ("compute_cycles", Int t.compute_cycles);
      ("jitter", Bool t.jitter);
      ("threads_per_core", Int t.threads_per_core);
      ("optimal", Bool t.optimal);
      ("frames_per_mc", Int t.frames_per_mc);
      ("seed", Int t.seed);
    ])

let pp ppf t =
  Format.fprintf ppf
    "@[<v>mesh %dx%d%t, %a, %s L2 (%d B/node, %d B lines), L1 %d B, %s, %d \
     MCs, %d banks/MC@]"
    (topo t).Noc.Topology.width (topo t).Noc.Topology.height
    (fun ppf ->
      match (topo t).Noc.Topology.chiplets with
      | None -> ()
      | Some g ->
        Format.fprintf ppf " (%dx%d chiplets)" g.Noc.Topology.grid_x
          g.Noc.Topology.grid_y)
    Core.Cluster.pp (cluster t)
    (name_of l2_orgs t.l2_org) t.l2_size (l2_line t) t.l1_size
    (match interleaving t with
    | Dram.Address_map.Line_interleaved -> "cache-line interleaved"
    | Dram.Address_map.Page_interleaved -> "page interleaved")
    (num_mcs t) (banks_per_mc t)
