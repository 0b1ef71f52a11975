(* Shared plumbing for the experiment harness: per-app preparation,
   memoized simulation runs, and formatting helpers.

   Every figure/table of the paper is regenerated from combinations of a
   handful of configurations; runs are memoized on a configuration
   signature so that, e.g., the cache-line-interleaved baseline is
   simulated once and reused by Figs. 15, 16, 17 and 18. *)

module Config = Sim.Config
module Engine = Sim.Engine
module Runner = Sim.Runner
module Stats = Sim.Stats
module App = Workloads.App

type app_ctx = {
  app : App.t;
  program : Lang.Ast.program;
  analysis : Lang.Analysis.t;
  index_lookup : string -> int array -> int;
  profile : string -> (Affine.Vec.t * Affine.Vec.t) list;
}

let app_table : (string, app_ctx) Hashtbl.t = Hashtbl.create 16

let ctx_of (app : App.t) =
  match Hashtbl.find_opt app_table app.App.name with
  | Some c -> c
  | None ->
    let program = App.program app in
    let analysis = Lang.Analysis.analyze program in
    let c =
      {
        app;
        program;
        analysis;
        index_lookup = App.index_lookup app;
        profile = (fun a -> Workloads.Profile.for_transform app analysis a);
      }
    in
    Hashtbl.replace app_table app.App.name c;
    c

(* Restrict the suite via OFFCHIP_APPS="apsi,swim" for quick runs. *)
let apps () =
  match Sys.getenv_opt "OFFCHIP_APPS" with
  | None -> Workloads.Suite.all
  | Some s ->
    let names = String.split_on_char ',' s in
    List.map Workloads.Suite.by_name names

let sig_of_cfg (cfg : Config.t) =
  Printf.sprintf "%dx%d/%s/%s/%s/%s/tpc%d/opt%b/l1:%d/l2:%d/cc%d/lk%d/j%b/ch%d/bk%d/rh%d/sd%d"
    (Config.topo cfg).Noc.Topology.width (Config.topo cfg).Noc.Topology.height
    (Config.cluster cfg).Core.Cluster.name
    (Config.placement cfg).Noc.Placement.name
    (match cfg.Config.l2_org with
    | Config.Private_l2 -> "private"
    | Config.Shared_l2 -> "shared")
    ((match Config.interleaving cfg with
     | Dram.Address_map.Line_interleaved -> "line"
     | Dram.Address_map.Page_interleaved -> "page")
    ^
    match cfg.Config.page_policy with
    | Config.Hardware -> "-hw"
    | Config.First_touch -> "-ft"
    | Config.Mc_aware -> "-mc")
    cfg.Config.threads_per_core cfg.Config.optimal cfg.Config.l1_size
    cfg.Config.l2_size cfg.Config.compute_cycles
    cfg.Config.noc.Noc.Network.link_bytes cfg.Config.jitter
    (Config.channels_per_mc cfg) (Config.banks_per_mc cfg)
    (cfg.Config.timing.Dram.Timing.row_hit
    + (match cfg.Config.mc_scheduler with Dram.Fr_fcfs.Fr_fcfs -> 0 | Dram.Fr_fcfs.Fcfs -> 1000)
    + match cfg.Config.mc_row_policy with
      | Dram.Fr_fcfs.Open_page -> 0
      | Dram.Fr_fcfs.Closed_page -> 2000)
    cfg.Config.seed
  (* hierarchical platforms get a suffix so memoized runs never collide
     with a flat mesh of the same geometry; flat keys are unchanged *)
  ^
  match (Config.topo cfg).Noc.Topology.chiplets with
  | None -> ""
  | Some g ->
    Printf.sprintf "/chip%dx%d:%d:%d" g.Noc.Topology.grid_x
      g.Noc.Topology.grid_y g.Noc.Topology.link_latency
      g.Noc.Topology.link_bytes

let run_table : (string, Engine.result) Hashtbl.t = Hashtbl.create 64

(* One simulated run, memoized on (config, app, optimized). *)
let run cfg ~optimized (app : App.t) =
  let key = Printf.sprintf "%s|%s|%b" (sig_of_cfg cfg) app.App.name optimized in
  match Hashtbl.find_opt run_table key with
  | Some r -> r
  | None ->
    let c = ctx_of app in
    let r =
      if optimized then
        Runner.run cfg ~optimized:true ~warmup_phases:app.App.warmup_nests
          ~index_lookup:c.index_lookup ~profile:c.profile c.program
      else
        Runner.run cfg ~optimized:false ~warmup_phases:app.App.warmup_nests
          ~index_lookup:c.index_lookup c.program
    in
    Hashtbl.replace run_table key r;
    r

(* --- standard configurations --- *)

let or_fail = function Ok v -> v | Error e -> failwith e

(* --platform PRESET|FILE: every section regenerates on this machine
   instead of the scaled default — a preset name or a platform JSON file
   (e.g. one emitted by occ --mapping search --search-out).  The scaled
   cache/latency parameters are kept; only the machine is swapped. *)
let platform_override : Core.Platform.t option ref = ref None

let set_platform spec =
  match Core.Platform.of_spec spec with
  | Ok p ->
    platform_override := Some p;
    Ok ()
  | Error _ as e -> e

let base () =
  match !platform_override with
  | None -> Config.scaled ()
  | Some p -> Config.with_platform (Config.scaled ()) p

let platform () = Config.platform (base ())

(* Digest of the full platform description (not just its name), recorded
   in --json output so downstream tooling can tell two same-named
   machines apart. *)
let platform_digest () =
  Digest.to_hex
    (Digest.string (Obs.Json.to_string (Core.Platform.to_json (platform ()))))

let line_cfg () = base ()

let page_cfg ?(policy = Config.Hardware) () =
  {
    (Config.with_interleaving (base ()) Dram.Address_map.Page_interleaved) with
    Config.page_policy = policy;
  }

let shared_cfg () = { (base ()) with Config.l2_org = Config.Shared_l2 }

let m2_cfg () =
  let topo = Config.topo (base ()) in
  or_fail
    (Result.bind
       (Core.Cluster.m2 ~width:topo.Noc.Topology.width
          ~height:topo.Noc.Topology.height)
       (Config.with_cluster (base ())))

(* --- metrics --- *)

let pct_reduction orig opt =
  if orig = 0. then 0. else 100. *. (1. -. (opt /. orig))

let exec_improvement (o : Engine.result) (p : Engine.result) =
  pct_reduction (float_of_int o.Engine.measured_time) (float_of_int p.Engine.measured_time)

type four = {
  onchip_net : float;
  offchip_net : float;
  memory : float;
  exec : float;
}

let four_metrics (o : Engine.result) (p : Engine.result) =
  {
    onchip_net =
      pct_reduction (Stats.avg_onchip_net o.Engine.stats) (Stats.avg_onchip_net p.Engine.stats);
    offchip_net =
      pct_reduction (Stats.avg_offchip_net o.Engine.stats)
        (Stats.avg_offchip_net p.Engine.stats);
    memory =
      pct_reduction (Stats.avg_memory o.Engine.stats) (Stats.avg_memory p.Engine.stats);
    exec = exec_improvement o p;
  }

let avg_occupancy (r : Engine.result) =
  let a = r.Engine.mc_occupancy in
  Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a)

(* --- formatting --- *)

(* Optional machine-readable output: OFFCHIP_CSV=path collects every
   (section, label, metric, value) the harness prints, for plotting;
   --json DIR writes the same rows as one JSON document per section. *)
let csv_channel =
  lazy
    (match Sys.getenv_opt "OFFCHIP_CSV" with
    | None -> None
    | Some path ->
      let oc = open_out path in
      output_string oc "section,label,metric,value
";
      at_exit (fun () -> close_out oc);
      Some oc)

let current_section = ref ""

let json_dir : string option ref = ref None

(* rows of the current section, newest first *)
let json_rows : (string * string * float) list ref = ref []

let flush_json_section () =
  (match (!json_dir, !json_rows) with
  | Some dir, _ :: _ ->
    let rows =
      List.rev_map
        (fun (label, metric, value) ->
          Obs.Json.Obj
            [
              ("label", Obs.Json.String label);
              ("metric", Obs.Json.String metric);
              ("value", Obs.Json.Float value);
            ])
        !json_rows
    in
    let doc =
      Obs.Json.Obj
        [
          ("section", Obs.Json.String !current_section);
          ("platform", Obs.Json.String (platform ()).Core.Platform.name);
          ("platform_digest", Obs.Json.String (platform_digest ()));
          ("rows", Obs.Json.List rows);
        ]
    in
    (* "Figure 14" -> fig14.json, "Table 2" -> table2.json: match the
       section keys accepted by --only *)
    let slug =
      let b = Buffer.create 16 in
      String.iter
        (fun c ->
          match Char.lowercase_ascii c with
          | ('a' .. 'z' | '0' .. '9') as c -> Buffer.add_char b c
          | _ -> ())
        !current_section;
      let s = Buffer.contents b in
      if String.length s >= 6 && String.sub s 0 6 = "figure" then
        "fig" ^ String.sub s 6 (String.length s - 6)
      else s
    in
    let path = Filename.concat dir (slug ^ ".json") in
    let oc = open_out path in
    Obs.Json.to_channel oc doc;
    output_char oc '\n';
    close_out oc
  | _ -> ());
  json_rows := []

let set_json_dir dir =
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  json_dir := Some dir;
  at_exit flush_json_section

let csv_row label metric value =
  (match Lazy.force csv_channel with
  | None -> ()
  | Some oc ->
    Printf.fprintf oc "%s,%s,%s,%.3f
" !current_section label metric value);
  if !json_dir <> None then json_rows := (label, metric, value) :: !json_rows

let csv_row4 label (f : four) =
  csv_row label "onchip_net" f.onchip_net;
  csv_row label "offchip_net" f.offchip_net;
  csv_row label "memory" f.memory;
  csv_row label "exec" f.exec


let header title paper_ref =
  flush_json_section ();
  current_section := (match String.index_opt title ':' with
    | Some i -> String.sub title 0 i
    | None -> title);
  Printf.printf "\n=== %s ===\n%s\n" title paper_ref

let row4 name (f : four) =
  csv_row4 name f;
  Printf.printf "  %-10s %+8.1f%% %+8.1f%% %+8.1f%% %+8.1f%%\n" name f.onchip_net
    f.offchip_net f.memory f.exec

let row4_header () =
  Printf.printf "  %-10s %9s %9s %9s %9s\n" "" "on-net" "off-net" "memory" "exec"

let avg4 rows =
  let n = float_of_int (List.length rows) in
  {
    onchip_net = List.fold_left (fun a r -> a +. r.onchip_net) 0. rows /. n;
    offchip_net = List.fold_left (fun a r -> a +. r.offchip_net) 0. rows /. n;
    memory = List.fold_left (fun a r -> a +. r.memory) 0. rows /. n;
    exec = List.fold_left (fun a r -> a +. r.exec) 0. rows /. n;
  }

(* Aggregate across apps weighted by message/access counts: per-app
   percentage averages are distorted by apps whose optimized runs have
   almost no traffic left in a category (e.g. galgel's on-chip messages
   drop 60x, so its per-app latency ratio is computed over a tiny,
   bursty population). *)
let aggregate4 (pairs : (Engine.result * Engine.result) list) =
  let sum f = List.fold_left (fun a (o, p) -> (fst a + f o, snd a + f p)) (0, 0) pairs in
  let ratio (num_o, num_p) (den_o, den_p) =
    let avg_o = float_of_int num_o /. float_of_int (max 1 den_o) in
    let avg_p = float_of_int num_p /. float_of_int (max 1 den_p) in
    pct_reduction avg_o avg_p
  in
  let s f = sum (fun r -> f r.Engine.stats) in
  {
    onchip_net = ratio (s Stats.onchip_net_cycles) (s Stats.onchip_messages);
    offchip_net = ratio (s Stats.offchip_net_cycles) (s Stats.offchip_messages);
    memory = ratio (s Stats.memory_cycles) (s Stats.offchip_accesses);
    exec =
      (let to_, tp = sum (fun r -> r.Engine.measured_time) in
       pct_reduction (float_of_int to_) (float_of_int tp));
  }

let bar value max_value width =
  let n =
    int_of_float (float_of_int width *. value /. max_value)
    |> max 0 |> min width
  in
  String.make n '#' ^ String.make (width - n) ' '
