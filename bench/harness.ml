(* Shared plumbing for the experiment harness: standard configurations,
   the sweep jobs a section declares, the results those jobs produced,
   and formatting helpers.

   A section that simulates suite apps is a list of (config, app,
   orig|opt) sweep jobs plus a renderer.  bench gathers the jobs of every
   selected section, dedupes them by cache key and runs them once through
   the sweep engine, so e.g. the cache-line-interleaved baseline is
   simulated once and read by Figs. 15, 16, 17 and 18.  Renderers read
   the runs back from their result documents. *)

module Config = Sim.Config
module App = Workloads.App
module Json = Obs.Json

let analysis app = Lang.Analysis.analyze (App.program app)

let profile app analysis a = Workloads.Profile.for_transform app analysis a

(* Restrict the suite via OFFCHIP_APPS="apsi,swim" for quick runs. *)
let apps () =
  match Sys.getenv_opt "OFFCHIP_APPS" with
  | None -> Workloads.Suite.all
  | Some s ->
    let names = String.split_on_char ',' s in
    List.map Workloads.Suite.by_name names

(* A run that is not a (config, suite app) job — fig25's co-run pairs,
   alternative's restructured programs — prepared for a direct engine
   run.  [program] and [profile] default to the app's own. *)
let prepare cfg ~optimized ?threads ?core_offset ?vaddr_base ?name ?profile:p
    ?program (app : App.t) =
  Sim.Runner.prepare cfg ~optimized ?threads ?core_offset ?vaddr_base ?name
    ~warmup_phases:app.App.warmup_nests ~index_lookup:(App.index_lookup app)
    ~profile:(Option.value p ~default:(profile app (analysis app)))
    (Option.value program ~default:(App.program app))

(* --- sections, jobs and their results --- *)

type section = {
  title : string;
  paper : string;  (** the paper's numbers to compare against *)
  jobs : Sweep.Spec.job list;
  render : unit -> unit;
}

let section ?(jobs = []) title paper render = { title; paper; jobs; render }

(* [label] names the config in the job id; bench prefixes the section *)
let job ?(label = "") cfg ~optimized (app : App.t) =
  let side = if optimized then "opt" else "orig" in
  let id = String.concat "/" (List.filter (( <> ) "") [ label; app.App.name; side ]) in
  { Sweep.Spec.id; config = cfg; app = app.App.name; optimized }

(* one (original, optimized) job pair per app *)
let pair_jobs ?label ?(apps = apps ()) cfg_orig cfg_opt =
  List.concat_map
    (fun app -> [ job ?label cfg_orig ~optimized:false app; job ?label cfg_opt ~optimized:true app ])
    apps

(* What a renderer reads of one run: fields of its result document. *)
type run = {
  measured_time : int;
  mc_occupancy : float array;
  derived : string -> float;  (** a [stats.derived] member *)
  counter : string -> int;  (** a [stats.metrics] counter *)
  onchip_hops : int array;
  offchip_hops : int array;
  node_mc_requests : int array array;
}

let run_of_json doc =
  let ( let* ) = Result.bind in
  let module D = Json.Decode in
  let raw _ v = Ok v in
  (* a non-finite float is written as null *)
  let num ctx = function Json.Null -> Ok Float.nan | v -> D.float ctx v in
  let array decode ctx v = Result.map Array.of_list (D.list decode ctx v) in
  let* stats = D.field "stats" raw doc in
  let* derived = D.field "derived" (D.assoc num) stats in
  let* snap = Result.bind (D.field "metrics" raw stats) Obs.Metrics.snapshot_of_json in
  let* hops = D.field "hops" raw stats in
  let* measured_time = D.field "measured_time" D.int doc in
  let* mc_occupancy = D.field "mc_occupancy" (array num) doc in
  let* onchip_hops = D.field "onchip" (array D.int) hops in
  let* offchip_hops = D.field "offchip" (array D.int) hops in
  let* node_mc_requests = D.field "node_mc_requests" (array (array D.int)) stats in
  Ok
    {
      measured_time;
      mc_occupancy;
      derived = (fun k -> List.assoc k derived);
      counter =
        (fun k -> Option.value (List.assoc_opt k snap.Obs.Metrics.counters) ~default:0);
      onchip_hops;
      offchip_hops;
      node_mc_requests;
    }

(* cache key -> the job's run, or why it failed *)
let results : (string, (run, string) result) Hashtbl.t = Hashtbl.create 512

(* Rerunning the same binary resumes from this directory's cache: keys
   carry the binary's digest. *)
let results_dir = Filename.concat (Filename.get_temp_dir_name ()) "offchip-bench"

(* --jobs N: pool workers for bench's simulations, 0 (--jobs 1) running
   them in process *)
let workers = ref 0

(* Runs each distinct job once on [!workers] and records every job's run
   or failure. *)
let run_jobs jobs =
  let seen = Hashtbl.create 512 in
  let fresh j =
    let k = Sweep.Cache.key j in
    (not (Hashtbl.mem seen k)) && (Hashtbl.add seen k (); true)
  in
  match List.filter fresh jobs with
  | [] -> ()
  | unique ->
    let spec = { Sweep.Spec.name = "bench"; jobs = Array.of_list unique; timeout_s = 3600.; retries = 0 } in
    let report = Sweep.Orchestrate.run_sweep ~workers:!workers ~out:results_dir spec in
    Array.iter
      (fun (e : Sweep.Manifest.entry) ->
        Hashtbl.replace results e.key
          (match (e.status, Sweep.Cache.find ~dir:results_dir e.key) with
          | Sweep.Manifest.Failed reason, _ -> Error reason
          | (Ok | Cached), Some doc -> run_of_json doc
          | _ -> Error "no result"))
      report.manifest.entries

(* the first job of a section that failed, with its reason *)
let first_failure s =
  List.find_map
    (fun j ->
      match Hashtbl.find_opt results (Sweep.Cache.key j) with
      | Some (Error reason) -> Some (j.Sweep.Spec.id, reason)
      | _ -> None)
    s.jobs

(* The run of a job the rendering section declared; anything else is a
   bug in that section, never a reason to simulate here. *)
let get cfg ~optimized app =
  let j = job cfg ~optimized app in
  match Hashtbl.find_opt results (Sweep.Cache.key j) with
  | Some (Ok r) -> r
  | _ -> failwith ("run " ^ j.Sweep.Spec.id ^ " was not declared by its section")

(* --- standard configurations --- *)

let or_fail = function Ok v -> v | Error e -> failwith e

(* --platform PRESET|FILE: every section regenerates on this machine
   instead of the scaled default — a preset name or a platform JSON file
   (e.g. one emitted by occ --mapping search --search-out).  The scaled
   cache/latency parameters are kept; only the machine is swapped. *)
let platform_override : Core.Platform.t option ref = ref None

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
  or_fail (Result.map (Config.with_platform (base ())) (Core.Platform.with_mapping (platform ()) "M2"))

(* --- metrics --- *)

let pct_reduction orig opt =
  if orig = 0. then 0. else 100. *. (1. -. (opt /. orig))

let exec_improvement o p =
  pct_reduction (float_of_int o.measured_time) (float_of_int p.measured_time)

let mean l = List.fold_left ( +. ) 0. l /. float_of_int (List.length l)

(* The mean execution-time gain over [apps] of one config: the jobs it
   needs, and the value once they have run. *)
let mean_gain ?label ?(apps = apps ()) cfg =
  ( pair_jobs ?label ~apps cfg cfg,
    fun () ->
      mean
        (List.map
           (fun app ->
             exec_improvement (get cfg ~optimized:false app) (get cfg ~optimized:true app))
           apps) )

type four = {
  onchip_net : float;
  offchip_net : float;
  memory : float;
  exec : float;
}

let four_metrics o p =
  let reduction k = pct_reduction (o.derived k) (p.derived k) in
  {
    onchip_net = reduction "avg_onchip_net";
    offchip_net = reduction "avg_offchip_net";
    memory = reduction "avg_memory";
    exec = exec_improvement o p;
  }

let avg_occupancy r = mean (Array.to_list r.mc_occupancy)

(* --- formatting --- *)

(* Optional machine-readable output: --json DIR writes every (label,
   metric, value) row a section prints as DIR/<section>.json. *)
let current_section = ref ""

(* the --only key of the current section, which names its JSON file *)
let current_key = ref ""

let json_dir : string option ref = ref None

(* rows of the current section, newest first *)
let json_rows : (string * string * float) list ref = ref []

let flush_json_section () =
  (match (!json_dir, !json_rows) with
  | Some dir, _ :: _ -> (
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
    match Obs.Json.to_file (Filename.concat dir (!current_key ^ ".json")) doc with
    | Ok () -> ()
    | Error e ->
      prerr_endline ("bench: " ^ e);
      exit Cli.user_error)
  | _ -> ());
  json_rows := []

let set_json_dir dir =
  match Unix.mkdir dir 0o755 with
  | () | (exception Unix.Unix_error (Unix.EEXIST, _, _)) ->
    json_dir := Some dir;
    Ok ()
  | exception Unix.Unix_error (e, _, _) ->
    Error (Printf.sprintf "%s: %s" dir (Unix.error_message e))

let row label metric value =
  if !json_dir <> None then json_rows := (label, metric, value) :: !json_rows

(* starts section [key]: "Figure 14: ..." is JSON section "Figure 14" *)
let header key title paper_ref =
  flush_json_section ();
  current_key := key;
  current_section := (match String.index_opt title ':' with
    | Some i -> String.sub title 0 i
    | None -> title);
  Printf.printf "\n=== %s ===\n%s\n" title paper_ref

let row4 name (f : four) =
  row name "onchip_net" f.onchip_net;
  row name "offchip_net" f.offchip_net;
  row name "memory" f.memory;
  row name "exec" f.exec;
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
let aggregate4 (pairs : (run * run) list) =
  let sum f = List.fold_left (fun a (o, p) -> (fst a + f o, snd a + f p)) (0, 0) pairs in
  let ratio num den =
    let (num_o, num_p), (den_o, den_p) = (sum (fun r -> r.counter num), sum (fun r -> r.counter den)) in
    let avg_o = float_of_int num_o /. float_of_int (max 1 den_o) in
    let avg_p = float_of_int num_p /. float_of_int (max 1 den_p) in
    pct_reduction avg_o avg_p
  in
  {
    onchip_net = ratio "net.onchip_cycles" "net.onchip_messages";
    offchip_net = ratio "net.offchip_cycles" "net.offchip_messages";
    memory = ratio "mem.cycles" "sim.offchip_accesses";
    exec =
      (let to_, tp = sum (fun r -> r.measured_time) in
       pct_reduction (float_of_int to_) (float_of_int tp));
  }

let bar value max_value width =
  let n =
    int_of_float (float_of_int width *. value /. max_value)
    |> max 0 |> min width
  in
  String.make n '#' ^ String.make (width - n) ' '
