(* The benchmark's workloads: what each one sets up, the operations it
   times, and the output checks only it can make.

   Every workload is built from the --seed argument alone: the seed is
   the simulator's jitter seed, the serving scenario's seed (arrivals and
   tenant lottery) and the placement search's seed.  The program under
   test only ever sees the generated inputs. *)

module Config = Sim.Config
module Engine = Sim.Engine
module Runner = Sim.Runner
module Stats = Sim.Stats
module App = Workloads.App
module Json = Obs.Json

type result =
  | Simulated of { optimized : bool; engine : Engine.result }
  | Compiled of Core.Pipeline.t
  | Served of Serve.Server.t

type outcome = {
  doc : string;  (** the operation's result document, compared byte for byte *)
  accesses : int;  (** simulated accesses (0 for a compile) *)
  result : result;
}

(* One program, prepared and simulated on one configuration. *)
type input = {
  cfg : Config.t;
  app : App.t;
  program : Lang.Ast.program;
  profile : string -> (Affine.Vec.t * Affine.Vec.t) list;
  optimized : bool;
  replicas : bool;  (** one confined copy per cluster instead of one job *)
  domains : int;
}

type op = {
  id : string;
  run : unit -> outcome;
  input : input option;  (** the simulated program, for the traced run *)
}

(* An operation that did not produce a checkable result: an exception or
   an error-severity diagnostic.  The message is its first line. *)
exception Failed of string

type t = {
  name : string;
  setup : seed:int -> quick:bool -> op list;
  check : (string * outcome) list -> string list;
      (** violations of the workload's own output invariants *)
}

let or_fail = function Ok v -> v | Error e -> failwith e

let config ?(scaled = true) ?(platform = "") ?(interleave = "line")
    ?(policy = "hardware") ~seed () =
  or_fail
    (Config.build ~scaled ~platform ~l2:"private" ~interleave ~policy ~seed ())

let inputs_of name =
  let app = Workloads.Suite.by_name name in
  let program = App.program app in
  let analysis = Lang.Analysis.analyze program in
  (app, program, fun a -> Workloads.Profile.for_transform app analysis a)

let input ?(replicas = false) ?(domains = 1) cfg ~optimized name =
  let app, program, profile = inputs_of name in
  { cfg; app; program; profile; optimized; replicas; domains }

let prepare i =
  let warmup_phases = i.app.App.warmup_nests in
  let index_lookup = App.index_lookup i.app in
  let profile = if i.optimized then Some i.profile else None in
  if i.replicas then
    Runner.prepare_replicas i.cfg ~optimized:i.optimized ~warmup_phases
      ~index_lookup ?profile i.program
  else
    [
      Runner.prepare i.cfg ~optimized:i.optimized ~warmup_phases ~index_lookup
        ?profile i.program;
    ]

let sim_doc i engine =
  Json.to_string (Sweep.Exec.result_json ~app:i.app.App.name i.cfg engine)

let sim_op i =
  let run () =
    let jobs = Spans.with_span "sim.prepare" (fun () -> prepare i) in
    let engine =
      Spans.with_span "sim.engine" (fun () ->
          Runner.run_many ~domains:i.domains i.cfg ~jobs)
    in
    let doc = Spans.with_span "obs.emit" (fun () -> sim_doc i engine) in
    {
      doc;
      accesses = Stats.total_accesses engine.Engine.stats;
      result = Simulated { optimized = i.optimized; engine };
    }
  in
  let id = i.app.App.name ^ if i.optimized then ".opt" else ".orig" in
  { id; run; input = Some i }

(* The original run on [orig] and the optimized run on [opt], per app. *)
let pairs ~orig ~opt apps =
  List.concat_map
    (fun name ->
      [
        sim_op (input orig ~optimized:false name);
        sim_op (input opt ~optimized:true name);
      ])
    apps

let counter name (r : Engine.result) =
  Option.value ~default:0
    (List.assoc_opt name (Stats.snapshot r.Engine.stats).Obs.Metrics.counters)

let engines ~optimized outcomes =
  List.filter_map
    (fun (_, o) ->
      match o.result with
      | Simulated s when s.optimized = optimized -> Some s.engine
      | _ -> None)
    outcomes

let no_check _ = []

(* --- the six workloads ------------------------------------------------ *)

(* The paper's central setting (Fig. 16): cache-line interleaving and
   private L2s on the scaled 8x8 mesh, original against optimized.
   Host time splits between trace generation and the engine. *)
let paper_line =
  let setup ~seed ~quick =
    let platform = if quick then "mesh4x4-mc4" else "" in
    let cfg = config ~platform ~seed () in
    pairs ~orig:cfg ~opt:cfg
      (if quick then [ "wupwise" ] else [ "apsi"; "galgel"; "wupwise" ])
  in
  { name = "paper-line"; setup; check = no_check }

(* Fig. 14's setup on the app with the most memory-bank pressure (Fig.
   18): page interleaving, hardware placement for the original, the
   MC-aware policy for the optimized run.  The engine dominates. *)
let offchip_page =
  let setup ~seed ~quick =
    let platform = if quick then "mesh4x4-mc4" else "" in
    pairs
      ~orig:(config ~platform ~interleave:"page" ~seed ())
      ~opt:(config ~platform ~interleave:"page" ~policy:"mc-aware" ~seed ())
      [ (if quick then "gafort" else "fma3d") ]
  in
  { name = "offchip-page"; setup; check = no_check }

(* A strip-parallel tiled GEMM on a 2x2-chiplet machine, run like the
   chiplet study: the only workload whose traffic crosses the
   inter-chiplet link class.  The compiled mapping must cut the
   cross-chiplet off-chip accesses. *)
let chiplet_gemm =
  let setup ~seed ~quick =
    let platform = if quick then "chiplet2x1-mc4" else "chiplet2x2-mc4" in
    pairs
      ~orig:(config ~platform ~interleave:"page" ~seed ())
      ~opt:(config ~platform ~interleave:"page" ~policy:"mc-aware" ~seed ())
      [ (if quick then "gemm-n48t8p16" else "gemm-n64t8p32") ]
  in
  let check outcomes =
    let cross optimized =
      List.fold_left
        (fun acc r -> acc + counter "sim.offchip_cross_chiplet" r)
        0
        (engines ~optimized outcomes)
    in
    let orig = cross false and opt = cross true in
    if opt < orig then []
    else
      [
        Printf.sprintf
          "cross-chiplet off-chip accesses not reduced: original %d, \
           optimized %d"
          orig opt;
      ]
  in
  { name = "chiplet-gemm"; setup; check }

(* The compiler path as `occ --app X --mapping search --emit-c` runs it:
   full-scale mesh8x8-mc8, placement search, verifier and codegen replay
   on.  It never calls the engine. *)
let compile_search =
  let setup ~seed ~quick =
    let cfg =
      config ~scaled:false
        ~platform:(if quick then "mesh4x4-mc4" else "mesh8x8-mc8")
        ~seed ()
    in
    let platform = Config.platform cfg in
    let ccfg = Config.customize_config cfg in
    let search = { Core.Place_search.default_params with seed } in
    List.map
      (fun name ->
        let _, program, profile = inputs_of name in
        let run () =
          let r =
            Spans.with_span "core.compile" (fun () ->
                Core.Pipeline.compile ~profile ~platform ~search
                  ~codegen:"kernel" ~cfg:ccfg (Core.Pipeline.Program program))
          in
          (match List.find_opt Lang.Diag.is_error r.Core.Pipeline.diags with
          | Some d -> raise (Failed (Lang.Diag.to_string d))
          | None -> ());
          let c =
            Option.value ~default:""
              r.Core.Pipeline.artifacts.Core.Pipeline.c_code
          in
          let diags =
            Json.to_string (Lang.Diag.list_to_json r.Core.Pipeline.diags)
          in
          { doc = c ^ diags; accesses = 0; result = Compiled r }
        in
        { id = name; run; input = None })
      (if quick then [ "wupwise" ] else [ "apsi"; "galgel"; "wupwise" ])
  in
  { name = "compile-search"; setup; check = no_check }

(* Consolidation serving under the MC-aware policy: six tenants arrive
   on a seeded schedule, queue for two 32-thread slots and share one page
   pool.  The mix holds two apps of similar cost, so the seed moves
   arrivals and co-location but hardly the amount of work. *)
let serve_mcaware =
  let setup ~seed ~quick =
    let sc =
      {
        (Serve.Scenario.smoke ~policy:Serve.Scenario.Mc_aware ~seed ()) with
        Serve.Scenario.name = "benchmark";
        tenants = (if quick then 2 else 6);
        threads_per_tenant = (if quick then 8 else 32);
        platform = (if quick then "mesh4x4-mc4" else "");
      }
    in
    let sc = or_fail (Serve.Scenario.validate sc) in
    ignore (or_fail (Serve.Scenario.config sc));
    let run () =
      let r =
        Spans.with_span "serve.run" (fun () -> or_fail (Serve.Server.run sc))
      in
      let doc =
        Spans.with_span "obs.emit" (fun () ->
            Json.to_string (Serve.Server.result_json r))
      in
      {
        doc;
        accesses = Stats.total_accesses r.Serve.Server.engine.Engine.stats;
        result = Served r;
      }
    in
    [ { id = "scenario"; run; input = None } ]
  in
  let check outcomes =
    List.filter_map
      (fun (_, o) ->
        match o.result with
        | Served r ->
          let tenants =
            List.fold_left
              (fun acc t -> acc + t.Serve.Server.offchip)
              0 r.Serve.Server.tenants
          in
          let engine =
            Stats.offchip_accesses r.Serve.Server.engine.Engine.stats
          in
          if tenants = engine then None
          else
            Some
              (Printf.sprintf
                 "tenant off-chip accesses sum to %d, the engine counted %d"
                 tenants engine)
        | _ -> None)
      outcomes
  in
  { name = "serve-mcaware"; setup; check }

(* One cluster-confined replica per cluster under page interleaving and
   first touch: the only workload the parallel engine actually splits,
   run on two domains. *)
let replicas_par =
  let setup ~seed ~quick =
    let platform = if quick then "mesh4x4-mc4" else "" in
    let cfg =
      config ~platform ~interleave:"page" ~policy:"first-touch" ~seed ()
    in
    [
      sim_op
        (input ~replicas:true ~domains:2 cfg ~optimized:false
           (if quick then "wupwise" else "apsi"));
    ]
  in
  { name = "replicas-par"; setup; check = no_check }

let all =
  [
    paper_line;
    offchip_page;
    chiplet_gemm;
    compile_search;
    serve_mcaware;
    replicas_par;
  ]

let names = List.map (fun w -> w.name) all
let find name = List.find_opt (fun w -> w.name = name) all
