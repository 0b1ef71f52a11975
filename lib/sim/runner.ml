module Analysis = Lang.Analysis

type prepared = {
  program : Lang.Ast.program;
  analysis : Lang.Analysis.t;
  report : Core.Transform.report option;
  job : Engine.job;
  bases : (string * int) list;
  desired_mc : int -> int option;
      (** compiler page hints: the controller each virtual page of an
          optimized array should live on (page interleaving) *)
  sites : Lang.Sites.t;
      (** access-site table of [program]; the job's site streams (when
          tagged) index into it *)
}

let align_up x a = (x + a - 1) / a * a

(* base-address padding: every array is aligned to num_mcs interleaving
   units and to num_mcs pages, so the chunk-to-controller arithmetic holds
   under both granularities *)
let alignment cfg =
  let num_mcs = Core.Cluster.num_mcs (Config.cluster cfg) in
  let a = num_mcs * Config.l2_line cfg
  and b = num_mcs * Config.page_bytes cfg in
  let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
  a * b / gcd a b

(* where the first array starts when the program is laid out from
   [vaddr_base]; every later base sits a [vaddr_base]-independent distance
   past it, since each base is a multiple of the alignment *)
let first_base cfg vaddr_base =
  let a = alignment cfg in
  align_up (max vaddr_base a) a

let bind_threads cfg ~threads ~core_offset =
  let cores_total = Noc.Topology.nodes (Config.topo cfg) in
  let tpc = cfg.Config.threads_per_core in
  Array.init threads (fun t ->
      let core = (t / tpc) + core_offset in
      Core.Cluster.node_of_thread (Config.cluster cfg) (Config.topo cfg)
        (core mod cores_total))

let traced = Atomic.make 0
let traces_generated () = Atomic.get traced

let prepare (cfg : Config.t) ~optimized ?threads ?(core_offset = 0)
    ?(vaddr_base = 0) ?name ?(warmup_phases = 0)
    ?(index_lookup = fun _ _ -> 0) ?profile ?(attr = false) program =
  let analysis = Analysis.analyze program in
  let ccfg = Config.customize_config cfg in
  let report =
    if optimized then Some (Core.Transform.run ?profile ccfg analysis)
    else None
  in
  let layout_for (info : Analysis.array_info) =
    match report with
    | Some r -> Core.Transform.layout_of r info.Analysis.decl.Lang.Ast.name
    | None ->
      Core.Layout.identity ~array:info.Analysis.decl.Lang.Ast.name
        ~extents:info.Analysis.extents ~elem_bytes:(Config.elem_bytes cfg)
  in
  let num_mcs = Core.Cluster.num_mcs (Config.cluster cfg) in
  let alignment = alignment cfg in
  let next = ref (first_base cfg vaddr_base) in
  let table = Hashtbl.create 16 and maps = Hashtbl.create 16 in
  let bases =
    List.map
      (fun (info : Analysis.array_info) ->
        let layout = layout_for info in
        let base = !next in
        next := align_up (base + Core.Layout.size_bytes layout) alignment;
        Hashtbl.replace table info.Analysis.decl.Lang.Ast.name (base, layout);
        Hashtbl.replace maps info.Analysis.decl.Lang.Ast.name
          (Core.Layout.addr_map ~base ~scale:(Config.elem_bytes cfg) layout);
        (info.Analysis.decl.Lang.Ast.name, base))
      analysis.Analysis.arrays
  in
  let addr_of = Hashtbl.find maps in
  let cores_total = Noc.Topology.nodes (Config.topo cfg) in
  let tpc = cfg.threads_per_core in
  let threads =
    match threads with Some t -> t | None -> cores_total * tpc
  in
  let sites = Lang.Sites.of_program program in
  Atomic.incr traced;
  (* the interpreter traces the original program, so resolving sites by
     physical ref identity is exact; site ids travel in a side band
     (never in the access ints, whose high bits verify's replay owns) *)
  let phases, site_streams =
    if attr then begin
      let tagged =
        Lang.Interp.trace_tagged ~threads ~threads_per_core:tpc ~addr_of
          ~index_lookup:(fun a v -> index_lookup a v)
          ~site_of:(Lang.Sites.id_of_ref sites)
          program
      in
      (List.map fst tagged, List.map snd tagged)
    end
    else
      ( Lang.Interp.trace ~threads ~threads_per_core:tpc ~addr_of
          ~index_lookup:(fun a v -> index_lookup a v)
          program,
        [] )
  in
  let job =
    {
      Engine.name = Option.value name ~default:"job";
      phases;
      vaddr_offset = 0;
      node_of_thread = bind_threads cfg ~threads ~core_offset;
      warmup_phases;
      site_streams;
      start_time = 0;
      start_after = None;
      free_vpage_range = None;
    }
  in
  (* page hints: only pages belonging to layout-optimized arrays carry a
     desired controller; the rest are placed by the OS (first touch) *)
  let hinted_ranges =
    match report with
    | None -> []
    | Some r ->
      List.filter_map
        (fun (d : Core.Transform.decision) ->
          if d.Core.Transform.optimized then begin
            let name = d.Core.Transform.info.Lang.Analysis.decl.Lang.Ast.name in
            let base, layout = Hashtbl.find table name in
            let first = base / (Config.page_bytes cfg) in
            let last = (base + Core.Layout.size_bytes layout - 1) / (Config.page_bytes cfg) in
            Some (first, last)
          end
          else None)
        r.Core.Transform.decisions
  in
  let desired_mc vpage =
    if List.exists (fun (a, b) -> vpage >= a && vpage <= b) hinted_ranges then
      Some (vpage mod num_mcs)
    else None
  in
  { program; analysis; report; job; bases; desired_mc; sites }

(* The layout from [vaddr_base] is the layout from p's own base shifted by
   the difference of the two first bases, a multiple of the alignment and
   hence of num_mcs pages: every address moves by that constant, and every
   hinted page keeps its [vpage mod num_mcs] controller. *)
let relocate cfg p ~vaddr_base ~core_offset ~name =
  let shift =
    match p.bases with
    | (_, first) :: _ -> first_base cfg vaddr_base - first
    | [] -> 0
  in
  let pages = shift / Config.page_bytes cfg in
  let desired_mc = p.desired_mc in
  {
    p with
    job =
      {
        p.job with
        Engine.name;
        vaddr_offset = p.job.Engine.vaddr_offset + shift;
        node_of_thread =
          bind_threads cfg
            ~threads:(Array.length p.job.Engine.node_of_thread)
            ~core_offset;
      };
    bases = List.map (fun (a, b) -> (a, b + shift)) p.bases;
    desired_mc = (fun vpage -> desired_mc (vpage - pages));
  }

let combined_hints preps vpage =
  List.fold_left
    (fun acc p -> match acc with Some _ -> acc | None -> p.desired_mc vpage)
    None preps

let attr_for (cfg : Config.t) p =
  let num_mcs = Core.Cluster.num_mcs (Config.cluster cfg) in
  let sites =
    Array.map
      (fun (s : Lang.Sites.site) ->
        {
          Obs.Attr.array = s.Lang.Sites.array;
          write = s.Lang.Sites.write;
          phase = s.Lang.Sites.phase;
          loc = Lang.Span.to_string s.Lang.Sites.span;
        })
      (Lang.Sites.sites p.sites)
  in
  Obs.Attr.create ~sites ~mcs:num_mcs ~banks:(Config.banks_per_mc cfg)
    ~max_hops:Stats.max_hops

(* rebind a prepared job's threads onto one cluster's cores (ascending
   node ids, threads-per-core consecutive) so replicated jobs become
   partition-confined for the parallel engine *)
let confine cfg ~cluster:c p =
  let cl = Config.cluster cfg and topo = Config.topo cfg in
  let nodes =
    Array.of_list
      (List.filter
         (fun n -> Core.Cluster.cluster_of_node cl topo n = c)
         (List.init (Noc.Topology.nodes topo) Fun.id))
  in
  let tpc = max 1 cfg.Config.threads_per_core in
  let node_of_thread =
    Array.init
      (Array.length p.job.Engine.node_of_thread)
      (fun t -> nodes.(t / tpc mod Array.length nodes))
  in
  { p with job = { p.job with Engine.node_of_thread } }

(* one confined copy of the program per cluster: the canonical
   embarrassingly-decomposable workload the parallel engine speeds up
   (bench smoke, oracle tests, simulate --replicate) *)
let prepare_replicas cfg ~optimized ?threads ?name ?(warmup_phases = 0)
    ?index_lookup ?profile ?(attr = false) program =
  let cl = Config.cluster cfg in
  let nclusters = Core.Cluster.num_clusters cl in
  let threads =
    match threads with
    | Some t -> t
    | None -> Core.Cluster.cores_per_cluster cl * max 1 cfg.Config.threads_per_core
  in
  let slice = 256 * 1024 * 1024 in
  let base = Option.value name ~default:"job" in
  (* one trace, placed once per cluster *)
  let p =
    prepare cfg ~optimized ~threads ~warmup_phases ?index_lookup ?profile ~attr
      program
  in
  List.init nclusters (fun c ->
      relocate cfg p ~vaddr_base:(c * slice) ~core_offset:0
        ~name:(Printf.sprintf "%s@%d" base c)
      |> confine cfg ~cluster:c)

let run cfg ~optimized ?warmup_phases ?index_lookup ?profile ?trace program =
  let p = prepare cfg ~optimized ?warmup_phases ?index_lookup ?profile program in
  Engine.run cfg ~desired_mc_of_vpage:p.desired_mc ?trace ~jobs:[ p.job ] ()

let run_many ?trace ?attr ?(domains = 1) ?on_plan cfg ~jobs =
  Par_engine.run cfg
    ~desired_mc_of_vpage:(combined_hints jobs)
    ?trace ?attr ?on_plan ~domains
    ~jobs:(List.map (fun p -> p.job) jobs)
    ()
