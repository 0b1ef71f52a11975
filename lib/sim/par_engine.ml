(* Partition-confined parallel simulation: see par_engine.mli for the
   protocol argument.  The plan scans the precomputed access traces once
   (O(total accesses), with a last-page fast path) and either proves the
   workload decomposes into per-cluster partitions that can exchange no
   events, or names the first obstruction as the fallback reason. *)

type partition = {
  part_cluster : int;
  part_clusters : int list;
  part_mcs : int list;
  part_nodes : int list;
  part_jobs : int list;
}

type plan = Parallel of partition array | Sequential of string

exception Reject of string

let rejectf fmt = Printf.ksprintf (fun s -> raise (Reject s)) fmt

(* --- the confinement proof ------------------------------------------- *)

let job_clusters cfg (js : Engine.job array) =
  let cluster = Config.cluster cfg and topo = Config.topo cfg in
  Array.mapi
    (fun i (j : Engine.job) ->
      if Array.length j.Engine.node_of_thread = 0 then
        rejectf "job %d (%s) has no threads" i j.Engine.name;
      let c =
        Core.Cluster.cluster_of_node cluster topo j.Engine.node_of_thread.(0)
      in
      Array.iter
        (fun n ->
          if Core.Cluster.cluster_of_node cluster topo n <> c then
            rejectf "job %d (%s) spans clusters" i j.Engine.name)
        j.Engine.node_of_thread;
      c)
    js

let check_chains (js : Engine.job array) job_cluster =
  Array.iteri
    (fun i (j : Engine.job) ->
      match j.Engine.start_after with
      (* same liveness rule as the engine: only in-range non-self
         predecessors actually chain *)
      | Some p when p >= 0 && p < Array.length js && p <> i ->
        if job_cluster.(p) <> job_cluster.(i) then
          rejectf "job %d (%s) chains after a job in another cluster" i
            j.Engine.name
      | _ -> ())
    js

(* vpage -> owning cluster over every access of every job (warmup
   included — warmup accesses allocate pages too) *)
let scan_pages cfg (js : Engine.job array) job_cluster =
  let page_bytes = Config.page_bytes cfg in
  let owner : (int, int) Hashtbl.t = Hashtbl.create 4096 in
  Array.iteri
    (fun i (j : Engine.job) ->
      let c = job_cluster.(i) in
      let last = ref min_int in
      List.iter
        (fun (phase : Lang.Interp.phase) ->
          Array.iter
            (fun stream ->
              Array.iter
                (fun a ->
                  let v = Lang.Interp.addr_of_access a / page_bytes in
                  if v <> !last then begin
                    last := v;
                    match Hashtbl.find_opt owner v with
                    | Some c' ->
                      if c' <> c then
                        rejectf "virtual page %d is touched by clusters %d and %d"
                          v c' c
                    | None -> Hashtbl.add owner v c
                  end)
                stream)
            phase)
        j.Engine.phases)
    js;
  owner

let check_free_ranges (js : Engine.job array) job_cluster page_owner =
  let ranges =
    Array.to_list js
    |> List.mapi (fun i (j : Engine.job) ->
           Option.map (fun (a, b) -> (a, b, job_cluster.(i), i)) j.Engine.free_vpage_range)
    |> List.filter_map Fun.id
  in
  if ranges <> [] then
    Hashtbl.iter
      (fun v c ->
        List.iter
          (fun (a, b, rc, i) ->
            if v >= a && v <= b && rc <> c then
              rejectf "job %d frees a vpage range overlapping cluster %d pages"
                i c)
          ranges)
      page_owner

(* Placement under the run's policy: every page must land on a controller
   of its own cluster, within that controller's frame budget — then the
   per-partition allocators reproduce the sequential frame assignment
   exactly and never fall back across partitions. *)
let check_placement cfg ?desired_mc_of_vpage page_owner =
  let cluster = Config.cluster cfg in
  let num_mcs = Config.num_mcs cfg in
  let head c = List.hd (Core.Cluster.mcs_of_cluster cluster c) in
  let desired_of v c =
    match cfg.Config.page_policy with
    | Config.Hardware -> v mod num_mcs
    | Config.First_touch -> head c
    | Config.Mc_aware -> (
      let hint =
        match desired_mc_of_vpage with
        | Some f -> f v
        | None -> Some (v mod num_mcs)
      in
      match hint with Some m -> m | None -> head c)
  in
  let mc_pages = Array.make num_mcs 0 in
  Hashtbl.iter
    (fun v c ->
      let m = desired_of v c in
      if m < 0 || m >= num_mcs || Core.Cluster.cluster_of_mc cluster m <> c then
        rejectf "virtual page %d desires controller %d outside its cluster" v m;
      mc_pages.(m) <- mc_pages.(m) + 1)
    page_owner;
  Array.iteri
    (fun m n ->
      if n > cfg.Config.frames_per_mc then
        rejectf "controller %d needs %d frames but has %d" m n
          cfg.Config.frames_per_mc)
    mc_pages

let cluster_nodes cfg c =
  let cluster = Config.cluster cfg and topo = Config.topo cfg in
  let nodes = Noc.Topology.nodes topo in
  List.filter
    (fun n -> Core.Cluster.cluster_of_node cluster topo n = c)
    (List.init nodes Fun.id)

(* Under the optimal scheme requests go to the nearest controller site,
   whatever cluster owns it. *)
let check_nearest cfg parts =
  if cfg.Config.optimal then
    let pl = Config.placement cfg and topo = Config.topo cfg in
    Array.iter
      (fun p ->
        List.iter
          (fun n ->
            let m = Noc.Placement.nearest pl topo n in
            if not (List.mem m p.part_mcs) then
              rejectf
                "optimal scheme: node %d's nearest controller %d is foreign" n m)
          p.part_nodes)
      parts

(* Every link any partition's XY routes can touch (between its nodes and
   controller sites) must belong to it alone — the no-cross-traffic leg
   of the proof.  Clusters are rectangles and XY routes stay inside the
   endpoints' bounding box, so in practice this holds whenever each
   controller's site sits inside its own cluster. *)
let check_links cfg parts =
  let topo = Config.topo cfg and pl = Config.placement cfg in
  let owner = Array.make (Noc.Topology.num_link_ids topo) (-1) in
  Array.iteri
    (fun pi p ->
      let endpoints =
        List.sort_uniq compare
          (p.part_nodes @ List.map (Noc.Placement.mc_node pl) p.part_mcs)
      in
      List.iter
        (fun src ->
          List.iter
            (fun dst ->
              if src <> dst then
                Array.iter
                  (fun l ->
                    if owner.(l) >= 0 && owner.(l) <> pi then
                      rejectf "partitions %d and %d share mesh links" owner.(l)
                        pi
                    else owner.(l) <- pi)
                  (Noc.Topology.link_ids topo ~src ~dst))
            endpoints)
        endpoints)
    parts

(* Chiplet boundaries are natural partitions: when the platform is
   hierarchical and every per-cluster partition lies inside one chiplet,
   the clusters of a chiplet are merged into a single partition — the
   partition cut then runs along the scarce inter-chiplet links, and two
   clusters sharing on-die links inside a chiplet no longer defeat the
   no-shared-links leg of the proof.  Any cluster spanning chiplets keeps
   the per-cluster decomposition.  Flat platforms pass through
   untouched. *)
let merge_by_chiplet cfg parts =
  let topo = Config.topo cfg in
  if Noc.Topology.num_chiplets topo < 2 then parts
  else
    let chiplet_of p =
      match p.part_nodes with
      | [] -> None
      | n :: rest ->
        let c = Noc.Topology.chiplet_of_node topo n in
        if
          List.for_all
            (fun m -> Noc.Topology.chiplet_of_node topo m = c)
            rest
        then Some c
        else None
    in
    let tags = Array.map chiplet_of parts in
    if Array.exists (fun t -> t = None) tags then parts
    else begin
      let groups = Hashtbl.create 8 in
      Array.iteri
        (fun i p ->
          let c = Option.get tags.(i) in
          let prev = Option.value ~default:[] (Hashtbl.find_opt groups c) in
          Hashtbl.replace groups c (p :: prev))
        parts;
      let chiplets =
        List.sort_uniq compare (Array.to_list (Array.map Option.get tags))
      in
      Array.of_list
        (List.map
           (fun c ->
             let ps = List.rev (Hashtbl.find groups c) in
             let all f = List.sort_uniq compare (List.concat_map f ps) in
             {
               part_cluster = (List.hd ps).part_cluster;
               part_clusters = all (fun p -> p.part_clusters);
               part_mcs = all (fun p -> p.part_mcs);
               part_nodes = all (fun p -> p.part_nodes);
               part_jobs = all (fun p -> p.part_jobs);
             })
           chiplets)
    end

let plan (cfg : Config.t) ?desired_mc_of_vpage ~(jobs : Engine.job list) () =
  let cluster = Config.cluster cfg in
  let js = Array.of_list jobs in
  try
    if Array.length js = 0 then raise (Reject "no jobs");
    if cfg.Config.l2_org <> Config.Private_l2 then
      raise (Reject "shared L2 homes lines across clusters");
    if Config.interleaving cfg <> Dram.Address_map.Page_interleaved then
      raise (Reject "line interleaving uses one global frame allocator");
    if Core.Cluster.num_clusters cluster < 2 then
      raise (Reject "platform has a single cluster");
    let job_cluster = job_clusters cfg js in
    check_chains js job_cluster;
    let page_owner = scan_pages cfg js job_cluster in
    check_free_ranges js job_cluster page_owner;
    check_placement cfg ?desired_mc_of_vpage page_owner;
    let parts =
      List.init (Core.Cluster.num_clusters cluster) (fun c ->
          let part_jobs =
            List.filteri (fun i _ -> job_cluster.(i) = c) (List.init (Array.length js) Fun.id)
          in
          {
            part_cluster = c;
            part_clusters = [ c ];
            part_mcs = Core.Cluster.mcs_of_cluster cluster c;
            part_nodes = cluster_nodes cfg c;
            part_jobs;
          })
      |> List.filter (fun p -> p.part_jobs <> [])
      |> Array.of_list
    in
    let parts = merge_by_chiplet cfg parts in
    if Array.length parts < 2 then
      raise (Reject "all jobs live in one cluster partition");
    check_nearest cfg parts;
    check_links cfg parts;
    Parallel parts
  with Reject reason -> Sequential reason

let describe plan ~domains =
  match plan with
  | Sequential reason -> Printf.sprintf "sequential engine (%s)" reason
  | Parallel parts ->
    let clusters =
      String.concat ","
        (Array.to_list
           (Array.map
              (fun p ->
                String.concat "+" (List.map string_of_int p.part_clusters))
              parts))
    in
    Printf.sprintf "parallel: %d partitions (clusters %s) on %d worker domain%s"
      (Array.length parts) clusters
      (min domains (Array.length parts))
      (if min domains (Array.length parts) = 1 then "" else "s")

(* --- partitioned execution and the deterministic merge ---------------- *)

(* [Array.map f xs] on up to [workers] domains.  Worker k owns indices
   k, k+w, k+2w, ... in increasing order and results land at their
   input's index, so the schedule is deterministic.  The calling domain
   is worker 0 (w workers cost w-1 spawns); every domain is joined before
   the first failure, if any, is re-raised. *)
let map_workers ~workers f xs =
  let n = Array.length xs in
  let w = max 1 (min workers n) in
  if w <= 1 then Array.map f xs
  else begin
    let strip k =
      let out = ref [] in
      let i = ref k in
      while !i < n do
        out := (!i, f xs.(!i)) :: !out;
        i := !i + w
      done;
      !out
    in
    let spawned =
      Array.init (w - 1) (fun k -> Domain.spawn (fun () -> strip (k + 1)))
    in
    let own = try Ok (strip 0) with e -> Error e in
    let joined =
      Array.map (fun d -> try Ok (Domain.join d) with e -> Error e) spawned
    in
    let results = Array.make n None in
    let place = function
      | Ok pairs -> List.iter (fun (i, r) -> results.(i) <- Some r) pairs
      | Error _ -> ()
    in
    place own;
    Array.iter place joined;
    let raise_first = function Error e -> raise e | Ok _ -> () in
    raise_first own;
    Array.iter raise_first joined;
    Array.map (function Some r -> r | None -> assert false) results
  end

let run_parallel cfg ?desired_mc_of_vpage ?attr ~domains ~jobs parts =
  let js = Array.of_list jobs in
  let n = Array.length js in
  let np = Array.length parts in
  let job_part = Array.make n (-1) in
  Array.iteri
    (fun pi p -> List.iter (fun i -> job_part.(i) <- pi) p.part_jobs)
    parts;
  (* each partition records into its own clone of the caller's cube *)
  let sub_attr =
    match attr with
    | None -> Array.make np None
    | Some cube -> Array.init np (fun _ -> Some (Obs.Attr.create_like cube))
  in
  let run_one pi =
    (* foreign jobs keep their list positions (so job ids and the
       jid-seeded jitter streams line up with the sequential run) but
       carry no work: an empty job completes at its start time without
       touching stats, pages or the network *)
    let pjobs =
      List.mapi
        (fun i (j : Engine.job) ->
          if job_part.(i) = pi then j
          else
            {
              j with
              Engine.phases = [];
              site_streams = [];
              free_vpage_range = None;
            })
        jobs
    in
    Engine.run cfg ?desired_mc_of_vpage ?attr:sub_attr.(pi) ~jobs:pjobs ()
  in
  let results =
    map_workers ~workers:domains run_one (Array.init np Fun.id)
  in
  (* registry counters add, gauges max, histograms add — all partition
     metrics have disjoint supports, so the fold is order-insensitive *)
  let stats = ref (Stats.merge results.(0).Engine.stats results.(1).Engine.stats) in
  for pi = 2 to np - 1 do
    stats := Stats.merge !stats results.(pi).Engine.stats
  done;
  let stats = !stats in
  let horizon = max 1 (Stats.finish_time stats) in
  let num_mcs = Config.num_mcs cfg in
  let mc_owner = Array.make num_mcs (-1) in
  Array.iteri
    (fun pi p -> List.iter (fun m -> mc_owner.(m) <- pi) p.part_mcs)
    parts;
  let own_mc m none some =
    if mc_owner.(m) < 0 then none else some results.(mc_owner.(m))
  in
  let mc_occ_integral =
    Array.init num_mcs (fun m ->
        own_mc m 0. (fun r -> r.Engine.mc_occ_integral.(m)))
  in
  let mc_occupancy =
    Array.map (fun integral -> integral /. float_of_int horizon) mc_occ_integral
  in
  let link_busy =
    Array.init
      (Array.length results.(0).Engine.link_busy)
      (fun l ->
        Array.fold_left (fun acc r -> acc + r.Engine.link_busy.(l)) 0 results)
  in
  let link_utilization =
    Array.map (fun b -> float_of_int b /. float_of_int horizon) link_busy
  in
  let job_measured =
    Array.init n (fun i -> results.(job_part.(i)).Engine.job_measured.(i))
  in
  (match attr with
  | None -> ()
  | Some cube ->
    Array.iter
      (function
        | None -> ()
        | Some sub -> (
          match Obs.Attr.absorb cube (Obs.Attr.snapshot sub) with
          | Ok () -> ()
          | Error e -> invalid_arg ("Par_engine: " ^ e)))
      sub_attr;
    (* the per-partition engines published these gauges at their local
       horizons; recompute them at the merged horizon exactly as the
       sequential engine does *)
    Stats.set_link_utilization stats link_utilization);
  {
    Engine.stats;
    measured_time = Array.fold_left max 0 job_measured;
    job_measured;
    job_finish =
      Array.init n (fun i -> results.(job_part.(i)).Engine.job_finish.(i));
    job_start =
      Array.init n (fun i -> results.(job_part.(i)).Engine.job_start.(i));
    job_offchip =
      Array.init n (fun i -> results.(job_part.(i)).Engine.job_offchip.(i));
    job_fallbacks =
      Array.init n (fun i -> results.(job_part.(i)).Engine.job_fallbacks.(i));
    mc_occupancy;
    mc_row_hit_rate =
      Array.init num_mcs (fun m ->
          own_mc m 0. (fun r -> r.Engine.mc_row_hit_rate.(m)));
    mc_max_queue =
      Array.init num_mcs (fun m ->
          own_mc m 0 (fun r -> r.Engine.mc_max_queue.(m)));
    mc_occ_integral;
    link_utilization;
    link_busy;
    pages_allocated =
      Array.fold_left (fun acc r -> acc + r.Engine.pages_allocated) 0 results;
  }

let run (cfg : Config.t) ?desired_mc_of_vpage ?trace ?attr ?on_plan ~domains
    ~jobs () =
  let note s = match on_plan with Some f -> f s | None -> () in
  let sequential reason =
    note (describe (Sequential reason) ~domains);
    Engine.run cfg ?desired_mc_of_vpage ?trace ?attr ~jobs ()
  in
  if domains <= 1 then sequential "domains=1"
  else
    match trace with
    | Some t when Obs.Trace.enabled t -> sequential "request tracing is on"
    | _ -> (
      match plan cfg ?desired_mc_of_vpage ~jobs () with
      | Sequential reason -> sequential reason
      | Parallel parts as p ->
        note (describe p ~domains);
        run_parallel cfg ?desired_mc_of_vpage ?attr ~domains ~jobs parts)
