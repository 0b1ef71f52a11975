(* Partition-confined parallel simulation: see par_engine.mli for the
   protocol argument.  The plan is one union-find over clusters: every
   way two clusters could exchange an event joins them, and each set
   that runs jobs becomes a partition.  Its page scan is O(accesses)
   per distinct trace plus O(distinct pages) per job. *)

type partition = {
  part_clusters : int list;
  part_mcs : int list;
  part_jobs : int list;
}

type plan = Parallel of partition array | Sequential of string

exception Reject of string

let rejectf fmt = Printf.ksprintf (fun s -> raise (Reject s)) fmt

(* --- the confinement plan --------------------------------------------- *)

(* Union-find over clusters; a set's root is its lowest cluster.  [live]
   counts the sets that run jobs: the join that leaves one of them can
   only end in a sequential run, so it raises with what caused it. *)
type sets = { parent : int array; has_jobs : bool array; mutable live : int }

let rec find u c =
  let p = u.parent.(c) in
  if p = c then c
  else begin
    let r = find u p in
    u.parent.(c) <- r;
    r
  end

let join u a b what =
  let ra = find u a and rb = find u b in
  if ra <> rb then begin
    let lo = min ra rb and hi = max ra rb in
    u.parent.(hi) <- lo;
    if u.has_jobs.(lo) && u.has_jobs.(hi) then begin
      u.live <- u.live - 1;
      if u.live < 2 then
        rejectf "%s joins clusters %d and %d" (what ()) (min a b) (max a b)
    end;
    u.has_jobs.(lo) <- u.has_jobs.(lo) || u.has_jobs.(hi)
  end

(* Messages travel on the XY routes between a set's nodes and controller
   sites; two sets whose routes share a mesh link contend on it.  Joining
   adds routes, so the pass repeats until no link is shared. *)
let rec join_shared_links cfg u =
  let topo = Config.topo cfg and cluster = Config.cluster cfg in
  let pl = Config.placement cfg in
  let ends = Array.make (Array.length u.parent) [] in
  let add c n =
    let r = find u c in
    if u.has_jobs.(r) then ends.(r) <- n :: ends.(r)
  in
  for n = 0 to Noc.Topology.nodes topo - 1 do
    add (Core.Cluster.cluster_of_node cluster topo n) n
  done;
  for m = 0 to Config.num_mcs cfg - 1 do
    add (Core.Cluster.cluster_of_mc cluster m) (Noc.Placement.mc_node pl m)
  done;
  let owner = Array.make (Noc.Topology.num_link_ids topo) (-1) in
  let joined = ref false in
  Array.iteri
    (fun r endpoints ->
      let endpoints = List.sort_uniq compare endpoints in
      List.iter
        (fun src ->
          List.iter
            (fun dst ->
              if src <> dst then
                Array.iter
                  (fun l ->
                    let o = owner.(l) in
                    if o < 0 then owner.(l) <- r
                    else if find u o <> find u r then begin
                      join u o r (fun () -> Printf.sprintf "mesh link %d" l);
                      joined := true
                    end)
                  (Noc.Topology.link_ids topo ~src ~dst))
            endpoints)
        endpoints)
    ends;
  if !joined then join_shared_links cfg u

(* The distinct virtual pages of a trace, in first-touch order.
   O(accesses), with a last-page fast path. *)
let first_touches ~page_bytes phases =
  let seen : (int, unit) Hashtbl.t = Hashtbl.create 4096 in
  let order = ref [] in
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
                if not (Hashtbl.mem seen v) then begin
                  Hashtbl.add seen v ();
                  order := v :: !order
                end
              end)
            stream)
        phase)
    phases;
  Array.of_list (List.rev !order)

let plan (cfg : Config.t) ?desired_mc_of_vpage ~(jobs : Engine.job list) () =
  let cluster = Config.cluster cfg and topo = Config.topo cfg in
  let cluster_of_node = Core.Cluster.cluster_of_node cluster topo in
  let num_clusters = Core.Cluster.num_clusters cluster in
  let num_mcs = Config.num_mcs cfg in
  let js = Array.of_list jobs in
  let n = Array.length js in
  try
    if n = 0 then raise (Reject "no jobs");
    if cfg.Config.l2_org <> Config.Private_l2 then
      raise (Reject "shared L2 homes lines across clusters");
    if Config.interleaving cfg <> Dram.Address_map.Page_interleaved then
      raise (Reject "line interleaving uses one global frame allocator");
    let threads = Array.map (fun (j : Engine.job) -> j.Engine.node_of_thread) js in
    (* a node of every cluster that runs a thread: pages are placed as if
       first touched from it *)
    let rep_node = Array.make num_clusters (-1) in
    Array.iteri
      (fun i nodes ->
        if nodes = [||] then
          rejectf "job %d (%s) has no threads" i js.(i).Engine.name;
        Array.iter
          (fun nd ->
            let c = cluster_of_node nd in
            if rep_node.(c) < 0 then rep_node.(c) <- nd)
          nodes)
      threads;
    let has_jobs = Array.map (fun nd -> nd >= 0) rep_node in
    let u =
      {
        parent = Array.init num_clusters Fun.id;
        has_jobs;
        live = Array.fold_left (fun k b -> k + Bool.to_int b) 0 has_jobs;
      }
    in
    if u.live < 2 then raise (Reject "all jobs live in one cluster");
    let job_cluster = Array.map (fun nodes -> cluster_of_node nodes.(0)) threads in
    let pl = Config.placement cfg in
    Array.iteri
      (fun i (j : Engine.job) ->
        Array.iter
          (fun nd ->
            let c = cluster_of_node nd in
            join u job_cluster.(i) c (fun () ->
                Printf.sprintf "job %d (%s)" i j.Engine.name);
            (* the optimal scheme sends every miss to the requester's
               nearest controller, whatever cluster owns it *)
            if cfg.Config.optimal then begin
              let m = Noc.Placement.nearest pl topo nd in
              join u c (Core.Cluster.cluster_of_mc cluster m) (fun () ->
                  Printf.sprintf "node %d's nearest controller %d" nd m)
            end)
          j.Engine.node_of_thread;
        match j.Engine.start_after with
        (* same liveness rule as the engine: only in-range non-self
           predecessors actually chain *)
        | Some p when p >= 0 && p < n && p <> i ->
          join u job_cluster.(p) job_cluster.(i) (fun () ->
              Printf.sprintf "job %d (%s)'s admission chain after job %d" i
                j.Engine.name p)
        | _ -> ())
      js;
    (* vpage -> first cluster seen touching it, over every access of every
       job (warmup included — warmup accesses allocate pages too).  Only a
       page's first touch within a job can change the plan (a later one
       finds the page owned by that job's cluster or already joined to
       it), so each job replays its trace's distinct pages in first-touch
       order, shifted by its offset — scanned once per shared trace. *)
    let page_bytes = Config.page_bytes cfg in
    let owner : (int, int) Hashtbl.t = Hashtbl.create 4096 in
    let scanned = ref [] in
    Array.iteri
      (fun i (j : Engine.job) ->
        let c = job_cluster.(i) in
        let off = j.Engine.vaddr_offset in
        (* relocation moves traces by whole pages; any other offset
           would split a trace page across two *)
        if off mod page_bytes <> 0 then
          rejectf "job %d (%s)'s address offset %d is not page-aligned" i
            j.Engine.name off;
        let pages =
          match List.assq_opt j.Engine.phases !scanned with
          | Some pages -> pages
          | None ->
            let pages = first_touches ~page_bytes j.Engine.phases in
            scanned := (j.Engine.phases, pages) :: !scanned;
            pages
        in
        let shift = off / page_bytes in
        Array.iter
          (fun v ->
            let v = v + shift in
            match Hashtbl.find_opt owner v with
            | Some c' ->
              if c' <> c then
                join u c' c (fun () -> Printf.sprintf "virtual page %d" v)
            | None -> Hashtbl.add owner v c)
          pages)
      js;
    let frees =
      List.filter_map
        (fun i -> Option.map (fun r -> (i, r)) js.(i).Engine.free_vpage_range)
        (List.init n Fun.id)
    in
    let policy = Engine.page_policy ?desired_mc_of_vpage cfg in
    let mc_pages = Array.make num_mcs 0 in
    Hashtbl.iter
      (fun v c ->
        List.iter
          (fun (i, (a, b)) ->
            if v >= a && v <= b then
              join u job_cluster.(i) c (fun () ->
                  Printf.sprintf "job %d freeing virtual page %d" i v))
          frees;
        (* within its frame budget a page lands on its home controller *)
        let m =
          Os_sim.Page_alloc.home_mc policy ~num_mcs ~node:rep_node.(c) ~vpage:v
        in
        if m < 0 || m >= num_mcs then
          rejectf "virtual page %d desires controller %d, out of range" v m;
        mc_pages.(m) <- mc_pages.(m) + 1;
        join u c (Core.Cluster.cluster_of_mc cluster m) (fun () ->
            Printf.sprintf "virtual page %d's controller %d" v m))
      owner;
    Array.iteri
      (fun m pages ->
        if pages > cfg.Config.frames_per_mc then
          rejectf "controller %d needs %d frames but has %d" m pages
            cfg.Config.frames_per_mc)
      mc_pages;
    join_shared_links cfg u;
    let clusters = List.init num_clusters Fun.id in
    let parts =
      List.filter (fun c -> find u c = c && u.has_jobs.(c)) clusters
      |> List.map (fun r ->
             let part_clusters = List.filter (fun c -> find u c = r) clusters in
             {
               part_clusters;
               part_mcs =
                 List.sort compare
                   (List.concat_map (Core.Cluster.mcs_of_cluster cluster)
                      part_clusters);
               part_jobs =
                 List.filter
                   (fun i -> find u job_cluster.(i) = r)
                   (List.init n Fun.id);
             })
    in
    Parallel (Array.of_list parts)
  with Reject reason -> Sequential reason

let describe plan ~domains =
  match plan with
  | Sequential reason -> Printf.sprintf "sequential engine (%s)" reason
  | Parallel parts ->
    let name p = String.concat "+" (List.map string_of_int p.part_clusters) in
    let w = min domains (Array.length parts) in
    Printf.sprintf "parallel: %d partitions (clusters %s) on %d worker domain%s"
      (Array.length parts)
      (String.concat "," (Array.to_list (Array.map name parts)))
      w
      (if w = 1 then "" else "s")

(* --- partitioned execution and the deterministic merge ---------------- *)

(* [Array.map f xs] on up to [workers] domains.  Worker k owns indices
   k, k+w, k+2w, ... and results land at their input's index, so the
   schedule is deterministic.  The calling domain is worker 0 (w workers
   cost w-1 spawns); every domain is joined before the first failure, if
   any, is re-raised. *)
let map_workers ~workers f xs =
  let n = Array.length xs in
  let w = max 1 (min workers n) in
  let results = Array.make n None in
  let strip k () =
    let i = ref k in
    while !i < n do
      results.(!i) <- Some (f xs.(!i));
      i := !i + w
    done
  in
  let spawned = List.init (w - 1) (fun k -> Domain.spawn (strip (k + 1))) in
  let own = try Ok (strip 0 ()) with e -> Error e in
  let joined = List.map (fun d -> try Ok (Domain.join d) with e -> Error e) spawned in
  List.iter (function Error e -> raise e | Ok () -> ()) (own :: joined);
  Array.map Option.get results

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
  let stats =
    Array.fold_left
      (fun acc r -> Stats.merge acc r.Engine.stats)
      results.(0).Engine.stats (Array.sub results 1 (np - 1))
  in
  let horizon = max 1 (Stats.finish_time stats) in
  let num_mcs = Config.num_mcs cfg in
  let mc_owner = Array.make num_mcs (-1) in
  Array.iteri
    (fun pi p -> List.iter (fun m -> mc_owner.(m) <- pi) p.part_mcs)
    parts;
  (* every per-job cell comes from the partition that ran the job, every
     per-controller cell from the partition owning the controller (a
     controller nobody owns served nothing) *)
  let per_job f = Array.init n (fun i -> f results.(job_part.(i)) i) in
  let per_mc zero f =
    Array.init num_mcs (fun m ->
        if mc_owner.(m) < 0 then zero else f results.(mc_owner.(m)) m)
  in
  let mc_occ_integral = per_mc 0. (fun r m -> r.Engine.mc_occ_integral.(m)) in
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
  let job_measured = per_job (fun r i -> r.Engine.job_measured.(i)) in
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
    job_finish = per_job (fun r i -> r.Engine.job_finish.(i));
    job_start = per_job (fun r i -> r.Engine.job_start.(i));
    job_offchip = per_job (fun r i -> r.Engine.job_offchip.(i));
    job_fallbacks = per_job (fun r i -> r.Engine.job_fallbacks.(i));
    mc_occupancy;
    mc_row_hit_rate = per_mc 0. (fun r m -> r.Engine.mc_row_hit_rate.(m));
    mc_max_queue = per_mc 0 (fun r m -> r.Engine.mc_max_queue.(m));
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
