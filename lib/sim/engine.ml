module Sacache = Cache_sim.Sacache
module Directory = Cache_sim.Directory
module Fr_fcfs = Dram.Fr_fcfs
module Address_map = Dram.Address_map
module Page_alloc = Os_sim.Page_alloc

type job = {
  name : string;
  phases : Lang.Interp.phase list;
      (** may be shared between jobs: the engine never writes to it *)
  vaddr_offset : int;
      (** added to every access's vaddr at issue (a relocated trace) *)
  node_of_thread : int array;
  warmup_phases : int;
      (** leading phases (initialization nests) excluded from the
          statistics: the real applications amortize initialization over
          thousands of compute iterations, the models run only a few *)
  site_streams : int array array list;
      (** per-phase site-id streams, index-parallel to [phases]; [[]]
          leaves every access unattributed (the untagged fast path) *)
  start_time : int;
      (** earliest cycle the job may start (tenant arrival; 0 = at boot) *)
  start_after : int option;
      (** index of a job in the same run that must finish first — the
          consolidation server's per-slot FIFO admission chain *)
  free_vpage_range : (int * int) option;
      (** inclusive virtual-page range returned to the shared page
          allocator when the job finishes (tenant departure) *)
}

type result = {
  stats : Stats.t;
  measured_time : int;
  job_measured : int array;
      (** finish time minus the warmup barrier — the steady-state
          execution time used for the paper's comparisons *)
  job_finish : int array;
  job_start : int array;
  job_offchip : int array;
      (** per-job measured off-chip accesses; sums to the engine's
          [sim.offchip_accesses] counter by construction *)
  job_fallbacks : int array;
      (** per-job fallback page allocations (pages a job first-touched
          that could not be placed on their desired controller) *)
  mc_occupancy : float array;
  mc_row_hit_rate : float array;
  mc_max_queue : int array;
  mc_occ_integral : float array;
      (** raw per-controller queue-length integrals behind [mc_occupancy];
          the parallel merger re-divides them by the global horizon *)
  link_utilization : float array;
  link_busy : int array;
      (** raw per-link busy cycles behind [link_utilization] *)
  pages_allocated : int;
}

(* A request walking the Fig. 2 path.  [pend_*] holds network legs whose
   on-/off-chip category is not known yet (the leg to the directory).

   Requests are pooled: the engine recycles them through a freelist so the
   steady state allocates no request state per miss.  Every field a
   request carries between pipeline stages is mutable and reinitialized on
   allocation; the [a_*] fields are the request's preallocated event
   payloads, so scheduling a pipeline stage allocates nothing either.  A
   request has at most one event in flight at a time, and its slot is
   freed only in [complete_request], after its last event has been
   dispatched — which is also what keeps the tracer's span hooks safe:
   every span of a pooled request is emitted before its slot can be
   recycled. *)
type req = {
  slot : int;  (** pool index; the controller-request id while in flight *)
  mutable rid : int;  (** miss ordinal, the tracer's sampling key *)
  mutable rjob : int;
  mutable rthread : int;
  mutable rnode : int;  (** requester node (private) / L1 node (shared) *)
  mutable rpaddr : int;
  mutable rwrite : bool;
  mutable rsite : int;  (** access site (attribution); -1 = unattributed *)
  mutable home : int;  (** shared L2: home bank node *)
  mutable pend_hops : int;
  mutable pend_net : int;
  mutable mc : int;
  mutable mc_arrival : int;
  mutable rshared : bool;  (** walking the shared-L2 organization's path *)
  mutable rowner : int;  (** sharer node an [Owner_read] reads from *)
  mutable measured : bool;  (** issued after warmup: counts towards stats *)
  mutable traced : bool;  (** sampled by the request-path tracer *)
  mutable resume : bool;
      (** blocking (load / full store buffer): the thread restarts on fill;
          non-blocking store fills just release a store-buffer slot *)
  a_dir_decide : action;
  a_owner_read : action;
  a_home_decide : action;
  a_home_return : action;
  a_mc_arrive : action;
  a_fill : action;
}

and action =
  | Step of int * int  (** job, thread *)
  | Dir_decide of req
  | Owner_read of req  (** sharer node in [rowner] *)
  | Home_decide of req
  | Home_return of req
  | Mc_arrive of req  (** organization in [rshared] *)
  | Fill of req
  | Mc_wake of int
  | Wb_arrive of int * int  (** mc, paddr *)

type jstate = {
  j : job;
  jid : int;
  jphases : Lang.Interp.phase array;  (** [j.phases] as an array *)
  jsites : int array array array;  (** site streams per phase; [||] = none *)
  nphases : int;
  mutable phase : int;
  mutable streams : Lang.Interp.phase;
  mutable cur_sites : int array array;
      (** site streams of the current phase ([[||]] when untagged) *)
  pos : int array;
  mutable remaining : int;
  mutable barrier : int;
  mutable warmup_end : int;
  mutable finished : bool;
}

let ctrl_bytes = 8

let new_req slot =
  let rec r =
    {
      slot;
      rid = 0;
      rjob = 0;
      rthread = 0;
      rnode = 0;
      rpaddr = 0;
      rwrite = false;
      rsite = -1;
      home = 0;
      pend_hops = 0;
      pend_net = 0;
      mc = 0;
      mc_arrival = 0;
      rshared = false;
      rowner = 0;
      measured = false;
      traced = false;
      resume = false;
      a_dir_decide = Dir_decide r;
      a_owner_read = Owner_read r;
      a_home_decide = Home_decide r;
      a_home_return = Home_return r;
      a_mc_arrive = Mc_arrive r;
      a_fill = Fill r;
    }
  in
  r

let page_policy ?desired_mc_of_vpage (cfg : Config.t) =
  let cluster = Config.cluster cfg and topo = Config.topo cfg in
  (* first touch homes a page on the head controller of the touching
     node's cluster *)
  let cluster_head node =
    List.hd
      (Core.Cluster.mcs_of_cluster cluster
         (Core.Cluster.cluster_of_node cluster topo node))
  in
  match cfg.page_policy with
  | Config.Hardware -> Page_alloc.Hardware_interleaved
  | Config.First_touch -> Page_alloc.First_touch cluster_head
  | Config.Mc_aware ->
    let num_mcs = Config.num_mcs cfg in
    let desired =
      match desired_mc_of_vpage with
      | Some f -> f
      | None -> fun vpage -> Some (vpage mod num_mcs)
    in
    Page_alloc.Mc_aware { desired; fallback = cluster_head }

let run (cfg : Config.t) ?desired_mc_of_vpage ?(trace = Obs.Trace.disabled)
    ?attr ~jobs () =
  (* platform values hoisted into locals: the hot closures below must not
     pay the accessor indirection per access *)
  let topo = Config.topo cfg in
  let cluster = Config.cluster cfg in
  let placement = Config.placement cfg in
  let l2_line = Config.l2_line cfg in
  let nodes = Noc.Topology.nodes topo in
  let num_mcs = Core.Cluster.num_mcs cluster in
  let amap = Config.address_map cfg in
  let net = Noc.Network.create ~config:cfg.noc topo in
  let l1 =
    Array.init nodes (fun _ ->
        Sacache.create ~hash_sets:true ~size_bytes:cfg.l1_size
          ~line_bytes:cfg.l1_line ~ways:cfg.l1_ways ())
  in
  let l2 =
    Array.init nodes (fun _ ->
        Sacache.create ~hash_sets:true ~size_bytes:cfg.l2_size
          ~line_bytes:l2_line ~ways:cfg.l2_ways ())
  in
  let dir = Directory.create ~nodes in
  let stats = Stats.create ~nodes ~mcs:num_mcs in
  (* queue-depth distribution exported through the registry, installed
     only with attribution on: the extra metric must not perturb the
     byte-stable stats golden of plain runs *)
  let depth_hist =
    match attr with
    | None -> None
    | Some _ -> (
      match Obs.Metrics.histogram (Stats.registry stats) "mem.queue_depth" with
      | Ok h -> Some h
      | Error _ -> None)
  in
  let mcs =
    Array.init num_mcs (fun m ->
        (* queue-depth counter series for the trace viewer and (with
           attribution) the registry histogram; without either sink the
           controllers run hook-free *)
        let trace_on = Obs.Trace.enabled trace in
        let depth_hook =
          if trace_on || depth_hist <> None then
            Some
              (fun ~now ~depth ->
                if trace_on then
                  Obs.Trace.counter trace
                    ~name:(Printf.sprintf "mc%d queue depth" m)
                    ~pid:0 ~ts:now ~value:depth;
                match depth_hist with
                | Some h -> Obs.Metrics.observe h depth
                | None -> ())
          else None
        in
        Fr_fcfs.create ~timing:cfg.timing ~channels:(Config.channels_per_mc cfg)
          ~scheduler:cfg.mc_scheduler ~row_policy:cfg.mc_row_policy
          ?depth_hook ~banks:(Config.banks_per_mc cfg) ())
  in
  let mc_next_wake = Array.make num_mcs max_int in
  let pa =
    Page_alloc.create ~map:amap
      ~policy:(page_policy ?desired_mc_of_vpage cfg)
      ~frames_per_mc:cfg.frames_per_mc ()
  in
  let heap : action Event_heap.t = Event_heap.create () in
  let js =
    Array.of_list
      (List.mapi
         (fun jid j ->
           let jphases = Array.of_list j.phases in
           {
             j;
             jid;
             jphases;
             jsites = Array.of_list j.site_streams;
             nphases = Array.length jphases;
             phase = -1;
             streams = [||];
             cur_sites = [||];
             pos = Array.make (Array.length j.node_of_thread) 0;
             remaining = 0;
             barrier = 0;
             warmup_end = 0;
             finished = false;
           })
         jobs)
  in
  let job_finish = Array.make (Array.length js) 0 in
  let job_start = Array.make (Array.length js) 0 in
  let job_offchip = Array.make (Array.length js) 0 in
  (* per-slot admission chains: jobs waiting on a predecessor start when
     it finishes (and never before their own start_time) *)
  let successors = Array.make (Array.length js) [] in
  Array.iter
    (fun s ->
      match s.j.start_after with
      | Some p when p >= 0 && p < Array.length js && p <> s.jid ->
        successors.(p) <- successors.(p) @ [ s.jid ]
      | _ -> ())
    js;
  (* flat memo tables, built once from the topology and placement: the
     hot path never recomputes a controller site, a nearest-controller
     choice or a hop count (XY hop count = Manhattan distance) *)
  let mc_node_tbl =
    Array.init num_mcs (fun m -> Noc.Placement.mc_node placement m)
  in
  let mc_node m = mc_node_tbl.(m) in
  let nearest_tbl =
    Array.init nodes (fun n -> Noc.Placement.nearest placement topo n)
  in
  let nearest_mc node = nearest_tbl.(node) in
  (* a source's row of hop counts is built on its first use: the
     sources that send are few on a large mesh *)
  let hop_rows = Array.make nodes [||] in
  let hop_row src =
    if Array.length hop_rows.(src) = 0 then
      hop_rows.(src) <-
        Array.init nodes (fun dst -> Noc.Topology.distance topo src dst);
    hop_rows.(src)
  in
  let hops_between src dst = (hop_row src).(dst) in
  (* inter-chiplet off-chip traffic: the counter is registered only on
     hierarchical platforms, so flat runs' stats documents stay
     byte-identical; the origin-node × MC crossing table makes the hot
     path one array load *)
  let cross_chiplet =
    if Noc.Topology.num_chiplets topo > 1 then
      Some
        (Obs.Metrics.counter (Stats.registry stats) "sim.offchip_cross_chiplet")
    else None
  in
  let cross_tbl =
    match cross_chiplet with
    | None -> [||]
    | Some _ ->
      Array.init (nodes * num_mcs) (fun i ->
          Noc.Topology.chiplet_of_node topo (i / num_mcs)
          <> Noc.Topology.chiplet_of_node topo (mc_node (i mod num_mcs)))
  in
  (* per-(job, thread) and per-controller event payloads, preallocated so
     phase starts and controller wakes push shared immutable values *)
  let step_act =
    Array.map
      (fun s ->
        Array.init (Array.length s.j.node_of_thread) (fun tid ->
            Step (s.jid, tid)))
      js
  in
  let wake_act = Array.init num_mcs (fun m -> Mc_wake m) in
  let line_of paddr = paddr land lnot (l2_line - 1) in
  let data_bytes = l2_line + ctrl_bytes in
  let l1_fill_bytes = cfg.l1_line + ctrl_bytes in
  let issue_cost = cfg.compute_cycles * cfg.threads_per_core in
  let store_buffer_depth = 8 in
  let outstanding_stores =
    Array.map (fun s -> Array.make (Array.length s.j.node_of_thread) 0) js
  in
  (* per-thread xorshift state for issue jitter (deterministic; seed 0
     reproduces the historical streams bit-for-bit) *)
  let seed_mix = cfg.seed * 0x2545F4914F6CDD1D in
  let jitter_state =
    Array.map
      (fun s ->
        Array.init (Array.length s.j.node_of_thread) (fun t ->
            let x = ((s.jid * 131) + t + 1) * 2654435761 lxor seed_mix in
            if x = 0 then 1 else x))
      js
  in
  (* a power-of-two issue cost draws by mask: on the non-negative draw
     [x land max_int] that equals the [mod] *)
  let jitter_on = cfg.jitter && issue_cost > 1 in
  let jitter_mask =
    if Address_map.log2 issue_cost >= 0 then issue_cost - 1 else -1
  in
  let jitter jid tid =
    if not jitter_on then 0
    else begin
      let x = jitter_state.(jid).(tid) in
      let x = x lxor (x lsl 13) in
      let x = x lxor (x lsr 7) in
      let x = x lxor (x lsl 17) in
      jitter_state.(jid).(tid) <- x;
      if jitter_mask >= 0 then x land jitter_mask
      else (x land max_int) mod issue_cost
    end
  in
  (* shared L2: a line's home bank is its line number modulo the node
     count, and the bank-local view of its address strips those
     bank-select bits so a bank's sets index its own lines, not the
     global ones; shifts when the node count is a power of two *)
  let line_shift = Address_map.log2 l2_line in
  let node_shift = Address_map.log2 nodes in
  let shifts = line_shift >= 0 && node_shift >= 0 in
  let home_of paddr =
    if shifts then (paddr lsr line_shift) land (nodes - 1)
    else paddr / l2_line mod nodes
  in
  let bank_local paddr =
    if shifts then
      ((paddr lsr (line_shift + node_shift)) lsl line_shift)
      lor (paddr land (l2_line - 1))
    else
      let line = paddr / l2_line in
      ((line / nodes) * l2_line) + (paddr mod l2_line)
  in
  let log_leg ~measured ~offchip hops cycles =
    if measured then Stats.record_leg stats ~offchip ~hops ~cycles
  in
  let send ~now ~src ~dst ~bytes =
    Noc.Network.transfer net ~now ~src ~dst ~bytes
  in
  (* tracer plumbing: spans tagged with the request's job/node tracks; a
     request-bound send additionally records one "noc" span per link *)
  let span_req req ~cat ~name ~ts ~dur =
    if req.traced then
      Obs.Trace.span trace ~cat ~name ~pid:req.rjob ~tid:req.rnode ~ts ~dur ()
  in
  let send_req req ~now ~src ~dst ~bytes =
    if req.traced then
      Noc.Network.transfer net
        ~on_hop:(fun ~link ~start ~finish ->
          Obs.Trace.span trace ~cat:"noc"
            ~name:(Printf.sprintf "link %d" link)
            ~pid:req.rjob ~tid:req.rnode ~ts:start ~dur:(finish - start) ())
        ~now ~src ~dst ~bytes
    else send ~now ~src ~dst ~bytes
  in
  let miss_counter = ref 0 in
  (* the request pool: outstanding requests live in [pool] slots; a slot
     doubles as the controller-request id, so the former per-id Hashtbl
     becomes a direct array lookup ([pool.(completion.id)]).  Writebacks
     carry no state and use the sentinel id -1. *)
  let pool = ref [||] in
  let free_stack = ref [||] in
  let free_top = ref 0 in
  let grow_pool () =
    let old = Array.length !pool in
    let cap = max 256 (2 * old) in
    pool :=
      Array.init cap (fun i -> if i < old then !pool.(i) else new_req i);
    (* the freelist is empty when growing: refill it with the new slots *)
    free_stack := Array.make cap 0;
    free_top := 0;
    for i = cap - 1 downto old do
      !free_stack.(!free_top) <- i;
      incr free_top
    done
  in
  let alloc_req () =
    if !free_top = 0 then grow_pool ();
    decr free_top;
    !pool.(!free_stack.(!free_top))
  in
  let free_req (req : req) =
    !free_stack.(!free_top) <- req.slot;
    incr free_top
  in
  let wb_id = -1 in
  let schedule_mc_wake m tw =
    if tw < mc_next_wake.(m) then begin
      mc_next_wake.(m) <- tw;
      Event_heap.push heap ~time:tw wake_act.(m)
    end
  in
  let enqueue_mc ~now ~m ~id ?(write = false) paddr =
    Fr_fcfs.enqueue mcs.(m) ~now ~bank:(Address_map.bank_of_paddr amap paddr)
      ~row:(Address_map.row_of_paddr amap paddr)
      ~write ~id ();
    schedule_mc_wake m now
  in
  let writeback ~now ~src paddr =
    if not cfg.optimal then begin
      Stats.record_writeback stats;
      let m = Address_map.mc_of_paddr amap paddr in
      let arr = send ~now ~src ~dst:(mc_node m) ~bytes:data_bytes in
      Event_heap.push heap ~time:arr (Wb_arrive (m, paddr))
    end
  in
  (* ---- job lifecycle ---- *)
  (* A job starts when its start_time arrives and its admission-chain
     predecessor (if any) has finished; completion reclaims its pages and
     releases its successors.  An empty job completes at its start. *)
  let rec start_job s at =
    let at = Int.max at 0 in
    job_start.(s.jid) <- at;
    if s.j.warmup_phases <= 0 then s.warmup_end <- at;
    if s.nphases = 0 then complete_job s at
    else begin
      s.phase <- 0;
      s.streams <- s.jphases.(0);
      s.cur_sites <- (if Array.length s.jsites > 0 then s.jsites.(0) else [||]);
      s.remaining <- Array.length s.j.node_of_thread;
      for tid = 0 to Array.length s.j.node_of_thread - 1 do
        Event_heap.push heap ~time:at step_act.(s.jid).(tid)
      done
    end
  and complete_job s at =
    s.finished <- true;
    job_finish.(s.jid) <- at;
    if s.nphases > 0 then Stats.note_finish stats at;
    (match s.j.free_vpage_range with
    | Some (first_vpage, last_vpage) ->
      ignore (Page_alloc.free_region pa ~first_vpage ~last_vpage)
    | None -> ());
    List.iter
      (fun sid ->
        let succ = js.(sid) in
        start_job succ (Int.max succ.j.start_time at))
      successors.(s.jid)
  in
  (* ---- thread execution ---- *)
  let rec continue_thread jid tid t =
    let s = js.(jid) in
    let stream = s.streams.(tid) in
    let n = Array.length stream in
    let measured = s.phase >= s.j.warmup_phases in
    let offset = s.j.vaddr_offset in
    let rec go t =
      let i = s.pos.(tid) in
      if i >= n then finish_thread s tid t
      else begin
        s.pos.(tid) <- i + 1;
        let a = stream.(i) in
        let vaddr = Lang.Interp.addr_of_access a + offset
        and wr = Lang.Interp.is_write a in
        let node = s.j.node_of_thread.(tid) in
        let paddr = Page_alloc.translate_owned pa ~owner:jid ~node ~vaddr in
        if measured then Stats.record_access stats;
        let t = t + issue_cost + jitter jid tid in
        match Sacache.access l1.(node) ~addr:paddr ~write:wr with
        | Sacache.Hit ->
          if measured then Stats.record_l1_hit stats;
          go (t + cfg.l1_latency)
        | Sacache.Miss _ ->
          (* L1 fills at detection; L1 writebacks are not modeled *)
          let rid = !miss_counter in
          incr miss_counter;
          let traced = Obs.Trace.hit trace rid in
          if traced then
            Obs.Trace.span trace ~cat:"cache" ~name:"L1 miss" ~pid:jid
              ~tid:node ~ts:t ~dur:cfg.l1_latency ();
          (* the side-band site stream is index-parallel to the access
             stream; untagged jobs carry none and pay one length check *)
          let site =
            if Array.length s.cur_sites = 0 then -1 else s.cur_sites.(tid).(i)
          in
          let blocking =
            (not wr) || outstanding_stores.(jid).(tid) >= store_buffer_depth
          in
          if blocking then
            miss_path jid tid node paddr wr ~rid ~site ~traced ~measured
              ~resume:true
              (t + cfg.l1_latency)
          else begin
            (* store buffer absorbs the write miss; the fill proceeds in
               the background and the thread continues *)
            outstanding_stores.(jid).(tid) <- outstanding_stores.(jid).(tid) + 1;
            miss_path jid tid node paddr wr ~rid ~site ~traced ~measured
              ~resume:false
              (t + cfg.l1_latency);
            go (t + cfg.l1_latency)
          end
      end
    in
    go t
  and finish_thread s _tid t =
    s.remaining <- s.remaining - 1;
    s.barrier <- Int.max s.barrier t;
    if s.remaining = 0 then begin
      if s.phase = s.j.warmup_phases - 1 then s.warmup_end <- s.barrier;
      s.phase <- s.phase + 1;
      if s.phase < s.nphases then begin
        s.streams <- s.jphases.(s.phase);
        s.cur_sites <-
          (if s.phase < Array.length s.jsites then s.jsites.(s.phase)
           else [||]);
        Array.fill s.pos 0 (Array.length s.pos) 0;
        s.remaining <- Array.length s.j.node_of_thread;
        for tid = 0 to Array.length s.j.node_of_thread - 1 do
          Event_heap.push heap ~time:s.barrier step_act.(s.jid).(tid)
        done
      end
      else complete_job s s.barrier
    end
  and miss_path jid tid node paddr wr ~rid ~site ~traced ~measured ~resume t =
    match cfg.l2_org with
    | Config.Private_l2 ->
      miss_private jid tid node paddr wr ~rid ~site ~traced ~measured ~resume t
    | Config.Shared_l2 ->
      miss_shared jid tid node paddr wr ~rid ~site ~traced ~measured ~resume t
  and complete_request req t =
    let jid = req.rjob and tid = req.rthread and resume = req.resume in
    free_req req;
    if resume then continue_thread jid tid t
    else outstanding_stores.(jid).(tid) <- outstanding_stores.(jid).(tid) - 1
  and init_req req ~rid ~jid ~tid ~node ~paddr ~wr ~site ~home ~shared
      ~measured ~traced ~resume =
    req.rid <- rid;
    req.rjob <- jid;
    req.rthread <- tid;
    req.rnode <- node;
    req.rpaddr <- paddr;
    req.rwrite <- wr;
    req.rsite <- site;
    req.home <- home;
    req.pend_hops <- 0;
    req.pend_net <- 0;
    req.mc <- 0;
    req.mc_arrival <- 0;
    req.rshared <- shared;
    req.rowner <- 0;
    req.measured <- measured;
    req.traced <- traced;
    req.resume <- resume
  and miss_private jid tid node paddr wr ~rid ~site ~traced ~measured ~resume t
      =
    if traced then
      Obs.Trace.span trace ~cat:"cache" ~name:"L2 lookup" ~pid:jid ~tid:node
        ~ts:t ~dur:cfg.l2_latency ();
    let t = t + cfg.l2_latency in
    match Sacache.access l2.(node) ~addr:paddr ~write:wr with
    | Sacache.Hit ->
      if measured then Stats.record_l2_hit stats;
      if resume then continue_thread jid tid t
      else outstanding_stores.(jid).(tid) <- outstanding_stores.(jid).(tid) - 1
    | Sacache.Miss { evicted; evicted_dirty } ->
      let line = line_of paddr in
      (match evicted with
      | Some ev ->
        Directory.remove_holder dir ~line:ev ~node;
        if evicted_dirty then writeback ~now:t ~src:node ev
      | None -> ());
      Directory.add_holder dir ~line ~node;
      let req = alloc_req () in
      init_req req ~rid ~jid ~tid ~node ~paddr ~wr ~site ~home:node
        ~shared:false ~measured ~traced ~resume;
      if cfg.optimal then begin
        (* oracle lookup at miss time: sharers keep the normal on-chip
           path; off-chip goes straight to the nearest controller (the
           requester, already registered, is excluded) *)
        if
          Directory.closest_holder dir ~line ~excluding:node
            ~distance:(hop_row node)
          >= 0
        then begin
          let m = Address_map.mc_of_paddr amap paddr in
          req.mc <- m;
          let dst = mc_node m in
          let arr = send_req req ~now:t ~src:node ~dst ~bytes:ctrl_bytes in
          req.pend_hops <- hops_between node dst;
          req.pend_net <- arr - t;
          Event_heap.push heap ~time:arr req.a_dir_decide
        end
        else begin
          let m = nearest_mc node in
          req.mc <- m;
          let dst = mc_node m in
          let arr = send_req req ~now:t ~src:node ~dst ~bytes:ctrl_bytes in
          log_leg ~measured:req.measured ~offchip:true (hops_between node dst)
            (arr - t);
          Event_heap.push heap ~time:arr req.a_mc_arrive
        end
      end
      else begin
        let m = Address_map.mc_of_paddr amap paddr in
        req.mc <- m;
        let dst = mc_node m in
        let arr = send_req req ~now:t ~src:node ~dst ~bytes:ctrl_bytes in
        req.pend_hops <- hops_between node dst;
        req.pend_net <- arr - t;
        Event_heap.push heap ~time:arr req.a_dir_decide
      end
  and miss_shared jid tid node paddr wr ~rid ~site ~traced ~measured ~resume t
      =
    let home = home_of paddr in
    let req = alloc_req () in
    init_req req ~rid ~jid ~tid ~node ~paddr ~wr ~site ~home ~shared:true
      ~measured ~traced ~resume;
    if home = node then home_decide req t
    else begin
      let arr = send_req req ~now:t ~src:node ~dst:home ~bytes:ctrl_bytes in
      log_leg ~measured:req.measured ~offchip:false (hops_between node home)
        (arr - t);
      Event_heap.push heap ~time:arr req.a_home_decide
    end
  and home_decide req t =
    span_req req ~cat:"cache" ~name:"L2 home" ~ts:t ~dur:cfg.l2_latency;
    let t = t + cfg.l2_latency in
    match
      Sacache.access l2.(req.home) ~addr:(bank_local req.rpaddr) ~write:false
    with
    | Sacache.Hit ->
      if req.measured then Stats.record_l2_hit stats;
      send_home_to_requester req t
    | Sacache.Miss { evicted; evicted_dirty } ->
      (match evicted with
      | Some ev when evicted_dirty ->
        (* reconstruct a representative global address for the evicted
           bank-local line: same bank, same local line *)
        let local_line = ev / l2_line in
        let global = ((local_line * nodes) + req.home) * l2_line in
        writeback ~now:t ~src:req.home global
      | _ -> ());
      let m =
        if cfg.optimal then nearest_mc req.home
        else Address_map.mc_of_paddr amap req.rpaddr
      in
      req.mc <- m;
      let dst = mc_node m in
      let arr = send_req req ~now:t ~src:req.home ~dst ~bytes:ctrl_bytes in
      log_leg ~measured:req.measured ~offchip:true (hops_between req.home dst)
        (arr - t);
      Event_heap.push heap ~time:arr req.a_mc_arrive
  and send_home_to_requester req t =
    if req.home = req.rnode then complete_request req t
    else begin
      let arr =
        send_req req ~now:t ~src:req.home ~dst:req.rnode ~bytes:l1_fill_bytes
      in
      log_leg ~measured:req.measured ~offchip:false
        (hops_between req.home req.rnode)
        (arr - t);
      Event_heap.push heap ~time:arr req.a_fill
    end
  and mc_arrive req t =
    if req.measured then begin
      let origin = if req.rshared then req.home else req.rnode in
      Stats.record_offchip stats ~origin ~mc:req.mc;
      (match cross_chiplet with
      | Some c when cross_tbl.((origin * num_mcs) + req.mc) ->
        Obs.Metrics.incr c
      | _ -> ());
      (* per-job split of the same counter: sums to sim.offchip_accesses *)
      job_offchip.(req.rjob) <- job_offchip.(req.rjob) + 1;
      (* attribution rides the same gate as record_offchip, so the cube
         total always equals the off-chip counter *)
      match attr with
      | Some a ->
        Obs.Attr.record a ~site:req.rsite ~mc:req.mc
          ~bank:(Address_map.bank_of_paddr amap req.rpaddr)
          ~hops:(hops_between origin (mc_node req.mc))
      | None -> ()
    end;
    req.mc_arrival <- t;
    if cfg.optimal then begin
      (* idealized controller: uncontended row-empty access *)
      let service = cfg.timing.Dram.Timing.row_empty in
      let finish = t + service in
      if req.measured then begin
        Stats.record_memory stats ~latency:service ~queue:0 ~row_hit:false;
        match attr with
        | Some a -> Obs.Attr.record_queue a ~site:req.rsite ~queue:0
        | None -> ()
      end;
      span_req req ~cat:"dram" ~name:"bank" ~ts:t ~dur:service;
      mc_respond req finish
    end
    else enqueue_mc ~now:t ~m:req.mc ~id:req.slot req.rpaddr
  and mc_respond req t =
    let src = mc_node req.mc in
    let dst = if req.rshared then req.home else req.rnode in
    let arr = send_req req ~now:t ~src ~dst ~bytes:data_bytes in
    log_leg ~measured:req.measured ~offchip:true (hops_between src dst)
      (arr - t);
    if req.rshared then Event_heap.push heap ~time:arr req.a_home_return
    else Event_heap.push heap ~time:arr req.a_fill
  in
  let dispatch t = function
    | Step (jid, tid) -> continue_thread jid tid t
    | Dir_decide req -> (
      span_req req ~cat:"cache" ~name:"directory" ~ts:t
        ~dur:cfg.directory_latency;
      let t = t + cfg.directory_latency in
      let line = line_of req.rpaddr in
      let h =
        Directory.closest_holder dir ~line ~excluding:req.rnode
          ~distance:(hop_row req.rnode)
      in
      if h >= 0 then begin
        (* on-chip: the pending request leg was on-chip after all *)
        log_leg ~measured:req.measured ~offchip:false req.pend_hops
          req.pend_net;
        if req.measured then Stats.record_l2_hit stats;
        (* a write transfer invalidates every other copy (coherence
           traffic, charged on the links but not waited for) *)
        if req.rwrite then
          List.iter
            (fun holder ->
              if holder <> req.rnode && holder <> h then begin
                Directory.remove_holder dir ~line ~node:holder;
                ignore (Sacache.invalidate l2.(holder) ~addr:req.rpaddr);
                ignore
                  (send ~now:t ~src:(mc_node req.mc) ~dst:holder
                     ~bytes:ctrl_bytes)
              end)
            (Directory.holders dir ~line);
        let src = mc_node req.mc in
        let arr = send_req req ~now:t ~src ~dst:h ~bytes:ctrl_bytes in
        log_leg ~measured:req.measured ~offchip:false (hops_between src h)
          (arr - t);
        req.rowner <- h;
        Event_heap.push heap ~time:arr req.a_owner_read
      end
      else begin
        log_leg ~measured:req.measured ~offchip:true req.pend_hops
          req.pend_net;
        if cfg.optimal then req.mc <- nearest_mc req.rnode;
        mc_arrive req t
      end)
    | Owner_read req ->
      let h = req.rowner in
      span_req req ~cat:"cache" ~name:"L2 peer" ~ts:t ~dur:cfg.l2_latency;
      let t = t + cfg.l2_latency in
      (* the line is in h's L2 (kept in sync via the directory); a write
         transfer takes it exclusively *)
      if req.rwrite then begin
        Directory.remove_holder dir ~line:(line_of req.rpaddr) ~node:h;
        ignore (Sacache.invalidate l2.(h) ~addr:req.rpaddr)
      end
      else ignore (Sacache.access l2.(h) ~addr:req.rpaddr ~write:false);
      let arr = send_req req ~now:t ~src:h ~dst:req.rnode ~bytes:data_bytes in
      log_leg ~measured:req.measured ~offchip:false (hops_between h req.rnode)
        (arr - t);
      Event_heap.push heap ~time:arr req.a_fill
    | Home_decide req -> home_decide req t
    | Home_return req -> send_home_to_requester req t
    | Mc_arrive req -> mc_arrive req t
    | Fill req -> complete_request req t
    | Mc_wake m ->
      (* stale wakes (superseded by an earlier reschedule) are dropped,
         otherwise every stale pop would spawn a fresh wake and the event
         population would snowball *)
      if t = mc_next_wake.(m) then begin
        mc_next_wake.(m) <- max_int;
        let completions = Fr_fcfs.advance mcs.(m) ~now:t in
        List.iter
          (fun (c : Fr_fcfs.completion) ->
            if c.id <> wb_id then begin
              let req = !pool.(c.id) in
              Stats.record_memory stats
                ~latency:(c.finish - req.mc_arrival)
                ~queue:c.queue_delay ~row_hit:c.row_hit;
              (match attr with
              | Some a when req.measured ->
                Obs.Attr.record_queue a ~site:req.rsite ~queue:c.queue_delay
              | _ -> ());
              span_req req ~cat:"mc-queue" ~name:"queue" ~ts:req.mc_arrival
                ~dur:c.queue_delay;
              span_req req ~cat:"dram" ~name:"bank" ~ts:c.start
                ~dur:(c.finish - c.start);
              mc_respond req c.finish
            end)
          completions;
        match Fr_fcfs.next_wake mcs.(m) with
        | Some tw -> schedule_mc_wake m (Int.max tw (t + 1))
        | None -> ()
      end
    | Wb_arrive (m, paddr) -> enqueue_mc ~now:t ~m ~id:wb_id ~write:true paddr
  in
  (* ---- start all unchained jobs (chained ones start on completion of
     their predecessor) ---- *)
  let chained s =
    match s.j.start_after with
    | Some p -> p >= 0 && p < Array.length js && p <> s.jid
    | None -> false
  in
  Array.iter (fun s -> if not (chained s) then start_job s s.j.start_time) js;
  let rec loop () =
    if not (Event_heap.is_empty heap) then begin
      let t = Event_heap.next_time heap in
      let action = Event_heap.pop_payload heap in
      dispatch t action;
      loop ()
    end
  in
  loop ();
  Stats.set_page_fallbacks stats (Page_alloc.fallback_allocations pa);
  let job_measured =
    Array.map (fun s -> max 0 (job_finish.(s.jid) - s.warmup_end)) js
  in
  let measured_time = Array.fold_left max 0 job_measured in
  let horizon = max 1 (Stats.finish_time stats) in
  let link_utilization = Noc.Network.utilization net ~at:horizon in
  (* per-link utilization summarized into the registry — gated on
     attribution like the queue-depth histogram, so --stats-json carries
     the mesh-contention profile even with tracing off while plain runs
     stay byte-identical *)
  if Option.is_some attr then Stats.set_link_utilization stats link_utilization;
  {
    stats;
    measured_time;
    job_measured;
    job_finish;
    job_start;
    job_offchip;
    job_fallbacks =
      Array.init (Array.length js) (fun j ->
          Page_alloc.fallback_allocations_of pa ~owner:j);
    mc_occupancy = Array.map (fun m -> Fr_fcfs.occupancy m ~at:horizon) mcs;
    mc_row_hit_rate =
      Array.map
        (fun m ->
          let s = Fr_fcfs.served m in
          if s = 0 then 0.
          else float_of_int (Fr_fcfs.row_hits m) /. float_of_int s)
        mcs;
    mc_max_queue = Array.map Fr_fcfs.max_pending mcs;
    mc_occ_integral = Array.map (fun m -> Fr_fcfs.occ_integral_at m ~at:horizon) mcs;
    link_utilization;
    link_busy = Noc.Network.link_busy net;
    pages_allocated = Page_alloc.pages_allocated pa;
  }
