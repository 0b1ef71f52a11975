(* Layer replay kernels: an operation's own access stream, replayed
   through one public function of each layer inside the engine, timed
   per call.  The L1 replay yields the miss stream; the page allocator
   translates it; the network carries each miss to its controller; the
   controllers queue and serve it; the event heap orders one pending
   event per thread, as the engine's loop does. *)

module Config = Sim.Config
module Sacache = Cache_sim.Sacache
module Page_alloc = Os_sim.Page_alloc
module Address_map = Dram.Address_map
module Fr_fcfs = Dram.Fr_fcfs
module Heap = Sim.Event_heap

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Host ns per call of [f]'s [calls] calls, median of five fresh runs. *)
let ns_per ~calls f =
  let runs =
    List.init 5 (fun _ ->
        let t0 = Unix.gettimeofday () in
        f ();
        (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int (max 1 calls))
  in
  median runs

let l1s cfg nodes =
  Array.init nodes (fun _ ->
      Sacache.create ~hash_sets:true ~size_bytes:cfg.Config.l1_size
        ~line_bytes:cfg.Config.l1_line ~ways:cfg.Config.l1_ways ())

let policy cfg (p : Sim.Runner.prepared) =
  let cluster = Config.cluster cfg and topo = Config.topo cfg in
  let home node =
    List.hd
      (Core.Cluster.mcs_of_cluster cluster
         (Core.Cluster.cluster_of_node cluster topo node))
  in
  match cfg.Config.page_policy with
  | Config.Hardware -> Page_alloc.Hardware_interleaved
  | Config.First_touch -> Page_alloc.First_touch home
  | Config.Mc_aware ->
    Page_alloc.Mc_aware { desired = p.Sim.Runner.desired_mc; fallback = home }

(* [(name, ns per call)] for the five kernels over [p]'s stream. *)
let replay cfg (p : Sim.Runner.prepared) =
  let job = p.Sim.Runner.job in
  let node_of = job.Sim.Engine.node_of_thread in
  let topo = Config.topo cfg in
  let nodes = Noc.Topology.nodes topo in
  let streams =
    List.concat_map
      (fun phase ->
        Array.to_list (Array.mapi (fun t s -> (node_of.(t), s)) phase))
      job.Sim.Engine.phases
  in
  let accesses =
    List.fold_left (fun n (_, s) -> n + Array.length s) 0 streams
  in
  let cache l1 (node, s) =
    Array.iter
      (fun a ->
        ignore
          (Sacache.access l1.(node) ~addr:(Lang.Interp.addr_of_access a)
             ~write:(Lang.Interp.is_write a)))
      s
  in
  (* the miss stream, once, untimed *)
  let miss_node = ref [] and miss_addr = ref [] in
  let l1 = l1s cfg nodes in
  List.iter
    (fun (node, s) ->
      Array.iter
        (fun a ->
          let addr = Lang.Interp.addr_of_access a in
          let write = Lang.Interp.is_write a in
          match Sacache.access l1.(node) ~addr ~write with
          | Sacache.Hit -> ()
          | Sacache.Miss _ ->
            miss_node := node :: !miss_node;
            miss_addr := addr :: !miss_addr)
        s)
    streams;
  let miss_node = Array.of_list (List.rev !miss_node) in
  let miss_addr = Array.of_list (List.rev !miss_addr) in
  let misses = Array.length miss_node in
  let amap = Config.address_map cfg in
  let translate () =
    let pa = Page_alloc.create ~map:amap ~policy:(policy cfg p) () in
    Array.mapi
      (fun i node -> Page_alloc.translate pa ~node ~vaddr:miss_addr.(i))
      miss_node
  in
  let paddr = translate () in
  let placement = Config.placement cfg in
  let mc = Array.map (Address_map.mc_of_paddr amap) paddr in
  let sacache_ns =
    ns_per ~calls:accesses (fun () ->
        let l1 = l1s cfg nodes in
        List.iter (cache l1) streams)
  in
  let page_alloc_ns = ns_per ~calls:misses (fun () -> ignore (translate ())) in
  let network_ns =
    let dst = Array.map (Noc.Placement.mc_node placement) mc in
    ns_per ~calls:misses (fun () ->
        let net = Noc.Network.create ~config:cfg.Config.noc topo in
        Array.iteri
          (fun i src ->
            ignore
              (Noc.Network.transfer net ~now:(2 * i) ~src ~dst:dst.(i)
                 ~bytes:(Config.l2_line cfg)))
          miss_node)
  in
  let fr_fcfs_ns =
    ns_per ~calls:misses (fun () ->
        let mcs =
          Array.init (Config.num_mcs cfg) (fun _ ->
              Fr_fcfs.create ~timing:cfg.Config.timing
                ~channels:(Config.channels_per_mc cfg)
                ~scheduler:cfg.Config.mc_scheduler
                ~row_policy:cfg.Config.mc_row_policy
                ~banks:(Config.banks_per_mc cfg) ())
        in
        (* blocking cores keep a controller's queue short: once it holds
           [depth] requests, time moves to its next issue *)
        let depth = 8 in
        let clock = Array.make (Array.length mcs) 0 in
        Array.iteri
          (fun i m ->
            let c = mcs.(m) in
            clock.(m) <- max clock.(m) (2 * i);
            Fr_fcfs.enqueue c ~now:clock.(m)
              ~bank:(Address_map.bank_of_paddr amap paddr.(i))
              ~row:(Address_map.row_of_paddr amap paddr.(i))
              ~id:i ();
            ignore (Fr_fcfs.advance c ~now:clock.(m));
            while Fr_fcfs.pending c > depth do
              match Fr_fcfs.next_wake c with
              | Some t ->
                clock.(m) <- max clock.(m) t;
                ignore (Fr_fcfs.advance c ~now:clock.(m))
              | None -> ()
            done)
          mc;
        Array.iter
          (fun c ->
            let rec drain () =
              match Fr_fcfs.next_wake c with
              | Some t ->
                ignore (Fr_fcfs.advance c ~now:t);
                drain ()
              | None -> ()
            in
            drain ())
          mcs)
  in
  let event_heap_ns =
    (* per phase (phases end at a barrier): one pending event per thread,
       re-armed after each of its accesses *)
    let phase threads =
      let heap : int Heap.t = Heap.create () in
      let pos = Array.make (Array.length threads) 0 in
      Array.iteri (fun t _ -> Heap.push heap ~time:0 t) threads;
      while not (Heap.is_empty heap) do
        let now = Heap.next_time heap in
        let t = Heap.pop_payload heap in
        let s = threads.(t) in
        if pos.(t) < Array.length s then begin
          let a = s.(pos.(t)) in
          pos.(t) <- pos.(t) + 1;
          Heap.push heap ~time:(now + 2 + ((a lsr 7) land 7)) t
        end
      done
    in
    ns_per ~calls:accesses (fun () -> List.iter phase job.Sim.Engine.phases)
  in
  [
    ("kernel.sacache_ns", sacache_ns);
    ("kernel.page_alloc_ns", page_alloc_ns);
    ("kernel.network_ns", network_ns);
    ("kernel.fr_fcfs_ns", fr_fcfs_ns);
    ("kernel.event_heap_ns", event_heap_ns);
  ]
