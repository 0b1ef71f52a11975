module M = Obs.Metrics

type t = {
  reg : M.registry;
  c_total_accesses : M.counter;
  c_l1_hits : M.counter;
  c_l2_hits : M.counter;
  c_offchip_accesses : M.counter;
  c_onchip_net_cycles : M.counter;
  c_onchip_messages : M.counter;
  c_offchip_net_cycles : M.counter;
  c_offchip_messages : M.counter;
  c_memory_cycles : M.counter;
  c_memory_queue_cycles : M.counter;
  c_row_hits : M.counter;
  c_writebacks : M.counter;
  c_page_fallbacks : M.counter;
  g_finish_time : M.gauge;
  h_mem_latency : M.histogram;  (** log2-bucketed per-read latency *)
  h_mem_queue : M.histogram;
  (* hop histograms for the Fig. 15 CDFs (index = links traversed) *)
  onchip_hops : int array;
  offchip_hops : int array;
  (* off-chip requests per (requester node, controller) — Fig. 13 *)
  node_mc_requests : int array array;
}

let max_hops = 64

(* a fresh registry cannot hold a conflicting registration, so the
   histogram Result is safe to force here *)
let fresh_histogram reg name =
  match M.histogram reg name with
  | Ok h -> h
  | Error e -> invalid_arg e

let create ~nodes ~mcs =
  let reg = M.create () in
  {
    reg;
    c_total_accesses = M.counter reg "sim.total_accesses";
    c_l1_hits = M.counter reg "sim.l1_hits";
    c_l2_hits = M.counter reg "sim.l2_hits";
    c_offchip_accesses = M.counter reg "sim.offchip_accesses";
    c_onchip_net_cycles = M.counter reg "net.onchip_cycles";
    c_onchip_messages = M.counter reg "net.onchip_messages";
    c_offchip_net_cycles = M.counter reg "net.offchip_cycles";
    c_offchip_messages = M.counter reg "net.offchip_messages";
    c_memory_cycles = M.counter reg "mem.cycles";
    c_memory_queue_cycles = M.counter reg "mem.queue_cycles";
    c_row_hits = M.counter reg "mem.row_hits";
    c_writebacks = M.counter reg "sim.writebacks";
    c_page_fallbacks = M.counter reg "os.page_fallbacks";
    g_finish_time = M.gauge reg "sim.finish_time";
    h_mem_latency = fresh_histogram reg "mem.latency";
    h_mem_queue = fresh_histogram reg "mem.queue_delay";
    onchip_hops = Array.make (max_hops + 1) 0;
    offchip_hops = Array.make (max_hops + 1) 0;
    node_mc_requests = Array.init nodes (fun _ -> Array.make mcs 0);
  }

let registry t = t.reg

(* ---- recording ---- *)

let record_access t = M.incr t.c_total_accesses

let record_l1_hit t = M.incr t.c_l1_hits

let record_l2_hit t = M.incr t.c_l2_hits

let record_offchip t ~origin ~mc =
  M.incr t.c_offchip_accesses;
  t.node_mc_requests.(origin).(mc) <- t.node_mc_requests.(origin).(mc) + 1

let record_leg t ~offchip ~hops ~cycles =
  (* clamp into the last bucket: routes longer than [max_hops] must not
     silently vanish from the CDF *)
  let h = min hops max_hops in
  if offchip then begin
    t.offchip_hops.(h) <- t.offchip_hops.(h) + 1;
    M.add t.c_offchip_net_cycles cycles;
    M.incr t.c_offchip_messages
  end
  else begin
    t.onchip_hops.(h) <- t.onchip_hops.(h) + 1;
    M.add t.c_onchip_net_cycles cycles;
    M.incr t.c_onchip_messages
  end

let record_memory t ~latency ~queue ~row_hit =
  M.add t.c_memory_cycles latency;
  M.add t.c_memory_queue_cycles queue;
  if row_hit then M.incr t.c_row_hits;
  M.observe t.h_mem_latency latency;
  M.observe t.h_mem_queue queue

let record_writeback t = M.incr t.c_writebacks

let note_finish t cycle = M.set_max t.g_finish_time (float_of_int cycle)

let set_page_fallbacks t n =
  M.add t.c_page_fallbacks (n - M.value t.c_page_fallbacks)

let set_link_utilization t util =
  let n = Array.length util in
  M.set (M.gauge t.reg "noc.max_link_utilization") (Array.fold_left Float.max 0. util);
  M.set
    (M.gauge t.reg "noc.avg_link_utilization")
    (if n = 0 then 0. else Array.fold_left ( +. ) 0. util /. float_of_int n)

(* ---- readers ---- *)

let total_accesses t = M.value t.c_total_accesses

let l1_hits t = M.value t.c_l1_hits

let l2_hits t = M.value t.c_l2_hits

let offchip_accesses t = M.value t.c_offchip_accesses

let onchip_net_cycles t = M.value t.c_onchip_net_cycles

let onchip_messages t = M.value t.c_onchip_messages

let offchip_net_cycles t = M.value t.c_offchip_net_cycles

let offchip_messages t = M.value t.c_offchip_messages

let memory_cycles t = M.value t.c_memory_cycles

let memory_queue_cycles t = M.value t.c_memory_queue_cycles

let row_hits t = M.value t.c_row_hits

let writebacks t = M.value t.c_writebacks

let page_fallbacks t = M.value t.c_page_fallbacks

let finish_time t = int_of_float (M.gauge_value t.g_finish_time)

let onchip_hops t = t.onchip_hops

let offchip_hops t = t.offchip_hops

let node_mc_requests t = t.node_mc_requests

(* ---- derived ---- *)

let div a b = if b = 0 then 0. else float_of_int a /. float_of_int b

let avg_onchip_net t = div (onchip_net_cycles t) (onchip_messages t)

let avg_offchip_net t = div (offchip_net_cycles t) (offchip_messages t)

let avg_memory t = div (memory_cycles t) (offchip_accesses t)

let offchip_fraction t = div (offchip_accesses t) (total_accesses t)

let hop_cdf h =
  let total = Array.fold_left ( + ) 0 h in
  let acc = ref 0 in
  let cdf =
    Array.map
      (fun n ->
        acc := !acc + n;
        if total = 0 then 1. else float_of_int !acc /. float_of_int total)
      h
  in
  (* the CDF must be monotone and exhaustive: recording clamps long routes
     into the last bucket, so nothing can be lost off the end *)
  Array.iteri
    (fun i v -> assert (v >= (if i = 0 then 0. else cdf.(i - 1)) && v <= 1.))
    cdf;
  assert (Array.length cdf = 0 || cdf.(Array.length cdf - 1) = 1.);
  cdf

(* ---- aggregation and export ---- *)

let merge a b =
  let nodes = Array.length a.node_mc_requests
  and mcs =
    if Array.length a.node_mc_requests = 0 then 0
    else Array.length a.node_mc_requests.(0)
  in
  if
    nodes <> Array.length b.node_mc_requests
    || (nodes > 0 && mcs <> Array.length b.node_mc_requests.(0))
  then invalid_arg "Stats.merge: platform shapes differ";
  let t = create ~nodes ~mcs in
  M.merge_into ~into:t.reg a.reg;
  M.merge_into ~into:t.reg b.reg;
  let add_arr dst src = Array.iteri (fun i v -> dst.(i) <- dst.(i) + v) src in
  add_arr t.onchip_hops a.onchip_hops;
  add_arr t.onchip_hops b.onchip_hops;
  add_arr t.offchip_hops a.offchip_hops;
  add_arr t.offchip_hops b.offchip_hops;
  Array.iteri (fun n row -> add_arr t.node_mc_requests.(n) row) a.node_mc_requests;
  Array.iteri (fun n row -> add_arr t.node_mc_requests.(n) row) b.node_mc_requests;
  t

let snapshot t = M.snapshot t.reg

let to_json t =
  let open Obs.Json in
  obj
    [
      ("metrics", M.to_json (snapshot t));
      ( "derived",
        Obj
          [
            ("avg_onchip_net", Float (avg_onchip_net t));
            ("avg_offchip_net", Float (avg_offchip_net t));
            ("avg_memory", Float (avg_memory t));
            ("offchip_fraction", Float (offchip_fraction t));
            ("finish_time", Int (finish_time t));
          ] );
      ( "hops",
        Obj
          [
            ("onchip", int_array t.onchip_hops);
            ("offchip", int_array t.offchip_hops);
            ("onchip_cdf", float_array (hop_cdf t.onchip_hops));
            ("offchip_cdf", float_array (hop_cdf t.offchip_hops));
          ] );
      ("node_mc_requests", array int_array t.node_mc_requests);
    ]

let pp_summary ppf t =
  Format.fprintf ppf
    "@[<v>accesses %d (L1 hits %d, L2 %d, off-chip %d = %.1f%%)@,\
     net on-chip %.1f cyc/msg, off-chip %.1f cyc/msg, memory %.1f cyc \
     (queue %.1f), row hits %d@,\
     finish %d cycles, writebacks %d, page fallbacks %d@]"
    (total_accesses t) (l1_hits t) (l2_hits t) (offchip_accesses t)
    (100. *. offchip_fraction t)
    (avg_onchip_net t) (avg_offchip_net t) (avg_memory t)
    (div (memory_queue_cycles t) (offchip_accesses t))
    (row_hits t) (finish_time t) (writebacks t) (page_fallbacks t)
