(* Tests for the full-system simulator: event heap, configuration,
   statistics, and end-to-end engine behavior on small kernels. *)

module Heap = Sim.Event_heap
module Config = Sim.Config
module Stats = Sim.Stats
module Engine = Sim.Engine
module Runner = Sim.Runner

(* --- event heap --- *)

(* the earliest event with its time, as the engine reads it: a peek
   then a payload pop *)
let pop h =
  if Heap.is_empty h then None
  else
    let t = Heap.next_time h in
    Some (t, Heap.pop_payload h)

let test_heap_order () =
  let h = Heap.create () in
  List.iter (fun (t, v) -> Heap.push h ~time:t v) [ (5, "e"); (1, "a"); (3, "c"); (1, "b") ];
  let popped = List.init 4 (fun _ -> Option.get (pop h)) in
  Alcotest.(check (list (pair int string))) "time order, FIFO ties"
    [ (1, "a"); (1, "b"); (3, "c"); (5, "e") ]
    popped;
  Alcotest.(check bool) "empty" true (Heap.is_empty h)

let prop_heap_sorted =
  QCheck.Test.make ~name:"heap pops in nondecreasing time order" ~count:200
    (QCheck.make QCheck.Gen.(list_size (int_range 0 200) (int_range 0 1000)))
    (fun times ->
      let h = Heap.create () in
      List.iter (fun t -> Heap.push h ~time:t ()) times;
      let rec drain last =
        match pop h with
        | None -> true
        | Some (t, ()) -> t >= last && drain t
      in
      drain min_int)

(* The queue against a list kept in push order, whose earliest entry
   pops first (a stable sort by time).  Pushes land at the last popped
   time, before it, inside the 4096-cycle bucket window, on its edge,
   beyond it, and on a coarse grid of absolute times, so that one time
   collects events pushed while it lay beyond the window and after the
   window reached it; peeks move the window without popping. *)
let prop_heap_exact_order =
  QCheck.Test.make ~name:"heap pops the stable time sort of its pushes" ~count:1000
    (QCheck.make
       QCheck.Gen.(list_size (int_range 0 600) (pair (int_range 0 8) (int_range 0 20000))))
    (fun ops ->
      let h = Heap.create () in
      let model = ref [] and last = ref 0 and seq = ref 0 in
      let push time =
        Heap.push h ~time !seq;
        model := !model @ [ (time, !seq) ];
        incr seq
      in
      let earliest () =
        List.fold_left
          (fun best (t, p) -> match best with Some (bt, _) when bt <= t -> best | _ -> Some (t, p))
          None !model
      in
      let pop () =
        match (pop h, earliest ()) with
        | None, None -> true
        | Some (t, p), Some (t', p') ->
          model := List.filter (fun (_, q) -> q <> p') !model;
          last := t;
          t = t' && p = p'
        | _ -> false
      in
      let step (kind, x) =
        let ok =
          match kind with
          | 0 | 1 -> pop ()
          | 2 -> push !last; true
          | 3 -> push (Int.max 0 (!last - (x mod 300))); true
          | 4 -> push (!last + (x mod 4096)); true
          | 5 -> push (!last + x); true
          | 6 -> push (!last + 4096 - (x mod 3)); true
          | 7 -> push (x mod 24 * 512); true
          | _ -> (
            match earliest () with
            | None -> Heap.is_empty h
            | Some (t, _) -> Heap.next_time h = t)
        in
        ok && Heap.is_empty h = (!model = [])
      in
      let rec drain () = Heap.is_empty h || (pop () && drain ()) in
      List.for_all step ops && drain () && !model = [])

(* --- config --- *)

let ok = function Ok v -> v | Error e -> failwith e

let test_default_config () =
  let c = Config.default () in
  Alcotest.(check int) "8x8 mesh" 64 (Noc.Topology.nodes (Config.topo c));
  Alcotest.(check int) "L1 16KB" (16 * 1024) c.Config.l1_size;
  Alcotest.(check int) "L2 line 256" 256 (Config.l2_line c);
  Alcotest.(check int) "4 controllers" 4 (Core.Cluster.num_mcs (Config.cluster c));
  Alcotest.(check int) "L1 latency" 2 c.Config.l1_latency;
  Alcotest.(check int) "L2 latency" 10 c.Config.l2_latency;
  Alcotest.(check int) "hop latency" 4 c.Config.noc.Noc.Network.per_hop_latency

let test_mesh_retarget () =
  let c = ok (Config.mesh ~width:4 ~height:4 (Config.scaled ())) in
  Alcotest.(check int) "16 nodes" 16 (Noc.Topology.nodes (Config.topo c));
  Alcotest.(check int) "still 4 controllers" 4 (Core.Cluster.num_mcs (Config.cluster c))

let test_customize_config_granularity () =
  let c = Config.scaled () in
  let cc = Config.customize_config c in
  Alcotest.(check int) "line granularity in elements" 32 cc.Core.Customize.p_elems;
  let cpage = Config.with_interleaving c Dram.Address_map.Page_interleaved in
  Alcotest.(check int) "page granularity in elements" 512
    (Config.customize_config cpage).Core.Customize.p_elems

(* --- stats --- *)

let test_hop_cdf () =
  let h = Array.make (Stats.max_hops + 1) 0 in
  h.(0) <- 1;
  h.(2) <- 3;
  let cdf = Stats.hop_cdf h in
  Alcotest.(check (float 1e-9)) "cdf at 0" 0.25 cdf.(0);
  Alcotest.(check (float 1e-9)) "cdf at 1" 0.25 cdf.(1);
  Alcotest.(check (float 1e-9)) "cdf at 2" 1.0 cdf.(2);
  Alcotest.(check (float 1e-9)) "cdf at max" 1.0 cdf.(Stats.max_hops)

(* --- engine end-to-end --- *)

let small_src =
  {|
param N = 64;
array A[N][N];
array B[N][N];
parfor i = 1 to N-2 { for j = 0 to N-1 { A[i][j] = B[i][j] + B[i-1][j] + B[i+1][j]; } }
|}

let parse src =
  match Lang.Parser.parse_result src with
  | Ok p -> p
  | Error _ -> failwith "parse failed"

let small_program = parse small_src

let run ?(cfg = Config.scaled ()) ?(optimized = false) () =
  Runner.run cfg ~optimized small_program

let test_engine_conservation () =
  let r = run () in
  let s = r.Engine.stats in
  (* every access is a hit at some level or goes off chip *)
  Alcotest.(check int) "accesses conserved" (Stats.total_accesses s)
    ((Stats.l1_hits s) + (Stats.l2_hits s) + (Stats.offchip_accesses s));
  Alcotest.(check bool) "finite finish" true ((Stats.finish_time s) > 0);
  Alcotest.(check bool) "off-chip happened" true ((Stats.offchip_accesses s) > 0);
  (* access count matches the trace: 62 * 64 iterations * 4 references *)
  Alcotest.(check int) "trace size" (62 * 64 * 4) (Stats.total_accesses s)

let test_engine_deterministic () =
  let r1 = run () and r2 = run () in
  Alcotest.(check int) "same finish" (Stats.finish_time r1.Engine.stats)
    (Stats.finish_time r2.Engine.stats);
  Alcotest.(check int) "same offchip" (Stats.offchip_accesses r1.Engine.stats)
    (Stats.offchip_accesses r2.Engine.stats)

let test_engine_hop_bound () =
  let r = run () in
  let s = r.Engine.stats in
  (* no message can traverse more than width+height-2 = 14 links *)
  for h = 15 to Stats.max_hops do
    Alcotest.(check int) "hop bound offchip" 0 (Stats.offchip_hops s).(h);
    Alcotest.(check int) "hop bound onchip" 0 (Stats.onchip_hops s).(h)
  done

let test_engine_optimal_nearest () =
  let cfg = { (Config.scaled ()) with Config.optimal = true } in
  let r = run ~cfg () in
  let s = r.Engine.stats in
  (* under the optimal scheme every off-chip request goes to the nearest
     controller: the request distribution must respect that *)
  let topo = Config.topo cfg in
  let placement = Config.placement cfg in
  Array.iteri
    (fun node row ->
      Array.iteri
        (fun mc count ->
          if count > 0 then
            Alcotest.(check int)
              (Printf.sprintf "node %d only uses its nearest controller" node)
              (Noc.Placement.nearest placement topo node)
              mc)
        row)
      (Stats.node_mc_requests s);
  (* and memory latency is the uncontended row-empty access *)
  Alcotest.(check (float 0.01)) "no queue delay"
    (float_of_int cfg.Config.timing.Dram.Timing.row_empty)
    (Stats.avg_memory s)

let test_engine_optimal_faster () =
  let base = run () in
  let r = run ~cfg:{ (Config.scaled ()) with Config.optimal = true } () in
  Alcotest.(check bool) "optimal is faster" true
    ((Stats.finish_time r.Engine.stats) < (Stats.finish_time base.Engine.stats))

let test_engine_optimized_locality () =
  (* the compiler layout reduces average off-chip request distance *)
  let avg_hops s =
    let n = ref 0 and total = ref 0 in
    Array.iteri (fun h c -> n := !n + c; total := !total + (h * c)) (Stats.offchip_hops s);
    float_of_int !total /. float_of_int (max 1 !n)
  in
  let o = run () and p = run ~optimized:true () in
  Alcotest.(check bool) "fewer hops per off-chip message" true
    (avg_hops p.Engine.stats < avg_hops o.Engine.stats)

let test_engine_shared_l2 () =
  let cfg = { (Config.scaled ()) with Config.l2_org = Config.Shared_l2 } in
  let r = run ~cfg () in
  let s = r.Engine.stats in
  Alcotest.(check int) "conservation under shared L2" (Stats.total_accesses s)
    ((Stats.l1_hits s) + (Stats.l2_hits s) + (Stats.offchip_accesses s));
  (* remote home banks generate on-chip traffic *)
  Alcotest.(check bool) "on-chip messages" true ((Stats.onchip_messages s) > 0)

let test_engine_page_policies () =
  let page cfg_policy =
    let cfg =
      {
        (Config.with_interleaving (Config.scaled ())
           Dram.Address_map.Page_interleaved)
        with
        Config.page_policy = cfg_policy;
      }
    in
    run ~cfg ()
  in
  let hw = page Config.Hardware in
  let ft = page Config.First_touch in
  let mc = page Config.Mc_aware in
  Alcotest.(check bool) "pages allocated" true (hw.Engine.pages_allocated > 0);
  Alcotest.(check int) "same pages under all policies" hw.Engine.pages_allocated
    ft.Engine.pages_allocated;
  Alcotest.(check int) "same accesses" (Stats.total_accesses hw.Engine.stats)
    (Stats.total_accesses mc.Engine.stats)

let test_engine_threads_per_core () =
  let cfg = { (Config.scaled ()) with Config.threads_per_core = 2 } in
  let r = Runner.run cfg ~optimized:false small_program in
  Alcotest.(check int) "same accesses with 2 threads/core"
    (Stats.total_accesses (run ()).Engine.stats)
    (Stats.total_accesses r.Engine.stats)

let test_engine_warmup_gating () =
  let p =
    parse
      {|
param N = 64;
array A[N][N];
parfor i = 0 to N-1 { for j = 0 to N-1 { A[i][j] = 1; } }
parfor i = 0 to N-1 { for j = 0 to N-1 { A[i][j] = A[i][j] + 1; } }
|}
  in
  let cfg = Config.scaled () in
  let all = Runner.run cfg ~optimized:false p in
  let gated = Runner.run cfg ~optimized:false ~warmup_phases:1 p in
  Alcotest.(check int) "warmup accesses excluded" (64 * 64 * 2)
    (Stats.total_accesses gated.Engine.stats);
  Alcotest.(check int) "ungated counts everything" (64 * 64 * 3)
    (Stats.total_accesses all.Engine.stats);
  Alcotest.(check bool) "measured time below total" true
    (gated.Engine.measured_time <= (Stats.finish_time gated.Engine.stats))

(* Conservation and determinism across the whole configuration matrix:
   every axis the experiments vary must keep the engine's books
   balanced. *)
let test_config_matrix () =
  let base = Config.scaled () in
  let variants =
    [
      ( "m2",
        ok
          (Result.bind
             (Core.Cluster.m2 ~width:8 ~height:8)
             (Config.with_cluster base)) );
      ( "mc8",
        ok
          (Result.bind
             (Core.Cluster.with_mcs_result ~width:8 ~height:8 ~mcs:8)
             (Config.with_cluster base)) );
      ("mesh4x4", ok (Config.mesh ~width:4 ~height:4 base));
      ("tpc4", { base with Config.threads_per_core = 4 });
      ("shared+optimal", { base with Config.l2_org = Config.Shared_l2; optimal = true });
      ("fcfs", { base with Config.mc_scheduler = Dram.Fr_fcfs.Fcfs });
      ("closed-page", { base with Config.mc_row_policy = Dram.Fr_fcfs.Closed_page });
      ( "page+first-touch",
        {
          (Config.with_interleaving base Dram.Address_map.Page_interleaved) with
          Config.page_policy = Config.First_touch;
        } );
    ]
  in
  List.iter
    (fun (name, cfg) ->
      List.iter
        (fun optimized ->
          let r = Runner.run cfg ~optimized small_program in
          let s = r.Engine.stats in
          Alcotest.(check int)
            (Printf.sprintf "%s conservation (optimized=%b)" name optimized)
            (Stats.total_accesses s)
            ((Stats.l1_hits s) + (Stats.l2_hits s) + (Stats.offchip_accesses s));
          Alcotest.(check bool)
            (Printf.sprintf "%s finishes" name)
            true ((Stats.finish_time s) > 0))
        [ false; true ])
    variants

(* --- runner --- *)

let test_runner_alignment () =
  let cfg = Config.scaled () in
  let prep = Runner.prepare cfg ~optimized:false small_program in
  let alignment = 4 * Config.page_bytes cfg in
  List.iter
    (fun (name, base) ->
      Alcotest.(check int) (name ^ " aligned") 0 (base mod alignment))
    prep.Runner.bases;
  (* arrays do not overlap *)
  match prep.Runner.bases with
  | [ (_, a); (_, b) ] ->
    Alcotest.(check bool) "disjoint" true (abs (b - a) >= 64 * 64 * 8)
  | _ -> Alcotest.fail "expected two arrays"

let test_runner_multiprogram () =
  let cfg = Config.scaled () in
  let p1 =
    Runner.prepare cfg ~optimized:false ~threads:32 ~core_offset:0 ~name:"a"
      small_program
  in
  let p2 =
    Runner.prepare cfg ~optimized:false ~threads:32 ~core_offset:32
      ~vaddr_base:(1 lsl 30) ~name:"b" small_program
  in
  let r = Runner.run_many cfg ~jobs:[ p1; p2 ] in
  Alcotest.(check int) "two jobs finish" 2 (Array.length r.Engine.job_finish);
  Array.iter
    (fun t -> Alcotest.(check bool) "job finished" true (t > 0))
    r.Engine.job_finish;
  (* both jobs' accesses are simulated *)
  Alcotest.(check int) "combined accesses" (2 * 62 * 64 * 4)
    (Stats.total_accesses r.Engine.stats)

(* A relocated job is a fresh preparation at the new base and core
   offset in everything the engine sees: array bases, thread binding, the
   page hints around every hinted range and every address it replays —
   for index-array apps and optimized layouts, at an unaligned base and
   past 4 GB, with page hints steering the MC-aware policy.  Those are
   the whole input of the deterministic engine; its result documents are
   compared too, at the shifted cores of the unaligned and the 4 GB base
   (an engine run costs ~0.15 s here, and those two corners exercise the
   offset path the others add nothing to). *)
let test_relocate_equals_prepare () =
  let pages_around cfg (p : Runner.prepared) =
    let page = Config.page_bytes cfg in
    match p.Runner.report with
    | None -> []
    | Some r ->
      List.concat_map
        (fun (d : Core.Transform.decision) ->
          if not d.Core.Transform.optimized then []
          else
            let name = d.Core.Transform.info.Lang.Analysis.decl.Lang.Ast.name in
            let base = List.assoc name p.Runner.bases in
            let size =
              Core.Layout.size_bytes (Core.Transform.layout_of r name)
            in
            let first = (base / page) - 1
            and last = ((base + size - 1) / page) + 1 in
            List.init (last - first + 1) (fun k -> first + k))
        r.Core.Transform.decisions
  in
  let replayed (p : Runner.prepared) =
    let off = p.Runner.job.Engine.vaddr_offset in
    List.map
      (Array.map (Array.map (fun a -> Lang.Interp.addr_of_access a + off)))
      p.Runner.job.Engine.phases
  in
  let doc cfg (p : Runner.prepared) =
    Obs.Json.to_string
      (Sweep.Exec.result_json ~app:"relocate" cfg
         (Engine.run cfg ~desired_mc_of_vpage:p.Runner.desired_mc
            ~jobs:[ p.Runner.job ] ()))
  in
  List.iter
    (fun platform ->
      let cfg =
        ok
          (Config.build ~scaled:true ~platform ~interleave:"page"
             ~policy:"mc-aware" ())
      in
      List.iter
        (fun appname ->
          let app = Workloads.Suite.by_name appname in
          let program = Workloads.App.program app in
          let analysis = Lang.Analysis.analyze program in
          List.iter
            (fun optimized ->
              let prepare ~vaddr_base ~core_offset =
                Runner.prepare cfg ~optimized ~threads:32 ~vaddr_base
                  ~core_offset ~name:appname
                  ~warmup_phases:app.Workloads.App.warmup_nests
                  ~index_lookup:(Workloads.App.index_lookup app)
                  ?profile:
                    (if optimized then
                       Some (Workloads.Profile.for_transform app analysis)
                     else None)
                  program
              in
              let canonical = prepare ~vaddr_base:0 ~core_offset:0 in
              List.iter
                (fun vaddr_base ->
                  List.iter
                    (fun core_offset ->
                      let what =
                        Printf.sprintf "%s %s%s at %d, core %d" platform
                          appname
                          (if optimized then " (opt)" else "")
                          vaddr_base core_offset
                      in
                      let fresh = prepare ~vaddr_base ~core_offset in
                      let moved =
                        Runner.relocate cfg canonical ~vaddr_base ~core_offset
                          ~name:appname
                      in
                      Alcotest.(check (list (pair string int)))
                        (what ^ ": bases") fresh.Runner.bases
                        moved.Runner.bases;
                      Alcotest.(check (array int))
                        (what ^ ": thread binding")
                        fresh.Runner.job.Engine.node_of_thread
                        moved.Runner.job.Engine.node_of_thread;
                      let hinted = pages_around cfg fresh in
                      if optimized then
                        Alcotest.(check bool) (what ^ ": has hints") true
                          (hinted <> []);
                      List.iter
                        (fun v ->
                          Alcotest.(check (option int))
                            (Printf.sprintf "%s: hint of page %d" what v)
                            (fresh.Runner.desired_mc v)
                            (moved.Runner.desired_mc v))
                        hinted;
                      Alcotest.(check bool) (what ^ ": replayed addresses")
                        true
                        (replayed fresh = replayed moved);
                      if
                        core_offset > 0
                        && (vaddr_base = 12345 || vaddr_base = 1 lsl 32)
                      then
                        Alcotest.(check string) (what ^ ": result")
                          (doc cfg fresh) (doc cfg moved))
                    [ 0; 20 ])
                [ 0; 12345; 1 lsl 28; 5 lsl 28; 1 lsl 32 ])
            [ false; true ])
        [ "apsi"; "minimd"; "gafort" ])
    [ "mesh8x8-mc4"; "mesh8x8-mc8" ]

(* --- pooled-engine regression guards --- *)

let test_heap_next_time_pop_payload () =
  let h = Heap.create () in
  Alcotest.check_raises "next_time on empty"
    (Invalid_argument "Event_heap.next_time: empty") (fun () ->
      ignore (Heap.next_time h));
  List.iter
    (fun (t, v) -> Heap.push h ~time:t v)
    [ (7, "late"); (2, "first"); (2, "second") ];
  Alcotest.(check int) "next_time peeks without removing" 2 (Heap.next_time h);
  Alcotest.(check string) "key order" "first" (Heap.pop_payload h);
  Alcotest.(check string) "FIFO tie-break" "second" (Heap.pop_payload h);
  Alcotest.(check int) "peek advances" 7 (Heap.next_time h);
  Alcotest.(check string) "last" "late" (Heap.pop_payload h);
  Alcotest.check_raises "pop_payload on empty"
    (Invalid_argument "Event_heap.pop_payload: empty") (fun () ->
      ignore (Heap.pop_payload h))

(* The exact JSON document the committed golden pins (also what
   test/gen_golden.ml emits). *)
let seed0_json ?(cfg = Config.scaled ()) () =
  let r = Runner.run cfg ~optimized:false small_program in
  Obs.Json.to_string (Sweep.Exec.result_json ~app:"golden-small" cfg r)

let test_engine_seed_identical_json () =
  (* two runs under the same seed must agree on every statistic, not just
     the few the other determinism test samples *)
  Alcotest.(check string) "same seed, byte-identical stats JSON"
    (seed0_json ()) (seed0_json ())

let read_golden path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let golden = really_input_string ic n in
  close_in ic;
  golden

(* --- trace files --- *)

(* simulate --dump-trace's writer, pinned byte for byte in both
   versions: v1 without site tags, v2 with the site stream
   [Runner.prepare ~attr:true] attaches *)
let small_job () =
  (Runner.prepare (Config.scaled ()) ~optimized:false ~attr:true small_program)
    .Runner.job

let test_prepare_tags_job () =
  let job = small_job () in
  Alcotest.(check bool) "prepare ~attr:true tags the job" true
    (job.Engine.site_streams <> []);
  Alcotest.(check int) "total_accesses" (62 * 64 * 4)
    (Sim.Tracefile.total_accesses job.Engine.phases)

let check_trace_golden version tags () =
  let job = tags (small_job ()) in
  let path = Filename.temp_file "offchip" ".trace" in
  Sim.Tracefile.dump path job;
  let got = read_golden path in
  Sys.remove path;
  Alcotest.(check bool)
    (version ^ " byte-identical to committed golden")
    true
    (String.equal got
       (read_golden (Printf.sprintf "golden/trace_small_%s.txt" version)))

(* A dump is what the engine replays: a relocated replica's file is its
   first replica's (offset 0) with every address moved by its offset *)
let test_dump_relocated () =
  let cfg = Config.scaled () in
  let dump job =
    let path = Filename.temp_file "offchip" ".trace" in
    Sim.Tracefile.dump path job;
    let lines = String.split_on_char '\n' (read_golden path) in
    Sys.remove path;
    lines
  in
  match Runner.prepare_replicas cfg ~optimized:false small_program with
  | first :: second :: _ ->
    let off = second.Runner.job.Engine.vaddr_offset in
    Alcotest.(check int) "first replica unshifted" 0
      first.Runner.job.Engine.vaddr_offset;
    Alcotest.(check bool) "second replica shifted" true (off > 0);
    let base = dump first.Runner.job and moved = dump second.Runner.job in
    Alcotest.(check int) "same line count" (List.length base)
      (List.length moved);
    let accesses = ref 0 in
    List.iter2
      (fun a b ->
        match (String.split_on_char ' ' a, String.split_on_char ' ' b) with
        | [ va; rw ], [ vb; rw' ] when rw = "R" || rw = "W" ->
          incr accesses;
          Alcotest.(check int) "address shifted by the offset"
            (int_of_string va + off) (int_of_string vb);
          Alcotest.(check string) "same access kind" rw rw'
        | _ -> Alcotest.(check string) "same framing" a b)
      base moved;
    Alcotest.(check int) "every access compared"
      (Sim.Tracefile.total_accesses first.Runner.job.Engine.phases)
      !accesses
  | _ -> Alcotest.fail "expected several replicas"

let test_engine_seed0_golden () =
  (* [to_channel] (used by gen_golden) appends one newline *)
  Alcotest.(check string) "byte-identical to committed golden"
    (read_golden "golden/seed0_stats.json")
    (seed0_json () ^ "\n")

(* The same run under each non-default memory-controller path
   (gen_golden --dram): strict FCFS, closed-page rows, one channel. *)
let test_engine_dram_goldens () =
  let base = Config.scaled () in
  List.iter
    (fun (name, cfg) ->
      let path = Printf.sprintf "golden/dram_%s.json" name in
      Alcotest.(check string) (path ^ " byte-identical") (read_golden path)
        (seed0_json ~cfg () ^ "\n"))
    [
      ("fcfs", { base with Config.mc_scheduler = Dram.Fr_fcfs.Fcfs });
      ("closed_page", { base with Config.mc_row_policy = Dram.Fr_fcfs.Closed_page });
      ("one_channel", Config.with_channels_per_mc base 1);
    ]

(* The same run where the per-access address steps keep their exact
   divisions (gen_golden --division, recorded before they were staged as
   shifts): 6 banks per controller from a platform document, an issue
   cost of 48, and a shared L2 over a 12x12 mesh's 144 home banks. *)
let test_engine_division_goldens () =
  let base = Config.scaled () in
  let banks6 =
    match Core.Platform.to_json (Config.platform base) with
    | Obs.Json.Obj fields ->
      ok
        (Core.Platform.of_json
           (Obs.Json.Obj
              (List.map
                 (fun (k, v) ->
                   if k = "banks_per_mc" then (k, Obs.Json.Int 6) else (k, v))
                 fields)))
    | _ -> Alcotest.fail "platform JSON must be an object"
  in
  List.iter
    (fun (name, cfg) ->
      let path = Printf.sprintf "golden/division_%s.json" name in
      Alcotest.(check string) (path ^ " byte-identical") (read_golden path)
        (seed0_json ~cfg () ^ "\n"))
    [
      ("banks6", Config.with_platform base banks6);
      ("tpc3", { base with Config.threads_per_core = 3 });
      ( "shared_mesh12x12",
        {
          (Config.with_platform base (ok (Core.Platform.of_spec "mesh12x12-mc4")))
          with
          Config.l2_org = Config.Shared_l2;
        } );
    ]

let test_engine_degenerate_chiplet_golden () =
  (* the 1-chiplet hierarchical machine IS the flat machine: a platform
     declaring a 1x1 chiplet grid must reproduce the flat seed-0 golden
     byte for byte — no gated field, metric or charge may leak through *)
  let cfg = Config.scaled () in
  let degenerate =
    match Core.Platform.to_json (Config.platform cfg) with
    | Obs.Json.Obj fields ->
      Obs.Json.Obj
        (fields
        @ [
            ( "hierarchy",
              Obs.Json.Obj
                [
                  ("chiplets_x", Obs.Json.Int 1);
                  ("chiplets_y", Obs.Json.Int 1);
                  ("link_latency", Obs.Json.Int 99);
                  ("link_bytes", Obs.Json.Int 2);
                ] );
          ])
    | _ -> Alcotest.fail "platform JSON must be an object"
  in
  let p = ok (Core.Platform.of_json degenerate) in
  let cfg' = Config.with_platform cfg p in
  let r = Runner.run cfg' ~optimized:false small_program in
  Alcotest.(check string) "1x1 chiplet grid reproduces the flat golden"
    (seed0_json ())
    (Obs.Json.to_string (Sweep.Exec.result_json ~app:"golden-small" cfg' r))

(* A 12x12 mesh has 144 nodes, past the two-word holder sets the L2
   directory once had (124 nodes): jacobi.mc, original and optimized,
   runs through the private-L2 engine and every access is accounted for. *)
let test_engine_mesh12x12 () =
  let cfg =
    Config.with_platform (Config.scaled ())
      (ok (Core.Platform.of_spec "mesh12x12-mc4"))
  in
  let program = parse (Test_pipeline.read_file Test_pipeline.jacobi_path) in
  List.iter
    (fun optimized ->
      let s = (Runner.run cfg ~optimized program).Engine.stats in
      Alcotest.(check int) "accesses conserved" (Stats.total_accesses s)
        (Stats.l1_hits s + Stats.l2_hits s + Stats.offchip_accesses s);
      Alcotest.(check bool) "off-chip happened" true (Stats.offchip_accesses s > 0);
      Alcotest.(check bool) "finite finish" true (Stats.finish_time s > 0))
    [ false; true ]

let test_engine_phase_advance_guard () =
  let cfg = Config.scaled () in
  (* a job with no phases must finish immediately instead of indexing
     past the phase array *)
  let empty =
    {
      Engine.name = "empty";
      phases = [];
      vaddr_offset = 0;
      node_of_thread = [| 0 |];
      warmup_phases = 0;
      site_streams = [];
      start_time = 0;
      start_after = None;
      free_vpage_range = None;
    }
  in
  let r = Engine.run cfg ~jobs:[ empty ] () in
  Alcotest.(check int) "empty job finishes at 0" 0 r.Engine.job_finish.(0);
  Alcotest.(check int) "no accesses" 0 (Stats.total_accesses r.Engine.stats);
  (* a multi-phase job runs each phase exactly once and stops at the
     boundary: the access count proves no phase replays or is skipped *)
  let p =
    parse
      {|
param N = 64;
array A[N][N];
parfor i = 0 to N-1 { for j = 0 to N-1 { A[i][j] = 1; } }
parfor i = 0 to N-1 { for j = 0 to N-1 { A[i][j] = A[i][j] + 1; } }
|}
  in
  let r = Runner.run cfg ~optimized:false p in
  Alcotest.(check int) "exactly two phases of accesses" (64 * 64 * 3)
    (Stats.total_accesses r.Engine.stats)

let qsuite = List.map QCheck_alcotest.to_alcotest

let suite =
  [
    ( "sim.event_heap",
      [
        Alcotest.test_case "ordering" `Quick test_heap_order;
        Alcotest.test_case "next_time / pop_payload" `Quick
          test_heap_next_time_pop_payload;
      ]
      @ qsuite [ prop_heap_sorted; prop_heap_exact_order ] );
    ( "sim.config",
      [
        Alcotest.test_case "table 1 defaults" `Quick test_default_config;
        Alcotest.test_case "mesh retarget" `Quick test_mesh_retarget;
        Alcotest.test_case "granularity" `Quick test_customize_config_granularity;
      ] );
    ("sim.stats", [ Alcotest.test_case "hop cdf" `Quick test_hop_cdf ]);
    ( "sim.engine",
      [
        Alcotest.test_case "conservation" `Quick test_engine_conservation;
        Alcotest.test_case "deterministic" `Quick test_engine_deterministic;
        Alcotest.test_case "hop bound" `Quick test_engine_hop_bound;
        Alcotest.test_case "optimal scheme: nearest" `Quick test_engine_optimal_nearest;
        Alcotest.test_case "optimal scheme: faster" `Quick test_engine_optimal_faster;
        Alcotest.test_case "optimized locality" `Quick test_engine_optimized_locality;
        Alcotest.test_case "shared L2" `Quick test_engine_shared_l2;
        Alcotest.test_case "page policies" `Quick test_engine_page_policies;
        Alcotest.test_case "threads per core" `Quick test_engine_threads_per_core;
        Alcotest.test_case "warmup gating" `Quick test_engine_warmup_gating;
        Alcotest.test_case "config matrix" `Quick test_config_matrix;
        Alcotest.test_case "seed-identical stats JSON" `Quick
          test_engine_seed_identical_json;
        Alcotest.test_case "seed-0 golden" `Quick test_engine_seed0_golden;
        Alcotest.test_case "seed-0 DRAM path goldens" `Quick test_engine_dram_goldens;
        Alcotest.test_case "seed-0 exact-division goldens" `Quick
          test_engine_division_goldens;
        Alcotest.test_case "degenerate chiplet = flat golden" `Quick
          test_engine_degenerate_chiplet_golden;
        Alcotest.test_case "phase advance guard" `Quick
          test_engine_phase_advance_guard;
        Alcotest.test_case "144-node mesh" `Quick test_engine_mesh12x12;
      ] );
    ( "sim.tracefile",
      [
        Alcotest.test_case "prepare ~attr:true tags the job" `Quick
          test_prepare_tags_job;
        Alcotest.test_case "v1 golden" `Quick
          (check_trace_golden "v1" (fun job ->
               { job with Engine.site_streams = [] }));
        Alcotest.test_case "v2 golden" `Quick
          (check_trace_golden "v2" Fun.id);
        Alcotest.test_case "relocated dump is shifted" `Quick
          test_dump_relocated;
      ] );
    ( "sim.runner",
      [
        Alcotest.test_case "base alignment" `Quick test_runner_alignment;
        Alcotest.test_case "multiprogrammed" `Quick test_runner_multiprogram;
        Alcotest.test_case "relocate equals prepare at that base" `Quick
          test_relocate_equals_prepare;
      ] );
  ]
