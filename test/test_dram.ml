(* Tests for the DRAM substrate: timing, physical address interpretation
   and the FR-FCFS controller. *)

module Timing = Dram.Timing
module Address_map = Dram.Address_map
module Fr_fcfs = Dram.Fr_fcfs

let test_timing () =
  let t = Timing.ddr3_1600 in
  Alcotest.(check bool) "hit < empty < conflict" true
    (t.Timing.row_hit < t.Timing.row_empty && t.Timing.row_empty < t.Timing.row_conflict);
  Alcotest.(check bool) "burst within hit" true (t.Timing.burst <= t.Timing.row_hit)

let line_map = Address_map.make ~interleaving:Address_map.Line_interleaved ~num_mcs:4 ()

let page_map = Address_map.make ~interleaving:Address_map.Page_interleaved ~num_mcs:4 ()

let test_line_interleaving () =
  (* consecutive 256B lines rotate over controllers *)
  Alcotest.(check (list int)) "line rotation" [ 0; 1; 2; 3; 0 ]
    (List.init 5 (fun i -> Address_map.mc_of_paddr line_map (i * 256)));
  (* within a line, same controller *)
  Alcotest.(check int) "same line same mc"
    (Address_map.mc_of_paddr line_map 256)
    (Address_map.mc_of_paddr line_map 511)

let test_page_interleaving () =
  Alcotest.(check (list int)) "page rotation" [ 0; 1; 2; 3 ]
    (List.init 4 (fun i -> Address_map.mc_of_paddr page_map (i * 4096)));
  Alcotest.(check int) "whole page same mc"
    (Address_map.mc_of_paddr page_map 4096)
    (Address_map.mc_of_paddr page_map (4096 + 4095))

let test_bank_row () =
  (* channel-consecutive row buffers rotate over banks *)
  let mc0_addrs = List.init 8 (fun i -> i * 4 * 4096) in
  (* every 4th page is on MC0 under line interleaving?  use page_map: pages
     0,4,8,.. are MC0; their channel addresses are consecutive pages *)
  let banks = List.map (Address_map.bank_of_paddr page_map) mc0_addrs in
  Alcotest.(check (list int)) "banks rotate" [ 0; 1; 2; 3; 0; 1; 2; 3 ] banks;
  let rows = List.map (Address_map.row_of_paddr page_map) mc0_addrs in
  Alcotest.(check (list int)) "rows advance every banks_per_mc pages"
    [ 0; 0; 0; 0; 1; 1; 1; 1 ] rows

let prop_mc_partition =
  QCheck.Test.make ~name:"every address maps to a valid controller and bank"
    ~count:500
    (QCheck.make QCheck.Gen.(int_range 0 100_000_000))
    (fun paddr ->
      let ok map =
        let m = Address_map.mc_of_paddr map paddr in
        let b = Address_map.bank_of_paddr map paddr in
        m >= 0 && m < 4 && b >= 0 && b < 4 && Address_map.row_of_paddr map paddr >= 0
      in
      ok line_map && ok page_map)

(* The staged forms against the division formulas they replaced, on
   power-of-two geometries (shifts) and others (6 banks, 3 controllers,
   a 3-line page, a 192-byte line under a 4 KB page: exact division),
   both interleavings.
   Addresses span 2^44 bytes, so high row bits are exercised too. *)
let prop_staged_equals_division =
  let open QCheck.Gen in
  let gen =
    let* interleaving =
      oneofl [ Address_map.Line_interleaved; Address_map.Page_interleaved ]
    in
    let* line_bytes = oneofl [ 64; 128; 256; 256; 192 ] in
    let* page_bytes =
      oneofl [ line_bytes; 2 * line_bytes; 3 * line_bytes; 16 * line_bytes; 4096 ]
    in
    let* num_mcs = oneofl [ 1; 2; 3; 4; 4; 6; 8; 16 ] in
    let* banks_per_mc = oneofl [ 1; 2; 4; 6; 8; 16 ] in
    let* paddrs = list_size (return 20) (int_range 0 ((1 lsl 44) - 1)) in
    return (interleaving, line_bytes, page_bytes, num_mcs, banks_per_mc, paddrs)
  in
  let print (i, l, p, m, b, _) =
    Printf.sprintf "%s line=%d page=%d mcs=%d banks=%d"
      (Address_map.interleaving_to_string i) l p m b
  in
  QCheck.Test.make ~name:"staged controller/bank/row = division formulas" ~count:500
    (QCheck.make ~print gen)
    (fun (interleaving, line_bytes, page_bytes, num_mcs, banks_per_mc, paddrs) ->
      let map =
        Address_map.make ~interleaving ~line_bytes ~page_bytes ~num_mcs ~banks_per_mc ()
      in
      let unit_bytes =
        match interleaving with
        | Address_map.Line_interleaved -> line_bytes
        | Address_map.Page_interleaved -> page_bytes
      in
      let channel paddr =
        ((paddr / unit_bytes / num_mcs) * unit_bytes) + (paddr mod unit_bytes)
      in
      List.for_all
        (fun paddr ->
          Address_map.mc_of_paddr map paddr = paddr / unit_bytes mod num_mcs
          && Address_map.bank_of_paddr map paddr
             = channel paddr / page_bytes mod banks_per_mc
          && Address_map.row_of_paddr map paddr
             = channel paddr / page_bytes / banks_per_mc)
        paddrs)

(* --- FR-FCFS --- *)

let drain mc =
  let rec go acc now =
    match Fr_fcfs.next_wake mc with
    | None -> acc
    | Some t ->
      let t = max t (now + 1) in
      go (acc @ Fr_fcfs.advance mc ~now:t) t
  in
  go (Fr_fcfs.advance mc ~now:0) 0

let test_row_hit_priority () =
  let mc = Fr_fcfs.create ~banks:1 () in
  (* open row 5 via a first request, then queue a conflict and a hit *)
  Fr_fcfs.enqueue mc ~now:0 ~bank:0 ~row:5 ~id:1 ();
  Fr_fcfs.enqueue mc ~now:1 ~bank:0 ~row:9 ~id:2 ();
  Fr_fcfs.enqueue mc ~now:2 ~bank:0 ~row:5 ~id:3 ();
  let completions = drain mc in
  let order = List.map (fun c -> c.Fr_fcfs.id) completions in
  Alcotest.(check (list int)) "row hit served before older conflict" [ 1; 3; 2 ] order;
  let by_id i = List.find (fun c -> c.Fr_fcfs.id = i) completions in
  Alcotest.(check bool) "3 was a row hit" true (by_id 3).Fr_fcfs.row_hit;
  Alcotest.(check bool) "2 was a conflict" false (by_id 2).Fr_fcfs.row_hit

let test_bank_parallelism () =
  let t = Timing.ddr3_1600 in
  let mc = Fr_fcfs.create ~channels:2 ~banks:2 () in
  Fr_fcfs.enqueue mc ~now:0 ~bank:0 ~row:0 ~id:1 ();
  Fr_fcfs.enqueue mc ~now:0 ~bank:1 ~row:0 ~id:2 ();
  let completions = drain mc in
  let finish i = (List.find (fun c -> c.Fr_fcfs.id = i) completions).Fr_fcfs.finish in
  (* with independent channels both complete at row_empty time *)
  Alcotest.(check int) "bank 0" t.Timing.row_empty (finish 1);
  Alcotest.(check int) "bank 1 overlaps" t.Timing.row_empty (finish 2)

let test_bus_serialization () =
  let t = Timing.ddr3_1600 in
  let mc = Fr_fcfs.create ~channels:1 ~banks:2 () in
  Fr_fcfs.enqueue mc ~now:0 ~bank:0 ~row:0 ~id:1 ();
  Fr_fcfs.enqueue mc ~now:0 ~bank:1 ~row:0 ~id:2 ();
  let completions = drain mc in
  let finish i = (List.find (fun c -> c.Fr_fcfs.id = i) completions).Fr_fcfs.finish in
  (* one data bus: the second burst waits for the first *)
  Alcotest.(check int) "first at row_empty" t.Timing.row_empty (finish 1);
  Alcotest.(check int) "second delayed by one burst" (t.Timing.row_empty + t.Timing.burst)
    (finish 2)

let test_write_drain () =
  let mc = Fr_fcfs.create ~banks:1 () in
  (* a write arrives first, then a read: the read must win *)
  Fr_fcfs.enqueue mc ~now:0 ~bank:0 ~row:1 ~write:true ~id:1 ();
  Fr_fcfs.enqueue mc ~now:0 ~bank:0 ~row:2 ~id:2 ();
  let order = List.map (fun c -> c.Fr_fcfs.id) (drain mc) in
  Alcotest.(check (list int)) "read priority" [ 2; 1 ] order

let test_fcfs_scheduler () =
  (* strict FCFS ignores the open row: arrival order wins *)
  let mc = Fr_fcfs.create ~scheduler:Fr_fcfs.Fcfs ~banks:1 () in
  Fr_fcfs.enqueue mc ~now:0 ~bank:0 ~row:5 ~id:1 ();
  Fr_fcfs.enqueue mc ~now:1 ~bank:0 ~row:9 ~id:2 ();
  Fr_fcfs.enqueue mc ~now:2 ~bank:0 ~row:5 ~id:3 ();
  let order = List.map (fun c -> c.Fr_fcfs.id) (drain mc) in
  Alcotest.(check (list int)) "arrival order" [ 1; 2; 3 ] order

let test_closed_page () =
  (* with auto-precharge no access is ever a row hit *)
  let mc = Fr_fcfs.create ~row_policy:Fr_fcfs.Closed_page ~banks:1 () in
  Fr_fcfs.enqueue mc ~now:0 ~bank:0 ~row:5 ~id:1 ();
  Fr_fcfs.enqueue mc ~now:0 ~bank:0 ~row:5 ~id:2 ();
  let completions = drain mc in
  Alcotest.(check int) "no row hits" 0 (Fr_fcfs.row_hits mc);
  List.iter
    (fun (c : Fr_fcfs.completion) ->
      Alcotest.(check bool) "each completion cold" false c.Fr_fcfs.row_hit)
    completions

let test_queue_accounting () =
  let mc = Fr_fcfs.create ~banks:1 () in
  Fr_fcfs.enqueue mc ~now:0 ~bank:0 ~row:0 ~id:1 ();
  Fr_fcfs.enqueue mc ~now:0 ~bank:0 ~row:0 ~id:2 ();
  Alcotest.(check int) "pending" 2 (Fr_fcfs.pending mc);
  let completions = drain mc in
  Alcotest.(check int) "drained" 0 (Fr_fcfs.pending mc);
  Alcotest.(check int) "served" 2 (Fr_fcfs.served mc);
  let second = List.find (fun c -> c.Fr_fcfs.id = 2) completions in
  Alcotest.(check bool) "queue delay recorded" true (second.Fr_fcfs.queue_delay > 0);
  Alcotest.(check bool) "occupancy positive" true
    (Fr_fcfs.occupancy mc ~at:second.Fr_fcfs.finish > 0.)

let prop_all_served =
  QCheck.Test.make ~name:"every enqueued request completes exactly once" ~count:100
    (QCheck.make
       QCheck.Gen.(list_size (int_range 1 30) (pair (int_range 0 3) (int_range 0 5))))
    (fun reqs ->
      let mc = Fr_fcfs.create ~banks:4 () in
      List.iteri
        (fun i (bank, row) -> Fr_fcfs.enqueue mc ~now:i ~bank ~row ~id:i ())
        reqs;
      let completions = drain mc in
      let ids = List.sort compare (List.map (fun c -> c.Fr_fcfs.id) completions) in
      ids = List.init (List.length reqs) Fun.id
      && List.for_all
           (fun (c : Fr_fcfs.completion) -> c.Fr_fcfs.start >= c.Fr_fcfs.id)
           completions
      (* start >= arrival (= id here) *))

(* --- the list scheduler as oracle, and the physics of a run --- *)

module Naive = Naive_fr_fcfs

type op =
  | Enq of { dt : int; bank : int; row : int; write : bool }
      (** enqueue [dt] cycles after the clock *)
  | Adv of int  (** [advance] [dt] cycles after the clock *)
  | Wake  (** [next_wake], then advance to it *)

type case = {
  scheduler : Fr_fcfs.scheduler;
  row_policy : Fr_fcfs.row_policy;
  channels : int;
  banks : int;
  ops : op list;
}

let print_case c =
  let op = function
    | Enq { dt; bank; row; write } ->
      Printf.sprintf "%s(+%d b%d r%d)" (if write then "W" else "R") dt bank row
    | Adv dt -> Printf.sprintf "adv(+%d)" dt
    | Wake -> "wake"
  in
  Printf.sprintf "%s %s channels=%d banks=%d [%s]"
    (match c.scheduler with Fr_fcfs.Fr_fcfs -> "fr-fcfs" | Fcfs -> "fcfs")
    (match c.row_policy with Fr_fcfs.Open_page -> "open" | Closed_page -> "closed")
    c.channels c.banks
    (String.concat " " (List.map op c.ops))

(* Bursts of same-cycle enqueues against a 40-cycle burst per channel
   build queues deep enough that write-heavy cases cross the 16-write
   drain watermark both ways (checked by [test_watermark_coverage]). *)
let gen_case =
  let open QCheck.Gen in
  let* scheduler = oneofl [ Fr_fcfs.Fr_fcfs; Fr_fcfs.Fcfs ] in
  let* row_policy = oneofl [ Fr_fcfs.Open_page; Fr_fcfs.Closed_page ] in
  let* channels = oneofl [ 1; 2; 4 ] in
  let* banks = int_range 1 16 in
  let* write_pct = oneofl [ 0; 30; 70; 100 ] in
  let enq =
    let* dt = frequency [ (3, return 0); (2, int_range 1 20); (1, int_range 21 200) ] in
    let* bank = int_range 0 (banks - 1) in
    let* row = int_range 0 3 in
    let+ w = int_range 0 99 in
    Enq { dt; bank; row; write = w < write_pct }
  in
  let op =
    frequency [ (6, enq); (1, map (fun dt -> Adv dt) (int_range 0 300)); (2, return Wake) ]
  in
  let+ ops = list_size (int_range 1 200) op in
  { scheduler; row_policy; channels; banks; ops }

(* One controller behind closures, so the constant-cost scheduler and the
   list oracle run the same driver. *)
type sched = {
  enqueue : now:int -> bank:int -> row:int -> write:bool -> id:int -> unit;
  advance : now:int -> Fr_fcfs.completion list;
  next_wake : unit -> int option;
  counters : unit -> int * int * int * int;  (** pending, served, row hits, max pending *)
  occ_integral_at : at:int -> float;
}

let fast c ~depth_hook =
  let mc =
    Fr_fcfs.create ~channels:c.channels ~scheduler:c.scheduler ~row_policy:c.row_policy
      ~depth_hook ~banks:c.banks ()
  in
  {
    enqueue = (fun ~now ~bank ~row ~write ~id -> Fr_fcfs.enqueue mc ~now ~bank ~row ~write ~id ());
    advance = (fun ~now -> Fr_fcfs.advance mc ~now);
    next_wake = (fun () -> Fr_fcfs.next_wake mc);
    counters =
      (fun () ->
        (Fr_fcfs.pending mc, Fr_fcfs.served mc, Fr_fcfs.row_hits mc, Fr_fcfs.max_pending mc));
    occ_integral_at = (fun ~at -> Fr_fcfs.occ_integral_at mc ~at);
  }

let naive c ~depth_hook =
  let mc =
    Naive.create ~channels:c.channels
      ~scheduler:(match c.scheduler with Fr_fcfs.Fr_fcfs -> Naive.Fr_fcfs | Fcfs -> Naive.Fcfs)
      ~row_policy:
        (match c.row_policy with
        | Fr_fcfs.Open_page -> Naive.Open_page
        | Closed_page -> Naive.Closed_page)
      ~depth_hook ~banks:c.banks ()
  in
  {
    enqueue = (fun ~now ~bank ~row ~write ~id -> Naive.enqueue mc ~now ~bank ~row ~write ~id ());
    advance =
      (fun ~now ->
        List.map
          (fun (n : Naive.completion) ->
            {
              Fr_fcfs.id = n.id;
              start = n.start;
              finish = n.finish;
              queue_delay = n.queue_delay;
              row_hit = n.row_hit;
            })
          (Naive.advance mc ~now));
    next_wake = (fun () -> Naive.next_wake mc);
    counters =
      (fun () -> (Naive.pending mc, Naive.served mc, Naive.row_hits mc, Naive.max_pending mc));
    occ_integral_at = (fun ~at -> Naive.occ_integral_at mc ~at);
  }

(* Drives [s] through [c.ops] and then drains it; request [i] is the
   [i]-th enqueue.  [step] sees each op's completions (none for an
   enqueue).  Returns the enqueued requests (arrival, bank, row) in id
   order and the final clock. *)
let drive c s ~step =
  let clock = ref 0 and reqs = ref [] and next_id = ref 0 in
  let advance_to now =
    clock := now;
    step (s.advance ~now)
  in
  let wake () =
    let w = s.next_wake () in
    (match w with Some w -> advance_to (max w !clock) | None -> step []);
    w <> None
  in
  List.iter
    (function
      | Enq { dt; bank; row; write } ->
        clock := !clock + dt;
        s.enqueue ~now:!clock ~bank ~row ~write ~id:!next_id;
        reqs := (!clock, bank, row) :: !reqs;
        incr next_id;
        step []
      | Adv dt -> advance_to (!clock + dt)
      | Wake -> ignore (wake ()))
    c.ops;
  while wake () do () done;
  (Array.of_list (List.rev !reqs), !clock)

(* Everything a run shows: after each op, the completions, [next_wake] and
   the counters; then the occupancy integral and every depth-hook call. *)
let observe c make =
  let depths = ref [] and steps = ref [] in
  let s = make c ~depth_hook:(fun ~now ~depth -> depths := (now, depth) :: !depths) in
  let _, clock =
    drive c s ~step:(fun cs -> steps := (cs, s.next_wake (), s.counters ()) :: !steps)
  in
  (List.rev !steps, s.occ_integral_at ~at:clock, List.rev !depths)

let prop_oracle =
  QCheck.Test.make ~name:"constant-cost scheduler matches the list oracle" ~count:2000
    (QCheck.make ~print:print_case gen_case)
    (fun c ->
      let steps, occ, depths = observe c fast in
      let steps', occ', depths' = observe c naive in
      if List.length steps <> List.length steps' then
        QCheck.Test.fail_report "different number of steps";
      List.iteri
        (fun k (o, o') ->
          if o <> o' then
            QCheck.Test.fail_reportf "op %d: completions, next_wake or counters differ" k)
        (List.combine steps steps');
      if occ <> occ' then QCheck.Test.fail_report "occ_integral_at differs";
      if depths <> depths' then QCheck.Test.fail_report "depth_hook calls differ";
      true)

(* Physics of the constant-cost scheduler's completions, on the same
   generated sequences: conservation, causality, bank and bus exclusion,
   and service times that agree with the open-row state. *)
let prop_physics =
  QCheck.Test.make ~name:"completions obey the DRAM model's physics" ~count:1000
    (QCheck.make ~print:print_case gen_case)
    (fun c ->
      let timing = Timing.ddr3_1600 in
      let s = fast c ~depth_hook:(fun ~now:_ ~depth:_ -> ()) in
      let done_ = ref [] in
      let reqs, _ = drive c s ~step:(fun cs -> done_ := List.rev_append cs !done_) in
      let comps = List.rev !done_ in
      let seen = Array.make (Array.length reqs) 0 in
      List.iter (fun (cp : Fr_fcfs.completion) -> seen.(cp.id) <- seen.(cp.id) + 1) comps;
      Array.iteri
        (fun id k -> if k <> 1 then QCheck.Test.fail_reportf "request %d completed %d times" id k)
        seen;
      List.iter
        (fun (cp : Fr_fcfs.completion) ->
          let arrival, _, _ = reqs.(cp.id) in
          if cp.start < arrival || cp.queue_delay <> cp.start - arrival then
            QCheck.Test.fail_reportf "request %d starts at %d, arrived at %d" cp.id cp.start
              arrival)
        comps;
      let bank_of (cp : Fr_fcfs.completion) =
        let _, b, _ = reqs.(cp.id) in
        b
      in
      let by key l = List.sort (fun a b -> compare (key a) (key b)) l in
      (* per bank, in start order: busy intervals are disjoint and each
         service time follows from the row the previous access left open *)
      for b = 0 to c.banks - 1 do
        ignore
          (List.fold_left
             (fun (open_row, busy_until) (cp : Fr_fcfs.completion) ->
               let _, _, row = reqs.(cp.id) in
               if cp.start < busy_until then
                 QCheck.Test.fail_reportf "bank %d: request %d starts at %d, busy until %d" b
                   cp.id cp.start busy_until;
               let expected =
                 if open_row = Some row then timing.Timing.row_hit
                 else if open_row = None then timing.Timing.row_empty
                 else timing.Timing.row_conflict
               in
               if cp.finish - cp.start <> expected then
                 QCheck.Test.fail_reportf "bank %d: request %d served in %d cycles, expected %d"
                   b cp.id (cp.finish - cp.start) expected;
               if cp.row_hit <> (expected = timing.Timing.row_hit) then
                 QCheck.Test.fail_reportf "request %d: row_hit flag disagrees with its service"
                   cp.id;
               let left_open =
                 match c.row_policy with Fr_fcfs.Open_page -> Some row | Closed_page -> None
               in
               (left_open, cp.finish))
             (None, 0)
             (by (fun (cp : Fr_fcfs.completion) -> cp.start)
                (List.filter (fun cp -> bank_of cp = b) comps)))
      done;
      (* per channel, in finish order: burst windows are disjoint *)
      for ch = 0 to c.channels - 1 do
        ignore
          (List.fold_left
             (fun bus_free (cp : Fr_fcfs.completion) ->
               if cp.finish - timing.Timing.burst < bus_free then
                 QCheck.Test.fail_reportf "channel %d: burst of request %d overlaps the last"
                   ch cp.id;
               cp.finish)
             0
             (by (fun (cp : Fr_fcfs.completion) -> cp.finish)
                (List.filter (fun cp -> bank_of cp mod c.channels = ch) comps)))
      done;
      true)

(* The generator must exercise the write-drain watermark: enough
   sequences reach 16 pending writes and later fall back below it. *)
let test_watermark_coverage () =
  let crosses c =
    let s = fast c ~depth_hook:(fun ~now:_ ~depth:_ -> ()) in
    let writes = ref 0 and up = ref false and down = ref false in
    let is_write = Hashtbl.create 64 in
    let counted =
      {
        s with
        enqueue =
          (fun ~now ~bank ~row ~write ~id ->
            Hashtbl.replace is_write id write;
            if write then incr writes;
            if !writes >= 16 then up := true;
            s.enqueue ~now ~bank ~row ~write ~id);
      }
    in
    let (_ : _ * int) =
      drive c counted ~step:(fun cs ->
          List.iter
            (fun (cp : Fr_fcfs.completion) ->
              if Hashtbl.find is_write cp.id then decr writes;
              if !up && !writes < 16 then down := true)
            cs)
    in
    !up && !down
  in
  let cases = QCheck.Gen.generate ~rand:(Random.State.make [| 17 |]) ~n:200 gen_case in
  let n = List.length (List.filter crosses cases) in
  Alcotest.(check bool)
    (Printf.sprintf "%d of 200 sequences cross the watermark both ways" n)
    true (n >= 10)

let qsuite = List.map QCheck_alcotest.to_alcotest

let suite =
  [
    ("dram.timing", [ Alcotest.test_case "ddr3-1600" `Quick test_timing ]);
    ( "dram.address_map",
      [
        Alcotest.test_case "line interleaving" `Quick test_line_interleaving;
        Alcotest.test_case "page interleaving" `Quick test_page_interleaving;
        Alcotest.test_case "bank/row" `Quick test_bank_row;
      ]
      @ qsuite [ prop_mc_partition; prop_staged_equals_division ] );
    ( "dram.fr_fcfs",
      [
        Alcotest.test_case "row-hit priority" `Quick test_row_hit_priority;
        Alcotest.test_case "bank parallelism" `Quick test_bank_parallelism;
        Alcotest.test_case "bus serialization" `Quick test_bus_serialization;
        Alcotest.test_case "write drain" `Quick test_write_drain;
        Alcotest.test_case "FCFS baseline" `Quick test_fcfs_scheduler;
        Alcotest.test_case "closed page" `Quick test_closed_page;
        Alcotest.test_case "queue accounting" `Quick test_queue_accounting;
        Alcotest.test_case "generator crosses the write watermark" `Quick
          test_watermark_coverage;
      ]
      @ qsuite [ prop_all_served; prop_oracle; prop_physics ] );
  ]
