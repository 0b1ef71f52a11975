(* The reference FR-FCFS controller: per-bank [request list] queues,
   filtered on every pick, and every bank's earliest start recomputed on
   every scan.  [Dram.Fr_fcfs] keeps the same semantics in per-bank
   read/write vectors with a cached candidate; this copy is kept only as
   the oracle the constant-cost scheduler is checked against
   (test_dram.ml), so it favours being obviously right over being fast. *)

module Timing = Dram.Timing

type completion = {
  id : int;
  start : int;
  finish : int;
  queue_delay : int;
  row_hit : bool;
}

type request = { rid : int; arrival : int; bank : int; row : int; write : bool }

type scheduler = Fr_fcfs | Fcfs

type row_policy = Open_page | Closed_page

type t = {
  timing : Timing.t;
  banks : int;
  channels : int;
  scheduler : scheduler;
  row_policy : row_policy;
  depth_hook : (now:int -> depth:int -> unit) option;
  open_row : int array;  (** -1 = no open row *)
  bank_free : int array;
  bus_free : int array;  (** per channel; a bank belongs to bank mod channels *)
  queues : request list array;  (** per bank, oldest first *)
  mutable num_pending : int;
  mutable num_writes : int;  (** pending writes, across banks *)
  mutable num_served : int;
  mutable num_row_hits : int;
  mutable max_pending : int;
  (* time-integral of queue length, for the occupancy statistic *)
  mutable occ_integral : float;
  mutable occ_last_t : int;
  mutable occ_count : int;
}

let create ?(timing = Timing.ddr3_1600) ?(channels = 1) ?(scheduler = Fr_fcfs)
    ?(row_policy = Open_page) ?depth_hook ~banks () =
  if banks <= 0 || channels <= 0 then invalid_arg "Fr_fcfs.create";
  {
    timing;
    banks;
    channels;
    scheduler;
    row_policy;
    depth_hook;
    open_row = Array.make banks (-1);
    bank_free = Array.make banks 0;
    bus_free = Array.make channels 0;
    queues = Array.make banks [];
    num_pending = 0;
    num_writes = 0;
    num_served = 0;
    num_row_hits = 0;
    max_pending = 0;
    occ_integral = 0.;
    occ_last_t = 0;
    occ_count = 0;
  }

let note_depth t now =
  if t.num_pending > t.max_pending then t.max_pending <- t.num_pending;
  match t.depth_hook with
  | None -> ()
  | Some f -> f ~now ~depth:t.num_pending

let occ_touch t now =
  if now > t.occ_last_t then begin
    t.occ_integral <-
      t.occ_integral +. (float_of_int t.occ_count *. float_of_int (now - t.occ_last_t));
    t.occ_last_t <- now
  end

let write_drain_watermark = 16

let enqueue t ~now ~bank ~row ?(write = false) ~id () =
  if bank < 0 || bank >= t.banks then invalid_arg "Fr_fcfs.enqueue";
  occ_touch t now;
  t.occ_count <- t.occ_count + 1;
  t.num_pending <- t.num_pending + 1;
  if write then t.num_writes <- t.num_writes + 1;
  t.queues.(bank) <- t.queues.(bank) @ [ { rid = id; arrival = now; bank; row; write } ];
  note_depth t now

let service_time t bank row =
  if t.open_row.(bank) = row then (t.timing.Timing.row_hit, true)
  else if t.open_row.(bank) = -1 then (t.timing.Timing.row_empty, false)
  else (t.timing.Timing.row_conflict, false)

(* FR-FCFS choice for one bank: among reads, the oldest row hit, else the
   oldest read.  Writes are drained only when the bank has no pending read
   or the write queue exceeds the drain watermark (read priority with
   opportunistic write drain, as in real controllers). *)
let pick_for_bank t bank =
  let mine = t.queues.(bank) in
  match mine with
  | [] -> None
  | _ ->
    let reads = List.filter (fun r -> not r.write) mine in
    let writes = List.filter (fun r -> r.write) mine in
    let pool =
      match (reads, writes) with
      | [], ws -> ws
      | rs, [] -> rs
      | rs, _ when t.num_writes < write_drain_watermark -> rs
      | rs, ws ->
        (* drain mode: writes are as old as anything; serve oldest pool *)
        if (List.hd ws).arrival < (List.hd rs).arrival then ws else rs
    in
    (match pool with
    | [] -> None
    | oldest :: _ -> (
      match t.scheduler with
      | Fcfs -> Some oldest
      | Fr_fcfs -> (
        match List.find_opt (fun r -> r.row = t.open_row.(bank)) pool with
        | Some r -> Some r
        | None -> Some oldest)))

(* Earliest feasible start of the FR-FCFS candidate for [bank], accounting
   for the bank being busy and the data bus serializing the final burst. *)
let earliest_start t bank =
  match pick_for_bank t bank with
  | None -> None
  | Some r ->
    let service, _hit = service_time t bank r.row in
    let s = max r.arrival t.bank_free.(bank) in
    (* the burst occupies the channel bus during the last [burst] cycles *)
    let ch = bank mod t.channels in
    let s = max s (t.bus_free.(ch) - (service - t.timing.Timing.burst)) in
    Some (r, s, service)

let issue t r s service hit =
  t.queues.(r.bank) <- List.filter (fun q -> q != r) t.queues.(r.bank);
  t.num_pending <- t.num_pending - 1;
  if r.write then t.num_writes <- t.num_writes - 1;
  let finish = s + service in
  t.open_row.(r.bank) <-
    (match t.row_policy with Open_page -> r.row | Closed_page -> -1);
  t.bank_free.(r.bank) <- finish;
  t.bus_free.(r.bank mod t.channels) <- finish;
  t.num_served <- t.num_served + 1;
  if hit then t.num_row_hits <- t.num_row_hits + 1;
  occ_touch t s;
  t.occ_count <- t.occ_count - 1;
  note_depth t s;
  { id = r.rid; start = s; finish; queue_delay = s - r.arrival; row_hit = hit }

let advance t ~now =
  let rec loop acc =
    (* find the bank whose candidate can start earliest; empty banks are
       skipped in O(1) via the per-bank queues *)
    let best = ref None in
    for b = 0 to t.banks - 1 do
      if t.queues.(b) <> [] then
        match earliest_start t b with
        | None -> ()
        | Some (r, s, service) -> (
          match !best with
          | Some (_, s', _, _) when s' <= s -> ()
          | _ -> best := Some (r, s, service, b))
    done;
    match !best with
    | Some (r, s, service, bank) when s <= now ->
      let _, hit = service_time t bank r.row in
      loop (issue t r s service hit :: acc)
    | _ -> List.rev acc
  in
  loop []

let next_wake t =
  let best = ref None in
  for b = 0 to t.banks - 1 do
    if t.queues.(b) <> [] then
      match earliest_start t b with
      | None -> ()
      | Some (_, s, _) -> (
        match !best with
        | Some s' when s' <= s -> ()
        | _ -> best := Some s)
  done;
  !best

let pending t = t.num_pending

let max_pending t = t.max_pending

let served t = t.num_served

let row_hits t = t.num_row_hits

let occupancy t ~at =
  occ_touch t at;
  if at <= 0 then 0. else t.occ_integral /. float_of_int at

let occ_integral_at t ~at =
  occ_touch t at;
  t.occ_integral
