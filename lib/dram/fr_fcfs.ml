type completion = {
  id : int;
  start : int;
  finish : int;
  queue_delay : int;
  row_hit : bool;
}

type request = { rid : int; arrival : int; row : int }

type scheduler = Fr_fcfs | Fcfs

type row_policy = Open_page | Closed_page

(* One bank's read or write queue, oldest first: an array plus a count.
   Row hits leave from the middle, so removal shifts the younger tail
   down one slot. *)
type queue = { mutable reqs : request array; mutable len : int }

let no_request = { rid = -1; arrival = 0; row = -1 }

let make_queue () = { reqs = Array.make 4 no_request; len = 0 }

let push q r =
  if q.len = Array.length q.reqs then begin
    let a = Array.make (2 * q.len) no_request in
    Array.blit q.reqs 0 a 0 q.len;
    q.reqs <- a
  end;
  q.reqs.(q.len) <- r;
  q.len <- q.len + 1

let remove q i =
  Array.blit q.reqs (i + 1) q.reqs i (q.len - i - 1);
  q.len <- q.len - 1;
  q.reqs.(q.len) <- no_request

type bank = {
  channel : int;  (** bank mod channels *)
  reads : queue;
  writes : queue;
  mutable open_row : int;  (** -1 = no open row *)
  mutable free : int;  (** cycle the bank's last access finishes *)
  mutable pool : queue;  (** the candidate's queue, valid when [pick >= 0] *)
  mutable pick : int;  (** the candidate's index in [pool]; -1 = stale *)
}

type t = {
  timing : Timing.t;
  scheduler : scheduler;
  row_policy : row_policy;
  depth_hook : (now:int -> depth:int -> unit) option;
  banks : bank array;
  bus_free : int array;  (** per channel *)
  (* the last scan's result, valid until the next enqueue or issue *)
  mutable scanned : bool;
  mutable first_bank : int;  (** -1 = nothing queued *)
  mutable first_start : int;
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
    scheduler;
    row_policy;
    depth_hook;
    banks =
      Array.init banks (fun b ->
          let reads = make_queue () in
          {
            channel = b mod channels;
            reads;
            writes = make_queue ();
            open_row = -1;
            free = 0;
            pool = reads;
            pick = -1;
          });
    bus_free = Array.make channels 0;
    scanned = true;
    first_bank = -1;
    first_start = 0;
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

(* Crossing the watermark flips the pool choice of every bank that holds
   both reads and writes. *)
let invalidate_picks t = Array.iter (fun b -> b.pick <- -1) t.banks

let enqueue t ~now ~bank ~row ?(write = false) ~id () =
  if bank < 0 || bank >= Array.length t.banks || row < 0 then
    invalid_arg "Fr_fcfs.enqueue";
  occ_touch t now;
  t.occ_count <- t.occ_count + 1;
  t.num_pending <- t.num_pending + 1;
  let b = t.banks.(bank) in
  let r = { rid = id; arrival = now; row } in
  if write then begin
    push b.writes r;
    t.num_writes <- t.num_writes + 1;
    if t.num_writes = write_drain_watermark then invalidate_picks t
  end
  else push b.reads r;
  b.pick <- -1;
  t.scanned <- false;
  note_depth t now

let service_time t b row =
  if b.open_row = row then t.timing.Timing.row_hit
  else if b.open_row = -1 then t.timing.Timing.row_empty
  else t.timing.Timing.row_conflict

let oldest_hit q row =
  let rec go i = if i = q.len then 0 else if q.reqs.(i).row = row then i else go (i + 1) in
  go 0

(* FR-FCFS choice for a non-empty bank, cached in [pool]/[pick]: among
   reads, the oldest row hit, else the oldest read.  Writes are drained
   only when the bank has no pending read or the write queue exceeds the
   drain watermark (read priority with opportunistic write drain, as in
   real controllers); in drain mode the pool with the older head wins. *)
let candidate t b =
  if b.pick < 0 then begin
    let rs = b.reads and ws = b.writes in
    let pool =
      if rs.len = 0 then ws
      else if ws.len = 0 then rs
      else if t.num_writes < write_drain_watermark then rs
      else if ws.reqs.(0).arrival < rs.reqs.(0).arrival then ws
      else rs
    in
    b.pool <- pool;
    b.pick <- (match t.scheduler with Fcfs -> 0 | Fr_fcfs -> oldest_hit pool b.open_row)
  end;
  b.pool.reqs.(b.pick)

(* Earliest feasible start of [b]'s candidate, accounting for the bank
   being busy and the data bus serializing the final burst.  Recomputed on
   every scan: another bank's issue on the same channel moves [bus_free]. *)
let earliest_start t b =
  let r = candidate t b in
  let service = service_time t b r.row in
  max (max r.arrival b.free) (t.bus_free.(b.channel) - (service - t.timing.Timing.burst))

(* The bank whose candidate can start earliest, the lowest on a tie. *)
let scan t =
  let best = ref (-1) and best_start = ref 0 in
  for i = 0 to Array.length t.banks - 1 do
    let b = t.banks.(i) in
    if b.reads.len + b.writes.len > 0 then begin
      let s = earliest_start t b in
      if !best < 0 || s < !best_start then begin
        best := i;
        best_start := s
      end
    end
  done;
  t.first_bank <- !best;
  t.first_start <- !best_start;
  t.scanned <- true

let issue t b s =
  let q = b.pool and i = b.pick in
  let r = q.reqs.(i) in
  let service = service_time t b r.row in
  let hit = b.open_row = r.row in
  remove q i;
  b.pick <- -1;
  t.scanned <- false;
  t.num_pending <- t.num_pending - 1;
  if q == b.writes then begin
    t.num_writes <- t.num_writes - 1;
    if t.num_writes = write_drain_watermark - 1 then invalidate_picks t
  end;
  let finish = s + service in
  b.open_row <- (match t.row_policy with Open_page -> r.row | Closed_page -> -1);
  b.free <- finish;
  t.bus_free.(b.channel) <- finish;
  t.num_served <- t.num_served + 1;
  if hit then t.num_row_hits <- t.num_row_hits + 1;
  occ_touch t s;
  t.occ_count <- t.occ_count - 1;
  note_depth t s;
  { id = r.rid; start = s; finish; queue_delay = s - r.arrival; row_hit = hit }

let advance t ~now =
  let rec loop acc =
    if not t.scanned then scan t;
    if t.first_bank >= 0 && t.first_start <= now then
      loop (issue t t.banks.(t.first_bank) t.first_start :: acc)
    else List.rev acc
  in
  loop []

let next_wake t =
  if not t.scanned then scan t;
  if t.first_bank < 0 then None else Some t.first_start

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
