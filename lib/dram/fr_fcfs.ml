type completion = {
  id : int;
  start : int;
  finish : int;
  queue_delay : int;
  row_hit : bool;
}

type scheduler = Fr_fcfs | Fcfs

type row_policy = Open_page | Closed_page

(* One bank's read or write queue, oldest first, as parallel int arrays
   with a count.  Row hits leave from the middle, so removal shifts the
   younger tail down one slot. *)
type queue = {
  mutable ids : int array;
  mutable arrivals : int array;
  mutable rows : int array;
  mutable len : int;
}

let make_queue () =
  { ids = Array.make 4 0; arrivals = Array.make 4 0; rows = Array.make 4 0; len = 0 }

let widen a =
  let b = Array.make (2 * Array.length a) 0 in
  Array.blit a 0 b 0 (Array.length a);
  b

let push q ~id ~arrival ~row =
  if q.len = Array.length q.ids then begin
    q.ids <- widen q.ids;
    q.arrivals <- widen q.arrivals;
    q.rows <- widen q.rows
  end;
  q.ids.(q.len) <- id;
  q.arrivals.(q.len) <- arrival;
  q.rows.(q.len) <- row;
  q.len <- q.len + 1

let remove q i =
  let tail = q.len - i - 1 in
  Array.blit q.ids (i + 1) q.ids i tail;
  Array.blit q.arrivals (i + 1) q.arrivals i tail;
  Array.blit q.rows (i + 1) q.rows i tail;
  q.len <- q.len - 1

type bank = {
  channel : int;  (** bank mod channels *)
  reads : queue;
  writes : queue;
  mutable open_row : int;  (** -1 = no open row *)
  mutable free : int;  (** cycle the bank's last access finishes *)
  mutable from_writes : bool;  (** the candidate's queue, valid when [pick >= 0] *)
  mutable pick : int;  (** the candidate's index in its queue; -1 = stale *)
}

type t = {
  timing : Timing.t;
  scheduler : scheduler;
  row_policy : row_policy;
  depth_hook : (now:int -> depth:int -> unit) option;
  banks : bank array;
  bus_free : int array;  (** per channel *)
  est : int array;  (** per bank, its candidate's earliest start; max_int = empty *)
  stale : int array;  (** the banks whose [est] must be recomputed ... *)
  mutable num_stale : int;  (** ... [stale.(0 .. num_stale - 1)] *)
  is_stale : bool array;
  (* the argmin of [est], valid while no bank is stale *)
  mutable first_bank : int;  (** -1 = nothing queued *)
  mutable first_start : int;
  mutable num_pending : int;
  mutable num_writes : int;  (** pending writes, across banks *)
  mutable num_served : int;
  mutable num_row_hits : int;
  mutable max_pending : int;
  (* time-integral of queue length, for the occupancy statistic *)
  mutable occ_integral : int;
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
          {
            channel = b mod channels;
            reads = make_queue ();
            writes = make_queue ();
            open_row = -1;
            free = 0;
            from_writes = false;
            pick = -1;
          });
    bus_free = Array.make channels 0;
    est = Array.make banks max_int;
    stale = Array.make banks 0;
    num_stale = 0;
    is_stale = Array.make banks false;
    first_bank = -1;
    first_start = 0;
    num_pending = 0;
    num_writes = 0;
    num_served = 0;
    num_row_hits = 0;
    max_pending = 0;
    occ_integral = 0;
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
    t.occ_integral <- t.occ_integral + (t.occ_count * (now - t.occ_last_t));
    t.occ_last_t <- now
  end

let write_drain_watermark = 16

let mark_stale t b =
  if not t.is_stale.(b) then begin
    t.is_stale.(b) <- true;
    t.stale.(t.num_stale) <- b;
    t.num_stale <- t.num_stale + 1
  end

(* Crossing the watermark flips the pool choice of every bank that holds
   both reads and writes. *)
let watermark_crossed t =
  Array.iteri
    (fun i b ->
      b.pick <- -1;
      mark_stale t i)
    t.banks

let enqueue t ~now ~bank ~row ?(write = false) ~id () =
  if bank < 0 || bank >= Array.length t.banks || row < 0 then
    invalid_arg "Fr_fcfs.enqueue";
  occ_touch t now;
  t.occ_count <- t.occ_count + 1;
  t.num_pending <- t.num_pending + 1;
  let b = t.banks.(bank) in
  if write then begin
    push b.writes ~id ~arrival:now ~row;
    t.num_writes <- t.num_writes + 1;
    if t.num_writes = write_drain_watermark then watermark_crossed t
  end
  else push b.reads ~id ~arrival:now ~row;
  b.pick <- -1;
  mark_stale t bank;
  note_depth t now

let service_time t b row =
  if b.open_row = row then t.timing.Timing.row_hit
  else if b.open_row = -1 then t.timing.Timing.row_empty
  else t.timing.Timing.row_conflict

let oldest_hit q row =
  let rec go i = if i = q.len then 0 else if q.rows.(i) = row then i else go (i + 1) in
  go 0

(* FR-FCFS choice for a non-empty bank: among reads, the oldest row hit,
   else the oldest read.  Writes are drained only when the bank has no
   pending read or the write queue exceeds the drain watermark (read
   priority with opportunistic write drain, as in real controllers); in
   drain mode the pool with the older head wins. *)
let choose t b =
  let rs = b.reads and ws = b.writes in
  let w =
    if rs.len = 0 then true
    else if ws.len = 0 then false
    else if t.num_writes < write_drain_watermark then false
    else ws.arrivals.(0) < rs.arrivals.(0)
  in
  b.from_writes <- w;
  let q = if w then ws else rs in
  b.pick <- (match t.scheduler with Fcfs -> 0 | Fr_fcfs -> oldest_hit q b.open_row)

(* Earliest feasible start of bank [i]'s candidate, accounting for the
   bank being busy and the data bus serializing the final burst. *)
let refresh t i =
  let b = t.banks.(i) in
  t.is_stale.(i) <- false;
  if b.reads.len + b.writes.len = 0 then t.est.(i) <- max_int
  else begin
    if b.pick < 0 then choose t b;
    let q = if b.from_writes then b.writes else b.reads in
    let service = service_time t b q.rows.(b.pick) in
    t.est.(i) <-
      Int.max
        (Int.max q.arrivals.(b.pick) b.free)
        (t.bus_free.(b.channel) - (service - t.timing.Timing.burst))
  end

(* Bring the stale banks' starts up to date, then take the bank that can
   start earliest, the lowest on a tie. *)
let scan t =
  if t.num_stale > 0 then begin
    for k = 0 to t.num_stale - 1 do
      refresh t t.stale.(k)
    done;
    t.num_stale <- 0;
    let best = ref (-1) and best_start = ref max_int in
    for i = 0 to Array.length t.est - 1 do
      let s = t.est.(i) in
      if s < !best_start then begin
        best := i;
        best_start := s
      end
    done;
    t.first_bank <- !best;
    t.first_start <- !best_start
  end

let issue t i s =
  let b = t.banks.(i) in
  let q = if b.from_writes then b.writes else b.reads in
  let k = b.pick in
  let id = q.ids.(k) and arrival = q.arrivals.(k) and row = q.rows.(k) in
  let service = service_time t b row in
  let hit = b.open_row = row in
  remove q k;
  b.pick <- -1;
  t.num_pending <- t.num_pending - 1;
  if b.from_writes then begin
    t.num_writes <- t.num_writes - 1;
    if t.num_writes = write_drain_watermark - 1 then watermark_crossed t
  end;
  let finish = s + service in
  b.open_row <- (match t.row_policy with Open_page -> row | Closed_page -> -1);
  b.free <- finish;
  (* the bus moved: every bank on the channel must recompute its start *)
  t.bus_free.(b.channel) <- finish;
  let j = ref b.channel in
  while !j < Array.length t.banks do
    mark_stale t !j;
    j := !j + Array.length t.bus_free
  done;
  t.num_served <- t.num_served + 1;
  if hit then t.num_row_hits <- t.num_row_hits + 1;
  occ_touch t s;
  t.occ_count <- t.occ_count - 1;
  note_depth t s;
  { id; start = s; finish; queue_delay = s - arrival; row_hit = hit }

let advance t ~now =
  let rec loop acc =
    scan t;
    if t.first_bank >= 0 && t.first_start <= now then
      loop (issue t t.first_bank t.first_start :: acc)
    else List.rev acc
  in
  loop []

let next_wake t =
  scan t;
  if t.first_bank < 0 then None else Some t.first_start

let pending t = t.num_pending

let max_pending t = t.max_pending

let served t = t.num_served

let row_hits t = t.num_row_hits

(* The integral stays far below 2^53, so the conversion is exact. *)
let occupancy t ~at =
  occ_touch t at;
  if at <= 0 then 0. else float_of_int t.occ_integral /. float_of_int at

let occ_integral_at t ~at =
  occ_touch t at;
  float_of_int t.occ_integral
