(** FR-FCFS memory controller (First-Ready, First-Come-First-Served).

    The scheduling policy of the simulated platform (Table 1, [16]): among
    the requests queued for a bank, one that hits the currently open row is
    served first; otherwise the oldest request wins.  Banks operate in
    parallel; the data bus of the channel serializes bursts.

    The controller is driven by a discrete-event engine: requests are
    {!enqueue}d with their arrival time; {!advance} issues everything that
    can start by the given time and reports completions; {!next_wake} says
    when issuing could next make progress.

    Cost: O(banks) per issued request, one request record per enqueue and
    no allocation per scan.  Each bank keeps its reads and its writes in
    two arrays, oldest first, and caches its candidate (which queue, which
    index).  The cache is dropped when the bank receives a request, when
    it issues, and, for every bank, when the controller's pending-write
    count crosses the drain watermark in either direction; rebuilding it,
    like erasing an issued request, is one pass over that bank's queue.
    A scan recomputes each candidate's earliest start in O(1), since
    another bank's issue on the same channel moves the bus.  {!next_wake}
    returns what the last scan found; that result is dropped on enqueue
    and on issue. *)

type completion = {
  id : int;  (** caller's request identifier *)
  start : int;  (** cycle the bank began the access *)
  finish : int;  (** cycle the data burst completed *)
  queue_delay : int;  (** start − arrival: time spent queued *)
  row_hit : bool;
}

type t

type scheduler =
  | Fr_fcfs  (** first-ready (row hit) first, then oldest — Table 1 *)
  | Fcfs  (** strict arrival order per bank: the naive baseline *)

type row_policy =
  | Open_page  (** rows stay open between accesses (default) *)
  | Closed_page  (** auto-precharge: every access pays the full cycle *)

val create :
  ?timing:Timing.t ->
  ?channels:int ->
  ?scheduler:scheduler ->
  ?row_policy:row_policy ->
  ?depth_hook:(now:int -> depth:int -> unit) ->
  banks:int ->
  unit ->
  t
(** [channels] (default 1) independent data buses; bank [b] transfers on
    channel [b mod channels].  The evaluated platform uses two channels
    per controller (1 GB per controller; the paper notes M1 performs well
    "assuming the number of channels per memory controller is
    sufficiently large").

    [depth_hook] is called with the current total queue depth every time a
    request is enqueued or issued — the observability layer feeds it to a
    trace counter series.  Default: no hook, no cost. *)

val enqueue :
  t -> now:int -> bank:int -> row:int -> ?write:bool -> id:int -> unit -> unit
(** [write] requests (writebacks) have lower priority: they are drained
    when their bank has no pending read, or when the controller's write
    queue exceeds a drain watermark — so they do not close the rows that
    pending reads are streaming from.

    @raise Invalid_argument if [bank] is out of range or [row] is
    negative. *)

val advance : t -> now:int -> completion list
(** Issues, in feasible-start order, every pending request whose start time
    is at most [now].  Idempotent when nothing can start. *)

val next_wake : t -> int option
(** Earliest cycle at which {!advance} would issue at least one request;
    [None] when the queue is empty. *)

val pending : t -> int

val max_pending : t -> int
(** High-water mark of the total queue depth since creation. *)

val served : t -> int

val row_hits : t -> int

val occupancy : t -> at:int -> float
(** Time-averaged number of queued requests over [0, at] — the bank-queue
    utilization metric of Fig. 18. *)

val occ_integral_at : t -> at:int -> float
(** Raw queue-length integral ∫depth·dt advanced to cycle [at] —
    [occupancy] is this divided by [at].  The parallel engine carries the
    integral so a partition's occupancy can be re-based onto the merged
    run's global horizon without a lossy double division. *)
