(** Priority queue of timestamped events: a calendar queue.

    Events pop in time order, ties in insertion order, which keeps runs
    deterministic.  Events less than 4096 cycles after the time last
    popped or peeked sit in one-cycle FIFO buckets, so a push there is
    an append and a pop takes a bucket's head; an occupancy bitmap finds
    the next non-empty bucket in a scan of at most 128 words.  Events
    further ahead, or pushed before that time, wait in a binary heap and
    move into the buckets as the window reaches them.  Once the
    slot pool has grown to the run's peak population, {!push} and the
    {!next_time}/{!pop_payload} pair allocate nothing. *)

type 'a t

val create : unit -> 'a t

val push : 'a t -> time:int -> 'a -> unit

val pop : 'a t -> (int * 'a) option
(** The earliest event, or [None] when empty. *)

val next_time : 'a t -> int
(** Timestamp of the earliest event without removing it.
    @raise Invalid_argument when the heap is empty. *)

val pop_payload : 'a t -> 'a
(** Removes and returns the earliest event's payload (allocation-free
    counterpart of {!pop}; read {!next_time} first for the timestamp).
    @raise Invalid_argument when the heap is empty. *)

val is_empty : 'a t -> bool

val size : 'a t -> int
