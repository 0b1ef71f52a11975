(** Request-path tracer: bounded-memory span sink with a Chrome
    [trace_event] JSON exporter.

    The simulator tags each traced off-chip access with one span per
    pipeline stage (L1 lookup, L2/directory, each NoC link, controller
    queue, DRAM bank service, reply); the resulting file opens directly in
    [chrome://tracing] / Perfetto.  Timestamps are simulated cycles,
    exported one cycle = 1 µs.

    A sink is either {!disabled} — every record is a single branch, no
    allocation — or a ring buffer of fixed capacity: once full, the oldest
    events are overwritten, so memory stays bounded on any run length.
    The [sample] knob traces every Nth request ({!hit}). *)

type event =
  | Complete of {
      cat : string;  (** span category: cache, noc, mc-queue, dram, ... *)
      name : string;
      pid : int;  (** process track: job id *)
      tid : int;  (** thread track: requester node *)
      ts : int;  (** start, in cycles *)
      dur : int;
      args : (string * Json.t) list;
    }
  | Counter of { name : string; pid : int; ts : int; value : int }
      (** instantaneous series sample (e.g. controller queue depth) *)

type t

val disabled : t

val create : ?capacity:int -> ?sample:int -> unit -> t
(** [capacity] (default 65536) bounds retained events; [sample] (default
    1) traces one request in [sample]. *)

val enabled : t -> bool

val sample : t -> int

val hit : t -> int -> bool
(** [hit t id]: should the request with ordinal [id] be traced?  False on
    a disabled sink. *)

val span :
  t ->
  cat:string ->
  name:string ->
  pid:int ->
  tid:int ->
  ts:int ->
  dur:int ->
  ?args:(string * Json.t) list ->
  unit ->
  unit

val counter : t -> name:string -> pid:int -> ts:int -> value:int -> unit

val events : t -> event list
(** Retained events, oldest first. *)

val recorded : t -> int
(** Total events ever recorded (including overwritten ones). *)

val dropped : t -> int

val to_json : t -> Json.t
(** The Chrome [trace_event] envelope:
    [{"traceEvents": [...], "displayTimeUnit": "ms", ...}]. *)

val write_file : t -> string -> (unit, string) result
(** {!to_json} written with {!Json.to_file}. *)
