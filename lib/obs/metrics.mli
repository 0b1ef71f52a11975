(** Metrics registry: named counters, gauges and histograms with O(1)
    record paths and a typed snapshot/merge.

    A metric is registered once (by name) and then recorded through its
    handle — the record path is a single field mutation or array store, so
    instrumented hot loops pay no lookup, no allocation and no branch on
    an "enabled" flag.  Snapshots are taken at the end of a run for
    reporting and JSON export. *)

type counter

type gauge

type histogram

type registry

(** Histograms bucket an observation [v >= 0] into [floor(log2 v) + 1]
    (bucket 0 holds v = 0), clamped to [max_log2_buckets - 1] — constant
    bucket count, O(1) record, covers any int. *)
val max_log2_buckets : int

type hist_snapshot = {
  counts : int array;
  sum : int;  (** sum of observed values *)
  total : int;  (** number of observations *)
}

type snapshot = {
  counters : (string * int) list;  (** sorted by name *)
  gauges : (string * float) list;
  histograms : (string * hist_snapshot) list;
}

val create : unit -> registry

val counter : registry -> string -> counter
(** Registers (or returns the existing) counter under [name]. *)

val gauge : registry -> string -> gauge

val histogram : registry -> string -> (histogram, string) result
(** Registers (or returns the existing) histogram under [name]; [Error]
    when [name] is already another kind of metric — registration
    conflicts come from configuration, so they surface as values instead
    of exceptions (repo policy: no raising APIs). *)

val incr : counter -> unit

val add : counter -> int -> unit

val value : counter -> int

val set : gauge -> float -> unit

val set_max : gauge -> float -> unit
(** Keeps the maximum of the current and the given value. *)

val gauge_value : gauge -> float

val observe : histogram -> int -> unit
(** O(1); negative observations clamp into bucket 0. *)

val bucket_index : int -> int
(** The bucket [observe] files a value under (exposed for tests). *)

val snapshot : registry -> snapshot

val merge : snapshot -> snapshot -> snapshot
(** Counters and histograms add; gauges keep the maximum.  Metrics present
    on one side only pass through. *)

val merge_into : into:registry -> registry -> unit
(** Folds a source registry into [into] with {!merge} semantics,
    registering missing metrics on the fly. *)

val to_json : snapshot -> Json.t

val snapshot_of_json : Json.t -> (snapshot, string) result
(** Inverse of {!to_json} — [snapshot_of_json (to_json s)] restores [s]
    exactly (trimmed histogram tails are re-padded to the full bucket
    count).  Used by the sweep aggregator to merge the per-job stats
    files written by worker processes. *)
