(** Off-chip attribution aggregator: per-site × per-controller × per-bank
    access counters, with per-site hop and queue-latency histograms.

    The engine feeds one {!record} per measured off-chip access (and one
    {!record_queue} when the controller completes it); a run's counters
    then answer "which source reference loaded which controller/bank, from
    how far, with how much queueing" — the paper's argument, per access
    site instead of in aggregate.

    This layer cannot see the compiler's AST (it sits below [lang]), so
    site metadata arrives as plain strings via {!site}; the simulator
    builds it from a {e Lang.Sites} table.  Site id [-1] (an access the
    tagger could not attribute) is kept in a separate "unknown" row rather
    than dropped, so the cube's total always equals the engine's off-chip
    counter.

    Recording is O(1) array stores.  {!snapshot}s are plain data:
    {!absorb} adds one into a live cube (a parallel run's partitions), in
    any order; it refuses snapshots of different platform shapes or site
    tables as a [Result], per the repo's no-raising-API policy. *)

type site = {
  array : string;
  write : bool;
  phase : int;
  loc : string;  (** rendered source location *)
}

type t

type snapshot = {
  sites : site array;
  mcs : int;
  banks : int;
  max_hops : int;
  counts : int array;
      (** [(nsites + 1) * mcs * banks], row-major site, mc, bank; the
          extra trailing site row is the unknown-site bucket *)
  hops : int array;  (** [(nsites + 1) * (max_hops + 1)] *)
  queue_counts : int array;
      (** [(nsites + 1) * Metrics.max_log2_buckets], log2 *)
  queue_sum : int array;  (** per site: total queue cycles *)
  queue_total : int array;  (** per site: completions observed *)
}

val create : sites:site array -> mcs:int -> banks:int -> max_hops:int -> t

val record : t -> site:int -> mc:int -> bank:int -> hops:int -> unit
(** One off-chip access from [site] served by ([mc], [bank]), whose
    request leg traversed [hops] links.  Out-of-range sites land in the
    unknown row; hops clamp into the last bucket. *)

val record_queue : t -> site:int -> queue:int -> unit
(** Queue delay (cycles) of one completed off-chip access from [site]. *)

val snapshot : t -> snapshot

val create_like : t -> t
(** A fresh all-zero cube with the same site table and platform shape —
    each partition of a parallel run records into its own clone. *)

val absorb : t -> snapshot -> (unit, string) result
(** Adds [snapshot] into the live cube in place, cell by cell (callers
    holding [t] see the combined run).  A snapshot of another platform
    shape or site table is an error. *)

(** {2 Snapshot readers} *)

val snap_total : snapshot -> int

val site_count : snapshot -> int -> int
(** Total accesses of one site (index [length sites] = unknown row). *)

val site_mc_count : snapshot -> site:int -> mc:int -> int

val bank_load : snapshot -> int array array
(** [(bank_load s).(m).(b)] = accesses served by controller [m], bank [b],
    summed over sites — the bank-pressure matrix behind the heatmap. *)

val to_json : snapshot -> Json.t

val of_json : Json.t -> (snapshot, string) result
(** Inverse of {!to_json} (used by the report tool on stats-JSON docs). *)

val pp_table : Format.formatter -> snapshot -> unit
(** The attribution table, byte-stable for golden tests: one row per site
    with its per-controller split, average request hops and average queue
    delay, plus a totals row. *)
