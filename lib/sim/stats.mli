(** Statistics collected by a simulation run — a typed view over an
    {!Obs.Metrics} registry, one metric per quantity the paper reports.

    "Network latency" is time spent traversing (and queueing for) mesh
    links; an access's legs are attributed to the on-chip or off-chip
    category depending on whether the access was ultimately served
    on-chip (cache-to-cache or home-bank hit) or by a memory controller.
    "Memory latency" is queue + service time at the controller.

    The recording functions are O(1) (a field mutation or an array store);
    the engine calls them on its hot path.  Snapshots, merging and the
    JSON export all go through the underlying registry, so any metric an
    instrumentation site registers there is exported for free. *)

type t

val max_hops : int
(** Hop-histogram upper bound; longer routes clamp into the last bucket. *)

val create : nodes:int -> mcs:int -> t

val registry : t -> Obs.Metrics.registry
(** The backing registry — instrumentation sites may register additional
    gauges/histograms here; they ride along in snapshots and JSON. *)

(** {2 Recording (engine-facing, O(1))} *)

val record_access : t -> unit

val record_l1_hit : t -> unit

val record_l2_hit : t -> unit

val record_offchip : t -> origin:int -> mc:int -> unit
(** One off-chip access, charged to the (origin node, controller) cell of
    the Fig. 13 map. *)

val record_leg : t -> offchip:bool -> hops:int -> cycles:int -> unit
(** One network leg: hop histogram (clamped into the last bucket beyond
    {!max_hops}), latency sum and message count of its category. *)

val record_memory : t -> latency:int -> queue:int -> row_hit:bool -> unit
(** Controller latency of one read: total (queue + service), queue part,
    and whether it hit the open row.  Also feeds the log-scaled
    [mem.latency] / [mem.queue_delay] histograms. *)

val record_writeback : t -> unit

val note_finish : t -> int -> unit
(** Raises the finish time to at least the given cycle. *)

val set_page_fallbacks : t -> int -> unit

val set_link_utilization : t -> float array -> unit
(** Summarizes per-link utilization as the [noc.max_link_utilization]
    and [noc.avg_link_utilization] gauges. *)

(** {2 Readers} *)

val total_accesses : t -> int

val l1_hits : t -> int

val l2_hits : t -> int
(** served by some L2 (local, home or peer) *)

val offchip_accesses : t -> int

val onchip_messages : t -> int

val offchip_net_cycles : t -> int

val offchip_messages : t -> int

val memory_cycles : t -> int
(** queue + service, reads only *)

val memory_queue_cycles : t -> int

val row_hits : t -> int

val writebacks : t -> int

val page_fallbacks : t -> int

val finish_time : t -> int

val onchip_hops : t -> int array
(** Hop histogram for the Fig. 15 CDFs (index = links traversed). *)

val offchip_hops : t -> int array

val node_mc_requests : t -> int array array
(** Off-chip requests per (requester node, controller) — Fig. 13. *)

(** {2 Derived metrics} *)

val avg_offchip_net : t -> float

val avg_memory : t -> float

val hop_cdf : int array -> float array
(** [hop_cdf h].(x) = fraction of messages traversing ≤ x links.  The
    result is monotone nondecreasing and ends at 1 (asserted). *)

(** {2 Aggregation and export} *)

val merge : t -> t -> t
(** Element-wise combination for multiprogrammed aggregation: counters and
    histograms add, finish time is the max.  The operands must come from
    platforms of the same shape (nodes × controllers). *)

val snapshot : t -> Obs.Metrics.snapshot

val to_json : t -> Obs.Json.t
(** Full machine-readable dump: every registry metric, the hop histograms
    and CDFs, the node × controller request map, and the derived
    averages. *)

val pp_summary : Format.formatter -> t -> unit
