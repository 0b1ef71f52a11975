(** Link-level contention model for the mesh.

    A message reserves, hop by hop, the directed links of its XY route.
    Each link can start forwarding one message per [serialization] window
    (packet length in flits over a 16-byte link); a message arriving at a
    busy link waits for the link to free.  Per-hop latency covers the
    2-cycle router pipeline plus wire traversal (the aggregate 4-cycle
    per-hop figure of Table 1).

    This is a wormhole approximation: it captures queueing delay — the
    quantity the paper's localization attacks — without per-flit
    simulation, and it makes off-chip and on-chip traffic contend for the
    same links, which is the paper's second effect (off-chip traffic slows
    on-chip accesses).

    On a hierarchical topology ([Topology.chiplets]), links whose
    endpoints lie in different chiplets form a second link class: they
    charge the chiplet grid's [link_latency] per hop and serialize the
    message over its [link_bytes] width.  Flat topologies are charged
    exactly as before. *)

type config = {
  per_hop_latency : int;  (** cycles per link traversal, default 4 *)
  link_bytes : int;  (** link width, default 16 *)
}

val default_config : config

type t

val create : ?config:config -> Topology.t -> t

val transfer :
  ?on_hop:(link:int -> start:int -> finish:int -> unit) ->
  t ->
  now:int ->
  src:int ->
  dst:int ->
  bytes:int ->
  int
(** [transfer net ~now ~src ~dst ~bytes] routes one message and returns
    its arrival time, allocating nothing.  Each link of the XY route is
    reserved for the message's serialization (flits of the link width);
    a busy link delays it.  The hop count equals [Topology.distance]
    (memoizable by the caller) and the contention delay is [arrival -
    now - unloaded latency].  [src = dst] delivers instantly.  Routes
    are memoized per (src, dst), built from the topology on first use,
    so XY routing is not recomputed per leg; a source's row of the memo
    is allocated on its first message, so a large mesh pays only for
    the sources that send.

    [on_hop] is invoked once per traversed link with its link id, the
    cycle the header started on the link and the cycle it reached the next
    router — the per-link detail the request-path tracer records.  The
    default does nothing and costs nothing. *)

val link_busy : t -> int array
(** Per-link-id cycles reserved so far (a copy). *)

val utilization : t -> at:int -> float array
(** Per-link fraction of [0, at] the link was reserved — the per-link
    utilization profile behind the paper's contention analysis. *)
