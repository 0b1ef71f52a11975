(** First-class platform description: the one place that bundles the mesh
    topology, the L2-to-MC cluster mapping, the controller placement and
    the address-map parameters the compiler and the simulator must agree
    on.

    Before this module existed, the pipeline's mapping pass and
    [Sim.Config] each re-derived this tuple; a platform value is now built
    once (from a named preset, a JSON file, or programmatically) and
    consumed by both sides, so the compile → simulate → recalibrate →
    recompile loop always talks about the same machine.

    All fallible constructors are Result-first. *)

type interleaving = Dram.Address_map.interleaving =
  | Line_interleaved
  | Page_interleaved
(** Physical-address interleaving granule: consecutive L2 lines or
    consecutive OS pages rotate over the controllers — the DRAM layer's
    own address-map choice, so compiler and simulator share one type. *)

type t = {
  name : string;
  topo : Noc.Topology.t;
  cluster : Cluster.t;
  placement : Noc.Placement.t;
  interleaving : interleaving;
  line_bytes : int;  (** L2 line size = line-interleaving granule *)
  page_bytes : int;  (** OS page = page-interleaving granule *)
  elem_bytes : int;  (** array element size *)
  banks_per_mc : int;
  channels_per_mc : int;
}

val num_mcs : t -> int

val granule_bytes : t -> int
(** The interleaving granule in bytes ([line_bytes] or [page_bytes]). *)

val placement_for :
  ?sites:Noc.Coord.t array ->
  Noc.Topology.t ->
  Cluster.t ->
  (Noc.Placement.t, string) result
(** MC [j] placed at the unused site nearest cluster [j/k]'s centroid;
    default sites are the mesh corners when there are at most four MCs
    (named "P1-corners"), the full perimeter otherwise ("perimeter-N"). *)

val make_result :
  ?placement:Noc.Placement.t ->
  ?interleaving:interleaving ->
  ?line_bytes:int ->
  ?page_bytes:int ->
  ?elem_bytes:int ->
  ?banks_per_mc:int ->
  ?channels_per_mc:int ->
  name:string ->
  topo:Noc.Topology.t ->
  cluster:Cluster.t ->
  unit ->
  (t, string) result
(** Validates that the mesh has at most 4096 nodes (the simulator's
    per-node-pair state grows with the square of the node count), that
    the cluster tiles the topology with at most that many controllers,
    that the placement (if
    given) has one site per controller, and that line/page/element sizes
    nest evenly.  Defaults are Table 1's: line interleaving, 256 B lines,
    4 KB pages, 8 B elements, 16 banks and 4 channels per MC; the
    placement defaults to {!placement_for}. *)

val default : unit -> t
(** The [mesh8x8-mc4] preset — Table 1's platform, mapping M1, corner
    controllers. *)

val with_cluster : t -> Cluster.t -> (t, string) result
(** Replaces the mapping and recomputes a matching placement. *)

val with_mapping : t -> string -> (t, string) result
(** Re-maps by CLI spec: ["M1"], ["M2"], an MC count as either ["8"] or
    the cluster name a selection note reports (["M1x8"]), or [""] to
    keep the platform's own mapping. *)

val same_machine : t -> t -> bool
(** Same cluster geometry (grid and MCs-per-cluster) and same controller
    attachment nodes.  Names are presentation, not identity: the
    platform's own mapping can equal a preset, and a searched placement
    can converge back onto preset sites. *)

val candidates : ?extra:t list -> t -> t list
(** The Section 4 candidate set this platform can realize: the platform's
    own mapping plus M1, M2 and the Fig. 27 8/16-MC [with_mcs]
    configurations — deduplicated by {!same_machine}, and restricted to
    mappings that tile the mesh and need no more controllers than the
    platform has.  The platform's own mapping comes first.  [extra]
    platforms (e.g. searched placements) join the pool after the presets
    when they share the topology, fit the MC budget and are not already
    proposed. *)

val preset_names : string list
(** The documented presets, for [--help] and error messages. *)

val of_spec : string -> (t, string) result
(** [of_spec s] loads a platform from [s]: an existing file path is parsed
    as a platform JSON file ({!of_json}); otherwise [s] must name a preset
    of the form [mesh<W>x<H>-{m1|m2|mc<N>}] (e.g. [mesh8x8-mc8]) or
    [chiplet<CX>x<CY>-{m1|m2|mc<N>}] (e.g. [chiplet2x2-mc4]: a CX×CY grid
    of 4×4-core chiplets whose boundary links cost 12 cycles over 8 B).
    [mc4] is mapping M1, the paper's default. *)

val to_json : t -> Obs.Json.t
(** Hierarchical platforms carry a ["hierarchy"] member
    ([chiplets_x]/[chiplets_y]/[link_latency]/[link_bytes]); flat
    platforms' documents are byte-identical to the pre-chiplet format. *)

val hierarchy_member : t -> (string * Obs.Json.t) list
(** The ["hierarchy"] member of {!to_json}, or [[]] on a flat platform;
    the simulator's configuration document embeds the same bytes. *)

val of_json : Obs.Json.t -> (t, string) result
(** Inverse of {!to_json}; [cluster], [placement], [hierarchy] and the
    scalar parameters are optional and default to the preset values
    ([of_json (to_json p)] restores [p] exactly).  A 1×1 ["hierarchy"]
    grid is normalized to the flat mesh, so the degenerate hierarchical
    machine is structurally — and behaviorally — identical to the flat
    preset.  An unknown key at any level is an error. *)

val of_file : string -> (t, string) result
(** Reads and decodes a platform file; errors read [PATH: message]. *)
