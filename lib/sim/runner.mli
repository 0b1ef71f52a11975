(** End-to-end experiment runner: compile (optionally) with the layout
    pass, lay the arrays out in virtual memory, generate the access
    trace, and simulate it. *)

type prepared = {
  program : Lang.Ast.program;  (** original program *)
  analysis : Lang.Analysis.t;
  report : Core.Transform.report option;  (** [Some] when optimized *)
  job : Engine.job;
  bases : (string * int) list;  (** virtual base address of each array *)
  desired_mc : int -> int option;
      (** compiler page hints for the MC-aware policy: [Some m] for pages
          of layout-optimized arrays, [None] (OS decides by first touch)
          for everything else *)
  sites : Lang.Sites.t;
      (** access-site table of the program; the job's site streams (when
          prepared with [~attr:true]) index into it *)
}

val prepare :
  Config.t ->
  optimized:bool ->
  ?threads:int ->
  ?core_offset:int ->
  ?vaddr_base:int ->
  ?name:string ->
  ?warmup_phases:int ->
  ?index_lookup:(string -> int array -> int) ->
  ?profile:(string -> (Affine.Vec.t * Affine.Vec.t) list) ->
  ?attr:bool ->
  Lang.Ast.program ->
  prepared
(** [threads] defaults to all cores × threads-per-core; [core_offset]
    shifts the thread→core binding (multiprogrammed runs).  Array bases
    are aligned to [num_mcs] interleaving units {e and} to [num_mcs]
    pages — the paper's base-address padding — starting at
    [vaddr_base].

    [attr] (default false) generates the trace with per-access site-id
    side streams so the engine can attribute off-chip traffic (see
    {!attr_for}); plain preparation leaves the job untagged. *)

val relocate :
  Config.t ->
  prepared ->
  vaddr_base:int ->
  core_offset:int ->
  name:string ->
  prepared
(** [relocate cfg p ~vaddr_base ~core_offset ~name] is what {!prepare}
    with the same program, options and thread count would return at
    [vaddr_base] and [core_offset] — without interpreting the program
    again.  Laying the arrays out from [vaddr_base] moves every base by
    the constant [S(vaddr_base) − S(b)], where [S] is the padded start
    of the first array and [b] the base [p] was laid out from; the
    constant is a multiple of [num_mcs] pages, so the job shares [p]'s
    [phases] (and site streams) and carries the constant in
    [vaddr_offset].  The thread binding is recomputed from
    [core_offset] ({!prepare_replicas}' cluster confinement is not
    kept), [bases] are shifted and [desired_mc] is [p]'s hints shifted
    by the same page count.  O(threads + arrays).  [cfg] must be the
    configuration [p] was prepared for. *)

val traces_generated : unit -> int
(** Programs interpreted by {!prepare} in this process so far — the
    host cost {!relocate} saves.  Relocation never counts. *)

val combined_hints : prepared list -> int -> int option
(** Page hints of several prepared jobs, first match wins — sound because
    their virtual ranges are disjoint.  This is what {!run_many} passes
    to the engine; exposed for callers (the consolidation server) that
    build their own job lists. *)

val attr_for : Config.t -> prepared -> Obs.Attr.t
(** An attribution aggregator shaped for [cfg]'s platform (controllers ×
    banks) and the prepared program's site table — pass it to {!run_many}
    as [~attr].  Aggregators of separate runs compose with
    {!Obs.Attr.absorb} when their site tables match. *)

val prepare_replicas :
  Config.t ->
  optimized:bool ->
  ?threads:int ->
  ?name:string ->
  ?warmup_phases:int ->
  ?index_lookup:(string -> int array -> int) ->
  ?profile:(string -> (Affine.Vec.t * Affine.Vec.t) list) ->
  ?attr:bool ->
  Lang.Ast.program ->
  prepared list
(** One cluster-confined copy of the program per cluster, on disjoint 256 MB
    virtual slices — the canonical decomposable workload: under page
    interleaving with the first-touch policy, {!Par_engine.plan} splits
    it into partitions.  [threads] defaults to one cluster's cores ×
    threads-per-core.  The program is traced once; every copy is a
    {!relocate}d view of that one trace (the copies share [phases]). *)

val run :
  Config.t ->
  optimized:bool ->
  ?warmup_phases:int ->
  ?index_lookup:(string -> int array -> int) ->
  ?profile:(string -> (Affine.Vec.t * Affine.Vec.t) list) ->
  ?trace:Obs.Trace.t ->
  Lang.Ast.program ->
  Engine.result
(** Prepare + simulate one program alone on the whole machine.  [trace]
    is handed to {!Engine.run} (request-path spans; default disabled).
    One whole-machine job spans every cluster, so it always runs on the
    sequential engine. *)

val run_many :
  ?trace:Obs.Trace.t ->
  ?attr:Obs.Attr.t ->
  ?domains:int ->
  ?on_plan:(string -> unit) ->
  Config.t ->
  jobs:prepared list ->
  Engine.result
(** Simulate several prepared programs concurrently (multiprogrammed
    workloads, Fig. 25).  Their virtual ranges must not overlap — use
    distinct [vaddr_base]s.  [attr] collects off-chip attribution (jobs
    prepared without [~attr:true] land in its unknown row); with several
    tagged jobs, attribute runs separately and compose with
    {!Obs.Attr.absorb} instead, since site ids are per-program. *)
