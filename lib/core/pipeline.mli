(** The staged compiler pipeline.

    The pass sequence of the layout-transformation compiler, made
    explicit:

    {v
    parse → check → analyze → solve → mapping → customize → rewrite
          → sites [→ verify] [→ codegen]
    v}

    Every pass has the uniform shape
    [run : input -> (output, Diag.t list) result]; the manager sequences
    them, accumulates diagnostics across passes, and records per-pass
    wall times through {!Obs.Phase_timer}.  A failing pass stops the
    chain but keeps every artifact produced so far, so [--emit] can dump
    the last good stage.  With [verify] on (the default), the inter-pass
    {!Verify} checks run after the rewrite and their violations join the
    diagnostic stream. *)

type source =
  | Source of { file : string; src : string }
  | Program of Lang.Ast.program  (** already-built AST (workload models) *)

type ('a, 'b) pass = {
  name : string;
  run : 'a -> ('b, Lang.Diag.t list) result;
}

type artifacts = {
  mutable program : Lang.Ast.program option;  (** after parse + check *)
  mutable analysis : Lang.Analysis.t option;
  mutable solved : Transform.solved list option;
  mutable cfg : Customize.config option;  (** the chosen mapping *)
  mutable mapping_scores : Mapping_select.scored list option;
      (** full candidate ranking, cheapest first, when the mapping pass
          had more than one candidate to choose from *)
  mutable search : Place_search.outcome option;
      (** placement-search outcome, when [compile] ran with [?search];
          its platform also competes in [mapping_scores] *)
  mutable report : Transform.report option;
  mutable transformed : Lang.Ast.program option;
  mutable sites : Lang.Sites.t option;
      (** access-site table of the transformed program — the legend for
          tagged traces and the attribution aggregator; its ids are the
          ones codegen embeds as [/*s<id>*/] reference tags *)
  mutable c_code : string option;
}

type t = {
  artifacts : artifacts;
  diags : Lang.Diag.t list;  (** sorted; every severity *)
  timer : Obs.Phase_timer.t;
  ok : bool;  (** no error-severity diagnostic was produced *)
}

val compile :
  ?verify:bool ->
  ?profile:(string -> (Affine.Vec.t * Affine.Vec.t) list) ->
  ?threshold:float ->
  ?bank_pressure:float ->
  ?platform:Platform.t ->
  ?search:Place_search.params ->
  ?candidates:Customize.config list ->
  ?codegen:string ->
  cfg:Customize.config ->
  source ->
  t
(** Runs the full pipeline.  The mapping pass chooses among candidate
    cluster mappings by estimated cost under [bank_pressure] (default 1.0;
    calibrate it from a profiled run with
    {!Mapping_select.bank_pressure_of_stats}): explicit [candidates] if
    given, else everything [platform] can realize
    ({!Platform.candidates} — M1, M2 and the Fig. 27 8/16-MC
    configurations the controller budget admits), else the single [cfg].
    With [search] (and a [platform]), {!Place_search.search} runs first
    at the same [bank_pressure]; its outcome lands in [artifacts.search]
    and as C004 notes (winning placement + trajectory), and the searched
    machine competes with the presets in the mapping pass — duplicate
    cluster names in the C002 cost table are disambiguated as
    [cluster@placement].  The full ranking lands in
    [artifacts.mapping_scores] and as a C002 note; arrays kept unmapped
    for a user-fixable reason get C003 warnings.  [codegen] names the
    emitted C kernel, enables the codegen pass, and (with [verify]) the
    V007 replay check. *)

(** {2 Stage dumps} *)

type stage =
  | Ast_
  | Analysis_
  | Solve
  | Mapping
  | Report
  | Transformed
  | Sites_
  | C

val stage_names : string list

val stage_of_string : string -> stage option

val emit : t -> stage -> string option
(** Printable dump of one stage's artifact, when the pipeline got that
    far. *)
