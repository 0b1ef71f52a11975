(** Self-contained run reports from stats-JSON documents.

    [simulate --stats-json] (and each sweep job) writes one JSON document
    per run; this module turns such a document — plus, optionally, the
    compiler's [--diag-json] output — into a report a human reads:
    headline counters, the off-chip attribution table, the mesh and
    bank-pressure heatmaps, and the candidate-mapping cost table the
    compiler's C002 note records.  Rendered as GitHub-flavoured markdown
    or as a single self-contained HTML page (no external assets), by
    [bin/report]. *)

type item =
  | Text of string  (** a paragraph *)
  | Pre of string  (** preformatted block (tables, ASCII heatmaps) *)
  | Table of { header : string list; rows : string list list }

type section = { title : string; items : item list }

val bank_heat : int array array -> string
(** ASCII bank-pressure grid: one row per controller, one shade per bank
    (normalized to the hottest bank), with per-controller totals — the
    rendering of {!Attr.bank_load}. *)

val build : ?diags:Json.t -> Json.t -> (section list, string) result
(** Structures one stats-JSON document into report sections; a document
    without a ["stats"] object, or whose metrics or attribution do not
    decode, is an error.  A platform
    header (mesh geometry, hierarchy or "flat", mapping, placement and a
    short geometry digest) leads when the document embeds its config.
    Other sections appear only when the document carries their data:
    attribution and heatmaps require a run recorded with attribution on;
    the mapping
    cost table requires [diags] (the [--diag-json] array) with a C002
    note, and the placement-search section ([occ --mapping search])
    its C004 notes — summary plus per-step trajectory.  [Error] when
    the document is not a stats-JSON object. *)

val to_markdown : title:string -> section list -> string

val to_html : title:string -> section list -> string
(** One self-contained page: inline CSS only, preformatted blocks kept
    monospace so the ASCII heatmaps line up. *)
