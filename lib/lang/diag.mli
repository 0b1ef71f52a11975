(** Structured, located compiler diagnostics.

    Every compiler-side failure — lexical, syntactic, semantic, and the
    inter-pass verifier's invariant violations — is a [Diag.t]: a
    severity, a stable error code ([L...] lexical, [P...] parse, [S...]
    semantic, [C...] configuration, [V...] verifier, [G...] codegen), a
    source {!Span.t}, a message and optional secondary notes.  Passes
    return [('a, t list) result]; the caret pretty-printer and JSON
    encoder render the same value for terminals and tooling. *)

type severity = Error | Warning | Note

type note = { note_span : Span.t option; note_text : string }

type t = {
  severity : severity;
  code : string;
  span : Span.t;
  message : string;
  notes : note list;
}

exception Fatal of t
(** Internal carrier used inside [_result] entry points (parser, codegen)
    to abort to the nearest handler; it never escapes the public API
    except from {!Interp.trace} and {!Analysis.analyze}.  [Printexc.to_string] renders it as its
    diagnostic, e.g. [error[I001]: unbound variable x]. *)

val make :
  ?severity:severity -> ?code:string -> ?notes:note list -> Span.t -> string -> t

val error : ?code:string -> ?notes:note list -> Span.t -> string -> t

val warning : ?code:string -> ?notes:note list -> Span.t -> string -> t

val note : ?span:Span.t -> string -> note

val is_error : t -> bool

val has_errors : t list -> bool

val sorted : t list -> t list
(** Stable sort by file, then start offset, errors before warnings. *)

val pp : ?src:string -> Format.formatter -> t -> unit
(** [file:line:col: severity[code]: message] with a caret line under the
    offending source text when [src] is supplied. *)

val to_string : ?src:string -> t -> string

val list_to_json : ?src:string -> t list -> Obs.Json.t
(** Sorted array of diagnostics — the payload of [occ --diag-json]. *)
