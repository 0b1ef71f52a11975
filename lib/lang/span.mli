(** Byte-offset source spans for located diagnostics.

    A span names a half-open byte range [\[lo, hi)] of one source file.
    AST nodes carry spans so every later pass — semantic checking,
    analysis, the solver and the inter-pass verifier — can point its
    diagnostics back at the source line that caused them.  Line/column
    positions are computed lazily from the source text when rendering. *)

type t = { file : string; lo : int; hi : int }

val dummy : t
(** The span of programmatically-built AST nodes (workload rewrites, the
    compiler-emitted [__home] declaration).  Renders as [<none>]. *)

val make : file:string -> lo:int -> hi:int -> t

val is_dummy : t -> bool

type position = { line : int; col : int }  (** both 1-based *)

val position_of : src:string -> int -> position
(** Line/column of a byte offset within the source text. *)

val line_at : src:string -> int -> string
(** The source line containing the offset, without its newline. *)

val pp : ?src:string -> Format.formatter -> t -> unit
(** [file:line:col] when the source is available, [file:lo-hi] otherwise. *)

val to_string : ?src:string -> t -> string
