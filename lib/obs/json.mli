(** Minimal JSON tree, encoder and parser — hand-rolled so the
    observability layer adds no external dependency.

    The encoder emits RFC 8259 JSON (UTF-8 pass-through for strings, full
    escaping of control characters); the parser accepts what the encoder
    produces plus ordinary whitespace, so [of_string (to_string v)]
    round-trips every finite value. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?minify:bool -> t -> string
(** Default is pretty-printed (2-space indent); [~minify:true] emits the
    compact single-line form.  Non-finite floats encode as [null]. *)

val to_channel : out_channel -> t -> unit
(** Pretty-printed, with a trailing newline. *)

val to_file : string -> t -> (unit, string) result
(** Writes [to_channel]'s text to [path] atomically: a temporary file in
    the same directory, then a rename, so a reader never sees half a
    document.  The error is one line naming [path]. *)

val of_string : string -> (t, string) result
(** Parses one JSON value (trailing whitespace allowed).  Numbers without
    fraction or exponent parse as [Int]. *)

val equal : t -> t -> bool
(** Structural equality; object fields compare in order. *)

val member : string -> t -> t option
(** Field lookup in an [Obj]; [None] elsewhere or when absent. *)

val obj : (string * t) list -> t

val list : ('a -> t) -> 'a list -> t

val array : ('a -> t) -> 'a array -> t

val int_array : int array -> t

val float_array : float array -> t

(** {2 Reading input files}

    Every JSON input — platform files, sweep specs, serve scenarios,
    manifests, metrics snapshots, attribution tables — is read by
    {!of_file} and decoded with {!Decode}.  Errors are one line:
    [of_file] prefixes the path, decoders name the field. *)

val of_file : string -> (t, string) result
(** Reads and parses a file.  Every error, unreadable file or directory
    included, reads [PATH: message]. *)

val decode_file : string -> (t -> ('a, string) result) -> ('a, string) result
(** {!of_file}, then the decoder; its errors read [PATH: message] too. *)

module Decode : sig
  type 'a decoder = string -> t -> ('a, string) result
  (** [decode ctx v]: [ctx] names [v] in the error, as in
      [field "x" must be an integer]. *)

  val int : int decoder

  val float : float decoder
  (** Also accepts an [Int]. *)

  val bool : bool decoder

  val string : string decoder

  val list : 'a decoder -> 'a list decoder
  (** Decodes the elements in order; the first bad one is the error. *)

  val assoc : 'a decoder -> (string * 'a) list decoder
  (** Decodes every member of an object, in order, each with its key as
      the context. *)

  val field : ?default:'a -> string -> 'a decoder -> t -> ('a, string) result
  (** [field name decode obj] decodes member [name] with context
      [field "name"].  An absent member is [default], or the error
      [missing field "name"] without one. *)

  val known_fields : what:string -> string list -> t -> (unit, string) result
  (** Rejects an object holding a key outside the list, as
      [unknown <what> field "k"], and a non-object as
      [<what> must be an object]. *)
end
