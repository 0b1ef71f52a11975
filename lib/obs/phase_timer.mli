(** Wall-clock phase timing for the compiler driver: time named phases
    (parse, analysis, Algorithm 1, codegen) and report them as a table or
    JSON. *)

type t

val create : unit -> t

val time : t -> string -> (unit -> 'a) -> 'a
(** Runs the thunk, records its wall time under the given phase name
    (accumulating across repeated calls), and returns its result.
    Exceptions propagate; the phase is still recorded. *)

val record : t -> string -> float -> unit
(** Adds [seconds] to a phase directly. *)

val phases : t -> (string * float) list
(** Phase durations in seconds, in first-recorded order. *)

val total : t -> float

val pp : Format.formatter -> t -> unit
(** One line per phase: name, milliseconds, share of the total. *)
