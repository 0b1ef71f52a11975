(** Conventions shared by the command-line drivers (occ, simulate,
    offchip-serve, offchip-sweep, offchip-report, bench).

    Exit codes: [0] success, [1] user error (bad flags, malformed input,
    compile errors), [2] internal error (a bug — an unexpected
    exception).  [guard] enforces the last one uniformly. *)

val ok : int

val user_error : int

val eval : ?argv:string array -> int Cmdliner.Cmd.t -> int
(** Evaluates a driver's command line ([argv] defaults to
    [Sys.argv]) and returns its exit code: the body's own code, {!ok}
    for [--help]/[--version], {!user_error} for a bad flag or value
    (reported as one line on stderr) and [2] for an exception escaping
    an unguarded body. *)

val guard : name:string -> (unit -> int) -> int
(** Runs the driver body; an escaping exception is reported as
    [<name>: internal error: ...] on stderr (with a backtrace when
    [OCAMLRUNPARAM] asks for one) and becomes exit code [2]. *)

(** {2 Shared platform flags}

    The platform knobs every driver exposes, with one spelling and one
    doc string. *)

val l2 : string Cmdliner.Term.t
(** [--l2 private|shared] *)

val interleave : string Cmdliner.Term.t
(** [--interleave line|page]; [""] (the default) keeps the platform's
    own interleaving. *)

val policy : string Cmdliner.Term.t
(** [--policy hardware|first-touch|mc-aware] *)

val mapping : string Cmdliner.Term.t
(** [--mapping M1|M2|<mc-count>]; [""] (the default) keeps the
    platform's own mapping. *)

val platform : string Cmdliner.Term.t
(** [--platform PRESET|FILE] — a {!Core.Platform} preset name or JSON
    file, the only way to name the machine; [""] (the default) is the
    [mesh8x8-mc4] preset. *)

val domains : int Cmdliner.Term.t
(** [--domains N] — worker-domain count for the parallel engine. *)

val check_domains : int -> (unit, string) result
(** Validates a [--domains] value: rejects non-positive counts with the
    canonical one-line message (the driver prints it and exits with
    {!user_error}). *)
