(** Access-trace files.

    Serializes the per-thread access streams the interpreter produces so
    they can be inspected or diffed across layouts.  The format is
    line-oriented text:

    {v
    # offchip trace v1
    phase <n-threads>
    t <thread> <n-accesses>
    <vaddr> R|W
    ...
    v}

    A v2 file carries the access-site id of each reference as a third
    column ([<vaddr> R|W <site>]) — the side band that ties a dynamic
    access back to its {!Lang.Sites} entry.  [simulate --dump-trace FILE]
    writes one ([--attr] selects v2). *)

val dump : ?sites:int array array list -> string -> Lang.Interp.phase list -> unit
(** Writes the phases to a path; with [sites] (per-phase site-id streams,
    index-parallel to the phases as in {!Engine.job}) writes a v2 file
    tagging each access.  Raises [Sys_error] on IO failure. *)

val total_accesses : Lang.Interp.phase list -> int
