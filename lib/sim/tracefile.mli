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

val dump : string -> Engine.job -> unit
(** Writes the job's phases to a path, each address as the engine
    replays it (the job's [vaddr_offset] added), so the dump of a
    {!Runner.relocate}d job shows the addresses it really touches.  A
    tagged job (non-empty [site_streams]) is written as a v2 file; an
    untagged one as v1.  Raises [Sys_error] on IO failure. *)

val total_accesses : Lang.Interp.phase list -> int
