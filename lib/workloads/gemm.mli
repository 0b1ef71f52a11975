(** Tiled-GEMM workload family — a generator, not a fixed app.

    C += A·B with row strips parallel and a T×T (jj,kk) tiling: strip
    [s] owns rows [s·R .. s·R+R-1] of A and C (R = N/strips), so the
    first-touch policy and the compiler's Data-to-MC mapping can both
    localize A and C, while B is read in full by every strip — the
    traffic no mapping can remove.  Shaped to a hierarchical platform
    via [strips = chiplets × threads-per-chiplet], this is the workload
    behind the EXPERIMENTS.md chiplet study. *)

val of_name : string -> (App.t, string) result option
(** Parses ["gemm"] (default knobs: N=64, 8x8 tiles, 64 strips — one
    per core of the 8x8 presets) or ["gemm-n<N>t<T>[p<P>]"]; [tile] and
    [strips] must divide [n], all positive.  The app's name is the one
    given.  [None] when the name is not in the family; [Some (Error _)]
    when it is but the knobs are malformed or indivisible —
    {!Suite.by_name_result} uses this as its fallback for names outside
    the 13-app suite. *)
