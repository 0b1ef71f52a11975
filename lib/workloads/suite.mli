(** The 13-application suite of the paper's evaluation: all SPEC OMP
    applications except equake, plus hpccg, minighost and minimd from
    Mantevo. *)

val all : App.t list
(** In the paper's Figure order. *)

val names : string list

val by_name_result : string -> (App.t, string) result
(** A suite app by name, or a generated {!Gemm} instance for names of
    the gemm family ([gemm], [gemm-n<N>t<T>[p<P>]]).  The error is one
    line: ["unknown application ..."] listing {!names}, or the gemm knob
    error (naming the offending knob). *)

val by_name : string -> App.t
(** {!by_name_result} for names known to be good; raises
    [Invalid_argument] with the error otherwise. *)
