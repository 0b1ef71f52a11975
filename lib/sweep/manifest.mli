(** The sweep's machine-readable ledger: one entry per job recording its
    cache key, status and attempt history.  Rewritten atomically after
    every job resolution, so `sweep status` works on a live run and a
    killed sweep leaves an accurate picture behind. *)

type status =
  | Pending  (** not yet resolved in this invocation *)
  | Ok  (** executed in this invocation *)
  | Cached  (** satisfied by a previous invocation's result *)
  | Failed of string  (** retries exhausted; the payload is the reason *)

type entry = {
  id : string;
  key : string;
  status : status;
  attempts : int;
  wall_ms : float;  (** parent-measured wall clock of the final attempt *)
}

type t = {
  sweep : string;  (** spec name *)
  code_version : string;
  entries : entry array;  (** in spec order *)
}

val status_string : status -> string

val to_json : t -> Obs.Json.t

val of_json : Obs.Json.t -> (t, string) result
(** Ignores keys it does not know, so ledgers of other versions load. *)

val store : dir:string -> t -> unit
(** Atomic write (temp + rename). *)

val load : dir:string -> (t, string) result

val summary : t -> int * int * int * int
(** [(ok, cached, failed, pending)] counts. *)
