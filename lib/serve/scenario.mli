(** Consolidation-serving scenarios.

    A scenario describes an open-system experiment on one platform: a
    tenant mix (applications drawn from {!Workloads.Suite}), an arrival
    process (seeded, Poisson-like), a page-placement policy and a thread
    budget per tenant.  Scenarios are plain JSON documents so they can be
    committed next to sweep specs and replayed bit-identically. *)

type policy = Sim.Config.page_policy = Hardware | First_touch | Mc_aware
(** The shared-pool placement policy tenants allocate under:
    hardware page interleaving (spelt ["interleaved"] in scenario
    files), OS first touch, or OS first touch guided by each tenant's
    compiler hints (the paper's MC-aware placement). *)

type t = {
  name : string;
  platform : string;  (** {!Sim.Config.build} platform name; [""] = default *)
  policy : policy;
  mix : string list;  (** applications tenants are drawn from (round by lot) *)
  tenants : int;  (** number of tenants admitted (the closed bound) *)
  arrival_mean : int;  (** mean inter-arrival time in cycles *)
  duration : int option;
      (** optional open bound: tenants arriving after this cycle are
          turned away *)
  threads_per_tenant : int;
  seed : int;  (** drives both arrival times and the app lottery *)
  optimized : bool;  (** run tenants through the layout pass *)
  frames_per_mc : int option;  (** override the shared pool's per-MC budget *)
}

val policy_of_string : string -> (policy, string) result
val policy_to_string : policy -> string

val smoke : ?policy:policy -> ?seed:int -> unit -> t
(** The golden smoke scenario: 4 tenants from the minimd+gafort mix, 32
    threads each, mean inter-arrival 20000 cycles — small enough for CI,
    large enough to exercise co-location, queueing and reclaim.  Both
    apps carry substantial non-hinted first-touch-friendly data whose
    locality survives co-location, so the MC-aware policy strictly beats
    hardware interleaving on this mix's weighted speedup. *)

val validate : t -> (t, string) result

val of_json : Obs.Json.t -> (t, string) result
(** Decodes and {!validate}s a scenario; an unknown key is an error. *)

val to_json : t -> Obs.Json.t

val config : t -> (Sim.Config.t, string) result
(** The scaled page-interleaved {!Sim.Config.t} the scenario runs on. *)
