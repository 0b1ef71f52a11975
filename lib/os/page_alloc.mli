(** Virtual-to-physical translation and page-allocation policies.

    Under cache-line interleaving the MC-selection bits lie inside the page
    offset, so translation is irrelevant to controller choice and frames
    are handed out sequentially.  Under page interleaving the frame number
    decides the controller, and the policy matters:

    - {!Hardware_interleaved}: consecutive virtual pages rotate over
      controllers — the paper's unoptimized page-interleaved baseline.
    - {!First_touch}: the page is placed on the controller of the cluster
      whose node touches it first (the OS baseline of Section 6.3, [20]).
    - {!Mc_aware}: the compiler communicates the desired controller for
      the virtual pages of the arrays it transformed (madvise-style); the
      allocator honours the hint, placing unhinted pages (untransformed
      arrays, index arrays) by first touch — the compiler/OS combination
      the paper's Section 6.4 suggests.  When the hinted controller's
      memory is full an alternate is used, so no page faults are added
      (Section 5.3).

    The allocator is shared across tenants in the consolidation server:
    each controller's pool is bounded by [frames_per_mc] {e live} frames
    (reclaimed frames are reused before the bump pointer advances, so a
    departed tenant's memory really comes back), and every policy spills
    to an alternate controller — counting a fallback — when the chosen
    controller is full. *)

type policy =
  | Hardware_interleaved
  | First_touch of (int -> int)
      (** [node → cluster MC] for the first-touching node *)
  | Mc_aware of { desired : int -> int option; fallback : int -> int }
      (** [desired vpage] from the layout; [fallback node] is the
          first-touch cluster controller for unhinted pages *)

val home_mc : policy -> num_mcs:int -> node:int -> vpage:int -> int
(** The controller a page-interleaved allocation of [vpage], first
    touched from [node], tries first; a full controller spills to the
    next one with room.  The one statement of the placement rule: the
    allocator and the parallel engine's plan both ask it. *)

type t

val create :
  map:Dram.Address_map.t -> policy:policy -> ?frames_per_mc:int -> unit -> t
(** [frames_per_mc] bounds each controller's pool of live frames
    (default: unbounded in practice, 1 GB per controller as in Table 1's
    4 GB capacity). *)

val translate : t -> node:int -> vaddr:int -> int
(** Physical address; allocates the page on first touch.  [node] is the
    requesting mesh node (used by first-touch).  The page table is a
    radix tree (a root that grows on demand, a middle level and leaves of
    1024 frames), so translating an already mapped page is three loads,
    allocates nothing and makes no call; with a power-of-two page size
    the page number and offset are a shift and a mask.  Memory grows
    with the pages touched: the root holds one word per 1024·1024 pages
    below the highest one touched.

    @raise Invalid_argument on a negative [vaddr]. *)

val translate_owned : t -> owner:int -> node:int -> vaddr:int -> int
(** Like {!translate}, but charges any fallback allocation this access
    triggers to [owner] (a tenant/job id; see
    {!fallback_allocations_of}).  [owner < 0] charges nobody —
    [translate] is [translate_owned ~owner:(-1)]. *)

val free_region : t -> first_vpage:int -> last_vpage:int -> int
(** Unmaps every allocated page in the inclusive virtual-page range and
    returns the frames to their controllers' free lists (tenant
    departure).  Returns the number of pages actually freed; unallocated
    pages in the range are skipped. *)

val pages_allocated : t -> int
(** Pages currently mapped (freed pages no longer count). *)

val fallback_allocations : t -> int
(** Pages that could not be placed on their desired controller. *)

val fallback_allocations_of : t -> owner:int -> int
(** Fallbacks charged to one owner tag via {!translate_owned}. *)
