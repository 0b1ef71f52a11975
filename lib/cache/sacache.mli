(** Set-associative cache with LRU replacement.

    Used for the per-node L1s, the per-node private L2s, and the banks of
    the shared SNUCA L2.  Addresses are byte addresses; the cache operates
    on whole lines. *)

type t

type result =
  | Hit
  | Miss of { evicted : int option; evicted_dirty : bool }
      (** [evicted] is the base address of the line displaced by this
          fill, if any; [evicted_dirty] says whether it must be written
          back. *)

val create : ?hash_sets:bool -> size_bytes:int -> line_bytes:int -> ways:int -> unit -> t
(** Raises [Invalid_argument] unless sizes are positive, [line_bytes] a
    power of two, and the geometry yields a power-of-two number of sets
    ([size_bytes / line_bytes / ways]): the set index of an access is
    then a shift and a mask, never a division.  Every machine the
    simulator builds has power-of-two sets.

    [hash_sets] (default false) XOR-folds the upper line-address bits
    into the set index, as many real caches do.  The simulator enables it
    to avoid systematic set aliasing: the customized layouts make array
    strides exact multiples of [num_mcs * line_bytes] by construction,
    which on the scaled-down caches would otherwise alias whole columns
    into one set.

    Addresses are non-negative byte addresses.  A hit allocates nothing:
    it returns the constant [Hit].  A fill into an invalid way returns a
    shared [Miss] value; only an eviction allocates its [Miss] record. *)

val line_bytes : t -> int

val sets : t -> int

val line_addr : t -> int -> int
(** Base address of the line containing a byte address. *)

val access : t -> addr:int -> write:bool -> result
(** Looks up [addr]; on a miss the line is filled (allocate-on-write).
    Writes mark the line dirty. *)

val probe : t -> addr:int -> bool
(** Lookup without any state change. *)

val invalidate : t -> addr:int -> bool
(** Drops the line if present; returns whether it was dirty. *)

val clear : t -> unit

val stats : t -> int * int
(** [(hits, misses)] since creation or the last [clear]. *)
