(** Physical-address interpretation (Fig. 5).

    With [n] memory controllers, [log n] bits of the physical address
    select the controller.  Taking them just above the cache-line offset
    gives cache-line interleaving; just above the page offset gives page
    interleaving.  Within a controller, the remaining address bits select
    the bank and the row (row buffer = 4 KB, Table 1).

    {!make} stages the geometry once.  When the line size, the page
    size, the controller count and the bank count are all powers of two
    (every shipped preset), {!mc_of_paddr}, {!bank_of_paddr} and
    {!row_of_paddr} are shifts and masks; {!mc_of_paddr} needs only the
    interleaving unit and the controller count to be.  Any other
    geometry (say 6 banks, or a non-power-of-two controller count) keeps
    the exact divisions, with equal results.  Addresses are
    non-negative. *)

type interleaving = Line_interleaved | Page_interleaved

val interleaving_to_string : interleaving -> string
(** ["line"] or ["page"]: the spelling of platform files, flags and
    stats documents. *)

val interleaving_of_string : string -> (interleaving, string) result

type t = private {
  interleaving : interleaving;
  line_bytes : int;  (** L2 line size — the interleaving unit, 256 B *)
  page_bytes : int;  (** OS page and DRAM row-buffer size, 4 KB *)
  num_mcs : int;
  banks_per_mc : int;
  mc_shift : int;  (** log2 of the interleaving unit, -1 = divide *)
  bank_shift : int;  (** lowest bank-field bit, -1 = divide *)
  row_shift : int;  (** lowest row bit, -1 = divide *)
}

val make :
  interleaving:interleaving ->
  ?line_bytes:int ->
  ?page_bytes:int ->
  num_mcs:int ->
  ?banks_per_mc:int ->
  unit ->
  t

val mc_of_paddr : t -> int -> int
(** Controller owning a physical byte address. *)

val bank_of_paddr : t -> int -> int
(** Bank within the owning controller. *)

val row_of_paddr : t -> int -> int
(** DRAM row within the bank (row buffer granularity). *)

val log2 : int -> int
(** [k] when the argument is [2^k], otherwise -1. *)
