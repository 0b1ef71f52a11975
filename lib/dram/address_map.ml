type interleaving = Line_interleaved | Page_interleaved

let interleaving_to_string = function
  | Line_interleaved -> "line"
  | Page_interleaved -> "page"

let interleaving_of_string = function
  | "line" -> Ok Line_interleaved
  | "page" -> Ok Page_interleaved
  | s -> Error ("unknown interleaving " ^ s)

type t = {
  interleaving : interleaving;
  line_bytes : int;
  page_bytes : int;
  num_mcs : int;
  banks_per_mc : int;
  mc_shift : int;
  bank_shift : int;
  row_shift : int;
}

(* [k] when [n = 2^k], otherwise -1 *)
let log2 n =
  let rec go k = if 1 lsl k >= n then k else go (k + 1) in
  if n > 0 && n land (n - 1) = 0 then go 0 else -1

let make ~interleaving ?(line_bytes = 256) ?(page_bytes = 4096) ~num_mcs
    ?(banks_per_mc = 4) () =
  if line_bytes <= 0 || page_bytes < line_bytes || num_mcs <= 0 || banks_per_mc <= 0
  then invalid_arg "Address_map.make";
  let unit_bytes =
    match interleaving with
    | Line_interleaved -> line_bytes
    | Page_interleaved -> page_bytes
  in
  let l = log2 line_bytes and p = log2 page_bytes and m = log2 num_mcs
  and b = log2 banks_per_mc in
  (* Staged once: the controller field sits just above the interleaving
     unit; the channel address drops that field, so a channel page starts
     at bit [p + m] of the physical address, the bank field is the next
     [b] bits and the row the rest.  -1 keeps the exact division. *)
  let mc_shift = if m >= 0 then log2 unit_bytes else -1 in
  let pow2 = l >= 0 && p >= 0 && m >= 0 && b >= 0 in
  {
    interleaving;
    line_bytes;
    page_bytes;
    num_mcs;
    banks_per_mc;
    mc_shift;
    bank_shift = (if pow2 then p + m else -1);
    row_shift = (if pow2 then p + m + b else -1);
  }

let mc_of_paddr t paddr =
  if t.mc_shift >= 0 then (paddr lsr t.mc_shift) land (t.num_mcs - 1)
  else
    match t.interleaving with
    | Line_interleaved -> paddr / t.line_bytes mod t.num_mcs
    | Page_interleaved -> paddr / t.page_bytes mod t.num_mcs

(* Channel-local address: the bits above the MC-selection field, rejoined
   with the bits below it.  Bank index interleaves at row-buffer (page)
   granularity within the channel, so consecutive rows of a channel fall in
   different banks (standard open-page mapping). *)
let channel_addr t paddr =
  match t.interleaving with
  | Line_interleaved ->
    let line = paddr / t.line_bytes in
    ((line / t.num_mcs) * t.line_bytes) + (paddr mod t.line_bytes)
  | Page_interleaved ->
    let page = paddr / t.page_bytes in
    ((page / t.num_mcs) * t.page_bytes) + (paddr mod t.page_bytes)

let bank_of_paddr t paddr =
  if t.bank_shift >= 0 then (paddr lsr t.bank_shift) land (t.banks_per_mc - 1)
  else channel_addr t paddr / t.page_bytes mod t.banks_per_mc

let row_of_paddr t paddr =
  if t.row_shift >= 0 then paddr lsr t.row_shift
  else channel_addr t paddr / t.page_bytes / t.banks_per_mc
