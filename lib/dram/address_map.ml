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
}

let make ~interleaving ?(line_bytes = 256) ?(page_bytes = 4096) ~num_mcs
    ?(banks_per_mc = 4) () =
  if line_bytes <= 0 || page_bytes < line_bytes || num_mcs <= 0 || banks_per_mc <= 0
  then invalid_arg "Address_map.make";
  { interleaving; line_bytes; page_bytes; num_mcs; banks_per_mc }

let mc_of_paddr t paddr =
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

let bank_of_paddr t paddr = channel_addr t paddr / t.page_bytes mod t.banks_per_mc

let row_of_paddr t paddr =
  channel_addr t paddr / t.page_bytes / t.banks_per_mc
