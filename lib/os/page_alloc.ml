type policy =
  | Hardware_interleaved
  | First_touch of (int -> int)
  | Mc_aware of { desired : int -> int option; fallback : int -> int }

(* The page table is a radix tree over virtual page numbers: a root that
   grows on demand, one word per [1 lsl top_shift] pages, then a middle
   level and leaves of frame numbers (-1 = unmapped).  Absent middles and
   leaves are the shared, never-written [empty_mid] and [empty_leaf], so a
   lookup is three loads with no test below the root's bound, and memory
   grows with the pages touched. *)
let leaf_bits = 10

let mid_bits = 10

let top_shift = leaf_bits + mid_bits

let leaf_mask = (1 lsl leaf_bits) - 1

let mid_mask = (1 lsl mid_bits) - 1

let empty_leaf = Array.make (1 lsl leaf_bits) (-1)

let empty_mid = Array.make (1 lsl mid_bits) empty_leaf

type t = {
  map : Dram.Address_map.t;
  policy : policy;
  frames_per_mc : int;
  page_bytes : int;
  page_shift : int;  (** log2 [page_bytes]; -1 = divide *)
  mutable root : int array array array;  (** virtual page -> frame *)
  mutable mapped : int;
  next_local : int array;  (** per MC: next never-used local frame index *)
  free_local : int list array;
      (** per MC: reclaimed local frame indices, reused LIFO before the
          bump pointer advances *)
  in_use : int array;  (** per MC: frames currently mapped *)
  mutable next_seq : int;  (** line-interleaved mode: next frame *)
  mutable free_seq : int list;  (** line-interleaved mode: reclaimed *)
  mutable seq_in_use : int;
  mutable fallbacks : int;
  owner_fallbacks : (int, int) Hashtbl.t;
      (** fallbacks charged to each owner tag (a tenant/job id) *)
}

let create ~map ~policy ?(frames_per_mc = 1 lsl 18) () =
  {
    map;
    policy;
    frames_per_mc;
    page_bytes = map.Dram.Address_map.page_bytes;
    page_shift = Dram.Address_map.log2 map.Dram.Address_map.page_bytes;
    root = [| empty_mid |];
    mapped = 0;
    next_local = Array.make map.Dram.Address_map.num_mcs 0;
    free_local = Array.make map.Dram.Address_map.num_mcs [];
    in_use = Array.make map.Dram.Address_map.num_mcs 0;
    next_seq = 0;
    free_seq = [];
    seq_in_use = 0;
    fallbacks = 0;
    owner_fallbacks = Hashtbl.create 16;
  }

(* Global frame number of local frame [i] on controller [m]: under page
   interleaving, frame g lives on MC (g mod num_mcs). *)
let frame_on t m i = (i * t.map.Dram.Address_map.num_mcs) + m

let note_fallback t owner =
  t.fallbacks <- t.fallbacks + 1;
  if owner >= 0 then
    Hashtbl.replace t.owner_fallbacks owner
      (1 + Option.value (Hashtbl.find_opt t.owner_fallbacks owner) ~default:0)

(* A controller has room when its live-frame count is under budget —
   counting live frames (not the bump pointer) is what lets a full
   controller refill from reclaimed frames instead of over-allocating. *)
let has_room t m = t.in_use.(m) < t.frames_per_mc

let take_frame t m =
  t.in_use.(m) <- t.in_use.(m) + 1;
  match t.free_local.(m) with
  | i :: rest ->
    t.free_local.(m) <- rest;
    frame_on t m i
  | [] ->
    let i = t.next_local.(m) in
    t.next_local.(m) <- i + 1;
    frame_on t m i

let alloc_on t ~owner m =
  let num_mcs = t.map.Dram.Address_map.num_mcs in
  (* try the desired controller, then the others round-robin *)
  let rec try_mc i =
    if i = num_mcs then failwith "Page_alloc: physical memory exhausted"
    else
      let m' = (m + i) mod num_mcs in
      if has_room t m' then begin
        if i > 0 then note_fallback t owner;
        take_frame t m'
      end
      else try_mc (i + 1)
  in
  try_mc 0

let home_mc policy ~num_mcs ~node ~vpage =
  match policy with
  | Hardware_interleaved -> vpage mod num_mcs
  | First_touch cluster_mc -> cluster_mc node
  | Mc_aware { desired; fallback } -> (
    match desired vpage with Some m -> m | None -> fallback node)

(* The frame of [vpage], -1 when unmapped.  Every middle and leaf array
   is full-size, so the masked indices below the root are in bounds. *)
let lookup t vpage =
  let hi = vpage lsr top_shift in
  if hi >= Array.length t.root then -1
  else
    let mid = Array.unsafe_get t.root hi in
    let leaf = Array.unsafe_get mid ((vpage lsr leaf_bits) land mid_mask) in
    Array.unsafe_get leaf (vpage land leaf_mask)

let set t vpage f =
  let hi = vpage lsr top_shift in
  let n = Array.length t.root in
  if hi >= n then begin
    let root = Array.make (max (hi + 1) (2 * n)) empty_mid in
    Array.blit t.root 0 root 0 n;
    t.root <- root
  end;
  if t.root.(hi) == empty_mid then
    t.root.(hi) <- Array.make (1 lsl mid_bits) empty_leaf;
  let mid = t.root.(hi) and i = (vpage lsr leaf_bits) land mid_mask in
  if mid.(i) == empty_leaf then mid.(i) <- Array.make (1 lsl leaf_bits) (-1);
  mid.(i).(vpage land leaf_mask) <- f

(* First touch of [vpage]: take a frame under the policy and map it. *)
let map_page t ~owner ~node vpage =
  let f =
    match t.map.Dram.Address_map.interleaving with
    | Dram.Address_map.Line_interleaved ->
      (* MC bits are inside the page offset: any frame works, but the
         total capacity is still bounded *)
      if t.seq_in_use >= t.frames_per_mc * t.map.Dram.Address_map.num_mcs
      then failwith "Page_alloc: physical memory exhausted"
      else begin
        t.seq_in_use <- t.seq_in_use + 1;
        match t.free_seq with
        | f :: rest ->
          t.free_seq <- rest;
          f
        | [] ->
          let f = t.next_seq in
          t.next_seq <- f + 1;
          f
      end
    | Dram.Address_map.Page_interleaved ->
      alloc_on t ~owner
        (home_mc t.policy ~num_mcs:t.map.Dram.Address_map.num_mcs ~node ~vpage)
  in
  set t vpage f;
  t.mapped <- t.mapped + 1;
  f

let translate_owned t ~owner ~node ~vaddr =
  if vaddr < 0 then invalid_arg "Page_alloc.translate: negative vaddr";
  let s = t.page_shift in
  let vpage = if s >= 0 then vaddr lsr s else vaddr / t.page_bytes in
  let f = lookup t vpage in
  let f = if f >= 0 then f else map_page t ~owner ~node vpage in
  if s >= 0 then (f lsl s) lor (vaddr land (t.page_bytes - 1))
  else (f * t.page_bytes) + (vaddr mod t.page_bytes)

let translate t ~node ~vaddr = translate_owned t ~owner:(-1) ~node ~vaddr

let release t f =
  match t.map.Dram.Address_map.interleaving with
  | Dram.Address_map.Line_interleaved ->
    t.free_seq <- f :: t.free_seq;
    t.seq_in_use <- t.seq_in_use - 1
  | Dram.Address_map.Page_interleaved ->
    let num_mcs = t.map.Dram.Address_map.num_mcs in
    let m = f mod num_mcs in
    t.free_local.(m) <- (f / num_mcs) :: t.free_local.(m);
    t.in_use.(m) <- t.in_use.(m) - 1

(* Pages are freed in ascending order (the free lists are LIFO, so the
   order is observable); absent middles and leaves are skipped whole. *)
let free_region t ~first_vpage ~last_vpage =
  let freed = ref 0 in
  let rec from v =
    let hi = v lsr top_shift in
    if v <= last_vpage && hi < Array.length t.root then begin
      let mid = t.root.(hi) in
      let leaf = mid.((v lsr leaf_bits) land mid_mask) in
      let last_of_span =
        if mid == empty_mid then v lor ((1 lsl top_shift) - 1)
        else v lor leaf_mask
      in
      let stop = min last_vpage last_of_span in
      if leaf != empty_leaf then
        for u = v to stop do
          let f = leaf.(u land leaf_mask) in
          if f >= 0 then begin
            leaf.(u land leaf_mask) <- -1;
            t.mapped <- t.mapped - 1;
            incr freed;
            release t f
          end
        done;
      if stop < last_vpage then from (stop + 1)
    end
  in
  from (max 0 first_vpage);
  !freed

let pages_allocated t = t.mapped

let fallback_allocations t = t.fallbacks

let fallback_allocations_of t ~owner =
  Option.value (Hashtbl.find_opt t.owner_fallbacks owner) ~default:0
