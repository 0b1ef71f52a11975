(* The reference page allocator: the hash-table page table and the
   divisions [Os_sim.Page_alloc] replaced with a radix table and staged
   shifts.  Kept only as the oracle the allocator is checked against
   (test_os.ml), so it favours being obviously right over being fast. *)

type policy = Os_sim.Page_alloc.policy =
  | Hardware_interleaved
  | First_touch of (int -> int)
  | Mc_aware of { desired : int -> int option; fallback : int -> int }

module Page_tbl = Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b

  let hash (x : int) = x
end)

type t = {
  map : Dram.Address_map.t;
  policy : policy;
  frames_per_mc : int;
  table : int Page_tbl.t;  (** virtual page -> physical frame *)
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
    table = Page_tbl.create 4096;
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

let translate_owned t ~owner ~node ~vaddr =
  let page_bytes = t.map.Dram.Address_map.page_bytes in
  let vpage = vaddr / page_bytes in
  let frame =
    match Page_tbl.find t.table vpage with
    | f -> f
    | exception Not_found ->
      let f =
        match t.map.Dram.Address_map.interleaving with
        | Dram.Address_map.Line_interleaved ->
          (* MC bits are inside the page offset: any frame works, but the
             total capacity is still bounded *)
          if
            t.seq_in_use
            >= t.frames_per_mc * t.map.Dram.Address_map.num_mcs
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
            (home_mc t.policy ~num_mcs:t.map.Dram.Address_map.num_mcs ~node
               ~vpage)
      in
      Page_tbl.replace t.table vpage f;
      f
  in
  (frame * page_bytes) + (vaddr mod page_bytes)

let translate t ~node ~vaddr = translate_owned t ~owner:(-1) ~node ~vaddr

let free_region t ~first_vpage ~last_vpage =
  let freed = ref 0 in
  for vpage = first_vpage to last_vpage do
    match Page_tbl.find_opt t.table vpage with
    | None -> ()
    | Some f ->
      Page_tbl.remove t.table vpage;
      incr freed;
      (match t.map.Dram.Address_map.interleaving with
      | Dram.Address_map.Line_interleaved ->
        t.free_seq <- f :: t.free_seq;
        t.seq_in_use <- t.seq_in_use - 1
      | Dram.Address_map.Page_interleaved ->
        let num_mcs = t.map.Dram.Address_map.num_mcs in
        let m = f mod num_mcs in
        t.free_local.(m) <- (f / num_mcs) :: t.free_local.(m);
        t.in_use.(m) <- t.in_use.(m) - 1)
  done;
  !freed

let pages_allocated t = Page_tbl.length t.table

let fallback_allocations t = t.fallbacks

let fallback_allocations_of t ~owner =
  Option.value (Hashtbl.find_opt t.owner_fallbacks owner) ~default:0
