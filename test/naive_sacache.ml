(* The reference set-associative cache: the set index by integer
   division and [mod], and lookups through an option.  [Cache_sim.Sacache]
   keeps the same semantics with power-of-two shifts and masks and an int
   slot; this copy is kept only as the oracle it is checked against
   (test_cache.ml), so it favours being obviously right over being fast.
   It accepts any set count. *)

type result = Cache_sim.Sacache.result =
  | Hit
  | Miss of { evicted : int option; evicted_dirty : bool }

type t = {
  line_bytes : int;
  line_shift : int;
  num_sets : int;
  hash_sets : bool;
  ways : int;
  tags : int array;  (** [(set * ways) + way] -> line address, or -1 *)
  dirty : bool array;
  last_use : int array;
  mutable tick : int;
}

let log2 n =
  let rec go acc n = if n = 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let create ?(hash_sets = false) ~size_bytes ~line_bytes ~ways () =
  let num_sets = size_bytes / line_bytes / ways in
  {
    line_bytes;
    line_shift = log2 line_bytes;
    num_sets;
    hash_sets;
    ways;
    tags = Array.make (num_sets * ways) (-1);
    dirty = Array.make (num_sets * ways) false;
    last_use = Array.make (num_sets * ways) 0;
    tick = 0;
  }

let line_addr c addr = addr land lnot (c.line_bytes - 1)

let set_of c line =
  let idx = line lsr c.line_shift in
  let idx =
    if c.hash_sets then
      idx lxor (idx / c.num_sets) lxor (idx / (c.num_sets * c.num_sets))
    else idx
  in
  ((idx mod c.num_sets) + c.num_sets) mod c.num_sets

let find c line =
  let base = set_of c line * c.ways in
  let rec go w =
    if w = c.ways then None
    else if c.tags.(base + w) = line then Some (base + w)
    else go (w + 1)
  in
  go 0

let access c ~addr ~write =
  c.tick <- c.tick + 1;
  let line = line_addr c addr in
  match find c line with
  | Some slot ->
    c.last_use.(slot) <- c.tick;
    if write then c.dirty.(slot) <- true;
    Hit
  | None ->
    let base = set_of c line * c.ways in
    (* victim: an invalid way, else the LRU way *)
    let victim = ref base in
    for w = 0 to c.ways - 1 do
      let i = base + w in
      if c.tags.(i) = -1 then begin
        if c.tags.(!victim) <> -1 then victim := i
      end
      else if c.tags.(!victim) <> -1 && c.last_use.(i) < c.last_use.(!victim)
      then victim := i
    done;
    let v = !victim in
    let evicted = if c.tags.(v) <> -1 then Some c.tags.(v) else None in
    let evicted_dirty = c.tags.(v) <> -1 && c.dirty.(v) in
    c.tags.(v) <- line;
    c.dirty.(v) <- write;
    c.last_use.(v) <- c.tick;
    Miss { evicted; evicted_dirty }

let probe c ~addr = Option.is_some (find c (line_addr c addr))

let invalidate c ~addr =
  match find c (line_addr c addr) with
  | None -> false
  | Some slot ->
    let was_dirty = c.dirty.(slot) in
    c.tags.(slot) <- -1;
    c.dirty.(slot) <- false;
    was_dirty
