(* Holder sets are bitsets of [Sys.int_size]-bit words — node [n] is bit
   [n mod int_size] of word [n / int_size] — sized to the machine, so any
   node count works.  The tracked lines live in one open-addressed table:
   [keys.(i)] is a line address or -1 (empty), and slot [i]'s holder
   words are [sets.(i·words ..)], stored in place.  Collisions probe
   linearly, and a line whose last holder leaves is deleted by shifting
   the probe run behind it back, so no tombstone is ever left. *)

type t = {
  nodes : int;
  words : int;
  mutable keys : int array;
  mutable sets : int array;
  mutable mask : int;
  mutable count : int;
}

let bits = Sys.int_size

let initial_slots = 4096

let create ~nodes =
  if nodes <= 0 then invalid_arg "Directory.create";
  let words = (nodes + bits - 1) / bits in
  {
    nodes;
    words;
    keys = Array.make initial_slots (-1);
    sets = Array.make (initial_slots * words) 0;
    mask = initial_slots - 1;
    count = 0;
  }

(* Line addresses are multiples of the line size and the table indexes
   its slots by the low bits of the hash: a multiplicative mix (odd
   constant, high product bits) brings the varying bits down. *)
let home d line = ((line * 0x1E3779B97F4A7C15) lsr 32) land d.mask

(* The slot holding [line], or the empty slot ending its probe run. *)
let slot d line =
  let i = ref (home d line) in
  while d.keys.(!i) <> line && d.keys.(!i) <> -1 do
    i := (!i + 1) land d.mask
  done;
  !i

(* Copies slot [j]'s holder words from [src] into slot [i] of [d]. *)
let copy_set d (src : int array) j i =
  for w = 0 to d.words - 1 do
    d.sets.((i * d.words) + w) <- src.((j * d.words) + w)
  done

let grow d =
  let keys = d.keys and sets = d.sets in
  let slots = 2 * Array.length keys in
  d.keys <- Array.make slots (-1);
  d.sets <- Array.make (slots * d.words) 0;
  d.mask <- slots - 1;
  Array.iteri
    (fun j line ->
      if line <> -1 then begin
        let i = slot d line in
        d.keys.(i) <- line;
        copy_set d sets j i
      end)
    keys

let add_holder d ~line ~node =
  if node < 0 || node >= d.nodes then invalid_arg "Directory.add_holder";
  let i = slot d line in
  let i =
    if d.keys.(i) = line then i
    else begin
      (* at most half the slots are taken, so probe runs stay short *)
      let i =
        if 2 * (d.count + 1) <= Array.length d.keys then i
        else begin
          grow d;
          slot d line
        end
      in
      d.keys.(i) <- line;
      d.count <- d.count + 1;
      i
    end
  in
  let w = (i * d.words) + (node / bits) in
  d.sets.(w) <- d.sets.(w) lor (1 lsl (node mod bits))

let is_empty d i =
  let rec go w =
    w = d.words || (d.sets.((i * d.words) + w) = 0 && go (w + 1))
  in
  go 0

(* Empties slot [hole] and moves back every later entry of its probe run
   whose home does not lie cyclically in [(hole, j]]. *)
let delete d hole =
  let hole = ref hole and j = ref ((hole + 1) land d.mask) in
  while d.keys.(!j) <> -1 do
    let h = home d d.keys.(!j) in
    if (!j - h) land d.mask >= (!j - !hole) land d.mask then begin
      d.keys.(!hole) <- d.keys.(!j);
      copy_set d d.sets !j !hole;
      hole := !j
    end;
    j := (!j + 1) land d.mask
  done;
  d.keys.(!hole) <- -1;
  Array.fill d.sets (!hole * d.words) d.words 0;
  d.count <- d.count - 1

let remove_holder d ~line ~node =
  if node >= 0 && node < d.nodes then begin
    let i = slot d line in
    if d.keys.(i) = line then begin
      let w = (i * d.words) + (node / bits) in
      d.sets.(w) <- d.sets.(w) land lnot (1 lsl (node mod bits));
      if is_empty d i then delete d i
    end
  end

let holders d ~line =
  let i = slot d line in
  if d.keys.(i) <> line then []
  else begin
    let acc = ref [] in
    for n = d.nodes - 1 downto 0 do
      if d.sets.((i * d.words) + (n / bits)) land (1 lsl (n mod bits)) <> 0 then
        acc := n :: !acc
    done;
    !acc
  end

(* Holders in ascending node order, visiting set bits only, keeping the
   first strict minimum: among equally distant holders the lowest-numbered
   wins. *)
let closest_holder d ~line ~excluding ~distance =
  let i = slot d line in
  if d.keys.(i) <> line then -1
  else begin
    let best = ref (-1) and best_dist = ref 0 in
    for w = 0 to d.words - 1 do
      let x = ref d.sets.((i * d.words) + w) in
      while !x <> 0 do
        let n = (w * bits) + Bits.lowest !x in
        x := !x land (!x - 1);
        if n <> excluding then begin
          let dist = distance.(n) in
          if !best < 0 || dist < !best_dist then begin
            best := n;
            best_dist := dist
          end
        end
      done
    done;
    !best
  end

let clear d =
  Array.fill d.keys 0 (Array.length d.keys) (-1);
  Array.fill d.sets 0 (Array.length d.sets) 0;
  d.count <- 0
