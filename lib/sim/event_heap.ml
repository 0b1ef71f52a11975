(* Calendar queue: a wheel of one-cycle FIFO buckets covering
   [cursor, cursor + wheel), backed by a binary heap ([Far]) for every
   event outside that window.

   Wheel events live in an intrusive slot pool: [next] links a bucket's
   slots oldest first (and the free slots into a freelist) and [payloads]
   holds their values, so once the pool has grown to the run's peak
   population pushing and popping allocate nothing.  A bucket stands for
   exactly one cycle of the window, so a slot needs no time of its own.
   An occupancy bitmap (32 buckets per word) bounds the search for the
   next non-empty bucket to a word scan, so a sparse run never walks the
   whole wheel per pop.

   Order is exactly (time, insertion).  An event goes to the wheel only
   when its time is inside the window; moving the cursor first pulls, in
   heap order, every far event whose time has entered the window, so
   within a bucket push order is FIFO order.  An event pushed before the
   cursor goes to the far heap, and pops first.

   Popped payload slots keep their last reference until overwritten by a
   later push; the engine's payloads are preallocated pooled values, so
   nothing is retained beyond the pool itself. *)

(* Binary min-heap on parallel arrays, (time, seq) keys unboxed, sifting
   a hole instead of swapping. *)
module Far = struct
  type 'a t = {
    mutable times : int array;
    mutable seqs : int array;
    mutable payloads : 'a array;
    mutable len : int;
    mutable next_seq : int;
  }

  let create () =
    { times = [||]; seqs = [||]; payloads = [||]; len = 0; next_seq = 0 }

  let grow h payload =
    let cap = Int.max 64 (2 * h.len) in
    let times = Array.make cap 0 in
    let seqs = Array.make cap 0 in
    let payloads = Array.make cap payload in
    Array.blit h.times 0 times 0 h.len;
    Array.blit h.seqs 0 seqs 0 h.len;
    Array.blit h.payloads 0 payloads 0 h.len;
    h.times <- times;
    h.seqs <- seqs;
    h.payloads <- payloads

  let push h ~time payload =
    let seq = h.next_seq in
    h.next_seq <- seq + 1;
    if h.len = Array.length h.times then grow h payload;
    (* sift the hole up from the end *)
    let i = ref h.len in
    h.len <- h.len + 1;
    let moving = ref true in
    while !moving && !i > 0 do
      let parent = (!i - 1) / 2 in
      let pt = h.times.(parent) in
      if time < pt || (time = pt && seq < h.seqs.(parent)) then begin
        h.times.(!i) <- pt;
        h.seqs.(!i) <- h.seqs.(parent);
        h.payloads.(!i) <- h.payloads.(parent);
        i := parent
      end
      else moving := false
    done;
    h.times.(!i) <- time;
    h.seqs.(!i) <- seq;
    h.payloads.(!i) <- payload

  (* Remove the root, re-sitting the last element down from the hole. *)
  let pop_payload h =
    let p = h.payloads.(0) in
    let n = h.len - 1 in
    h.len <- n;
    if n > 0 then begin
      let lt = h.times.(n) and ls = h.seqs.(n) in
      let lp = h.payloads.(n) in
      let i = ref 0 in
      let moving = ref true in
      while !moving do
        let l = (2 * !i) + 1 in
        if l >= n then moving := false
        else begin
          let r = l + 1 in
          let c =
            if
              r < n
              && (h.times.(r) < h.times.(l)
                 || (h.times.(r) = h.times.(l) && h.seqs.(r) < h.seqs.(l)))
            then r
            else l
          in
          let ct = h.times.(c) in
          if ct < lt || (ct = lt && h.seqs.(c) < ls) then begin
            h.times.(!i) <- ct;
            h.seqs.(!i) <- h.seqs.(c);
            h.payloads.(!i) <- h.payloads.(c);
            i := c
          end
          else moving := false
        end
      done;
      h.times.(!i) <- lt;
      h.seqs.(!i) <- ls;
      h.payloads.(!i) <- lp
    end;
    p
end

let wheel = 4096 (* a power of two *)

let mask = wheel - 1

let words = wheel / 32

type 'a t = {
  mutable cursor : int;  (** the wheel covers [cursor, cursor + wheel) *)
  head : int array;  (** per bucket, its oldest slot; -1 = empty *)
  tail : int array;  (** per bucket, its youngest slot *)
  occupied : int array;  (** bucket [b] is bit [b land 31] of word [b lsr 5] *)
  mutable next : int array;  (** slot pool links: bucket FIFO or freelist *)
  mutable payloads : 'a array;
  mutable free : int;  (** freelist head; -1 = pool full *)
  mutable in_wheel : int;
  far : 'a Far.t;
}

let create () =
  {
    cursor = 0;
    head = Array.make wheel (-1);
    tail = Array.make wheel (-1);
    occupied = Array.make words 0;
    next = [||];
    payloads = [||];
    free = -1;
    in_wheel = 0;
    far = Far.create ();
  }

let grow h payload =
  let old = Array.length h.next in
  let cap = Int.max 64 (2 * old) in
  let next = Array.make cap (-1) in
  let payloads = Array.make cap payload in
  Array.blit h.next 0 next 0 old;
  Array.blit h.payloads 0 payloads 0 old;
  for s = old to cap - 2 do
    next.(s) <- s + 1
  done;
  h.next <- next;
  h.payloads <- payloads;
  h.free <- old

let append h b payload =
  if h.free < 0 then grow h payload;
  let s = h.free in
  h.free <- h.next.(s);
  h.next.(s) <- -1;
  h.payloads.(s) <- payload;
  if h.head.(b) < 0 then begin
    h.head.(b) <- s;
    h.occupied.(b lsr 5) <- h.occupied.(b lsr 5) lor (1 lsl (b land 31))
  end
  else h.next.(h.tail.(b)) <- s;
  h.tail.(b) <- s;
  h.in_wheel <- h.in_wheel + 1

let push h ~time payload =
  if time >= h.cursor && time - h.cursor < wheel then append h (time land mask) payload
  else Far.push h.far ~time payload

(* The first non-empty bucket at or after the cursor's, in wheel order
   (which is time order); the wheel must not be empty.  The scan starts
   with the cursor's word masked below the cursor, and visits that word
   whole again last. *)
let first_bucket h =
  let c = h.cursor land mask in
  let rec scan w bits =
    if bits <> 0 then (w lsl 5) lor Cache_sim.Bits.lowest bits
    else
      let w = (w + 1) land (words - 1) in
      scan w h.occupied.(w)
  in
  scan (c lsr 5) (h.occupied.(c lsr 5) land (-1 lsl (c land 31)))

(* Move the cursor to [t], no later than the earliest event, and pull in
   every far event the window now covers. *)
let move h t =
  h.cursor <- t;
  let far = h.far in
  while far.Far.len > 0 && far.Far.times.(0) - t < wheel do
    let time = far.Far.times.(0) in
    append h (time land mask) (Far.pop_payload far)
  done

(* Make the earliest event the far heap's root (true) or the head of the
   cursor's bucket (false); the queue must not be empty. *)
let settle h =
  let far = h.far in
  if far.Far.len > 0 && far.Far.times.(0) < h.cursor then true
  else begin
    if h.in_wheel = 0 then move h far.Far.times.(0)
    else if h.head.(h.cursor land mask) < 0 then
      move h (h.cursor + ((first_bucket h - h.cursor) land mask));
    false
  end

let take h =
  let b = h.cursor land mask in
  let s = h.head.(b) in
  let n = h.next.(s) in
  h.head.(b) <- n;
  if n < 0 then h.occupied.(b lsr 5) <- h.occupied.(b lsr 5) land lnot (1 lsl (b land 31));
  h.next.(s) <- h.free;
  h.free <- s;
  h.in_wheel <- h.in_wheel - 1;
  h.payloads.(s)

let size h = h.in_wheel + h.far.Far.len

let is_empty h = size h = 0

let next_time h =
  if is_empty h then invalid_arg "Event_heap.next_time: empty";
  if settle h then h.far.Far.times.(0) else h.cursor

let pop_payload h =
  if is_empty h then invalid_arg "Event_heap.pop_payload: empty";
  if settle h then Far.pop_payload h.far else take h
