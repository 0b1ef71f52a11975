(* De Bruijn multiplication maps each single bit below 2^32 to a
   distinct top-5-bit pattern; a word's lowest bit is looked up in
   whichever 32-bit half holds it. *)

let debruijn = 0x077CB531

let index b = ((b * debruijn) land 0xFFFFFFFF) lsr 27

let table =
  let t = Array.make 32 0 in
  for i = 0 to 31 do
    t.(index (1 lsl i)) <- i
  done;
  t

let lowest x =
  let b = x land (-x) in
  if b land 0xFFFFFFFF <> 0 then Array.unsafe_get table (index b)
  else 32 + Array.unsafe_get table (index (b lsr 32))
