(* Holder sets are bitsets of [Sys.int_size]-bit words — node [n] is bit
   [n mod int_size] of word [n / int_size] — sized to the machine, so any
   node count works.  Each tracked line keys its own mutable set in an
   int-keyed table; adding or dropping a holder of a tracked line updates
   the set in place. *)

module Line_tbl = Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b

  (* Line addresses are multiples of the line size and the table indexes
     its buckets by the low bits of the hash: a multiplicative mix (odd
     constant, high product bits) brings the varying bits down. *)
  let hash x = (x * 0x1E3779B97F4A7C15) lsr 32
end)

type t = { nodes : int; words : int; table : int array Line_tbl.t }

let bits = Sys.int_size

let create ~nodes =
  if nodes <= 0 then invalid_arg "Directory.create";
  { nodes; words = (nodes + bits - 1) / bits; table = Line_tbl.create 4096 }

let add_holder d ~line ~node =
  if node < 0 || node >= d.nodes then invalid_arg "Directory.add_holder";
  let w = node / bits and b = 1 lsl (node mod bits) in
  match Line_tbl.find d.table line with
  | set -> set.(w) <- set.(w) lor b
  | exception Not_found ->
    let set = Array.make d.words 0 in
    set.(w) <- b;
    Line_tbl.add d.table line set

let is_empty set =
  let rec go w = w = Array.length set || (set.(w) = 0 && go (w + 1)) in
  go 0

let remove_holder d ~line ~node =
  if node >= 0 && node < d.nodes then
    match Line_tbl.find d.table line with
    | exception Not_found -> ()
    | set ->
      let w = node / bits in
      set.(w) <- set.(w) land lnot (1 lsl (node mod bits));
      if is_empty set then Line_tbl.remove d.table line

let holders d ~line =
  match Line_tbl.find d.table line with
  | exception Not_found -> []
  | set ->
    let acc = ref [] in
    for n = d.nodes - 1 downto 0 do
      if set.(n / bits) land (1 lsl (n mod bits)) <> 0 then acc := n :: !acc
    done;
    !acc

(* Holders in ascending node order, keeping the first strict minimum:
   among equally distant holders the lowest-numbered wins. *)
let closest_holder d ~line ~excluding ~distance =
  match Line_tbl.find d.table line with
  | exception Not_found -> -1
  | set ->
    let best = ref (-1) and best_dist = ref 0 in
    for n = 0 to d.nodes - 1 do
      if n <> excluding && set.(n / bits) land (1 lsl (n mod bits)) <> 0 then begin
        let dist = distance.(n) in
        if !best < 0 || dist < !best_dist then begin
          best := n;
          best_dist := dist
        end
      end
    done;
    !best

let clear d = Line_tbl.reset d.table
