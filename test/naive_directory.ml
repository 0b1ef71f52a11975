(* The reference L2 directory: holder sets as pairs of 62-bit words (at
   most 124 nodes), membership lists rebuilt on every query and the
   closest holder found by folding over that list.  [Cache_sim.Directory]
   keeps the same semantics with a bitset per line sized to the machine;
   this copy is kept only as the oracle it is checked against
   (test_cache.ml), so it favours being obviously right over being fast. *)

type t = { nodes : int; table : (int, int * int) Hashtbl.t }

let bits_per_word = 62

let create ~nodes =
  if nodes <= 0 || nodes > 2 * bits_per_word then invalid_arg "Directory.create";
  { nodes; table = Hashtbl.create 64 }

let mask node =
  if node < bits_per_word then (1 lsl node, 0) else (0, 1 lsl (node - bits_per_word))

let add_holder d ~line ~node =
  if node < 0 || node >= d.nodes then invalid_arg "Directory.add_holder";
  let m0, m1 = mask node in
  let w0, w1 = Option.value (Hashtbl.find_opt d.table line) ~default:(0, 0) in
  Hashtbl.replace d.table line (w0 lor m0, w1 lor m1)

let remove_holder d ~line ~node =
  match Hashtbl.find_opt d.table line with
  | None -> ()
  | Some (w0, w1) ->
    let m0, m1 = mask node in
    let w0 = w0 land lnot m0 and w1 = w1 land lnot m1 in
    if w0 = 0 && w1 = 0 then Hashtbl.remove d.table line
    else Hashtbl.replace d.table line (w0, w1)

let holders d ~line =
  match Hashtbl.find_opt d.table line with
  | None -> []
  | Some (w0, w1) ->
    let acc = ref [] in
    for n = d.nodes - 1 downto 0 do
      let m0, m1 = mask n in
      if w0 land m0 <> 0 || w1 land m1 <> 0 then acc := n :: !acc
    done;
    !acc

let closest_holder d ~line ?(excluding = -1) ~distance () =
  let ns = List.filter (fun n -> n <> excluding) (holders d ~line) in
  List.fold_left
    (fun b n ->
      match b with
      | None -> Some n
      | Some m -> if distance n < distance m then Some n else Some m)
    None ns

let clear d = Hashtbl.reset d.table
