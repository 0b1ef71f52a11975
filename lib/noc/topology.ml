type chiplets = {
  grid_x : int;
  grid_y : int;
  link_latency : int;
  link_bytes : int;
}

type t = { width : int; height : int; chiplets : chiplets option }

type dir = East | West | North | South

type link = { from_node : int; dir : dir }

let make ?chiplets ~width ~height () =
  if width <= 0 || height <= 0 then invalid_arg "Topology.make";
  (match chiplets with
  | None -> ()
  | Some c ->
    if
      c.grid_x <= 0 || c.grid_y <= 0 || c.link_latency <= 0
      || c.link_bytes <= 0
      || width mod c.grid_x <> 0
      || height mod c.grid_y <> 0
    then invalid_arg "Topology.make: chiplets");
  (* a 1x1 chiplet grid has no boundary to cross: normalize it away so a
     degenerate hierarchical machine is structurally equal to the flat
     mesh (and behaves byte-identically everywhere) *)
  let chiplets =
    match chiplets with
    | Some { grid_x = 1; grid_y = 1; _ } -> None
    | c -> c
  in
  { width; height; chiplets }

let chiplets_result t ~grid_x ~grid_y ~link_latency ~link_bytes =
  if grid_x <= 0 || grid_y <= 0 then
    Error (Printf.sprintf "chiplet grid %dx%d must be positive" grid_x grid_y)
  else if t.width mod grid_x <> 0 || t.height mod grid_y <> 0 then
    Error
      (Printf.sprintf "chiplet grid %dx%d does not tile the %dx%d mesh"
         grid_x grid_y t.width t.height)
  else if link_latency <= 0 then
    Error
      (Printf.sprintf "inter-chiplet link latency must be positive (got %d)"
         link_latency)
  else if link_bytes <= 0 then
    Error
      (Printf.sprintf "inter-chiplet link width must be positive (got %d B)"
         link_bytes)
  else
    Ok
      (make
         ~chiplets:{ grid_x; grid_y; link_latency; link_bytes }
         ~width:t.width ~height:t.height ())

let nodes t = t.width * t.height

let node_of_coord t (c : Coord.t) = (c.y * t.width) + c.x

let coord_of_node t n = Coord.make (n mod t.width) (n / t.width)

let in_mesh t (c : Coord.t) =
  c.x >= 0 && c.x < t.width && c.y >= 0 && c.y < t.height

(* the Manhattan distance of the two nodes' coordinates, computed without
   building them *)
let distance t a b =
  let w = t.width in
  abs ((a mod w) - (b mod w)) + abs ((a / w) - (b / w))

(* --- the chiplet level ------------------------------------------------- *)

let num_chiplets t =
  match t.chiplets with None -> 1 | Some c -> c.grid_x * c.grid_y

let chiplet_of_coord t (c : Coord.t) =
  match t.chiplets with
  | None -> 0
  | Some g ->
    let nx = t.width / g.grid_x and ny = t.height / g.grid_y in
    ((c.y / ny) * g.grid_x) + (c.x / nx)

let chiplet_of_node t n = chiplet_of_coord t (coord_of_node t n)

(* Under XY routing the message crosses |Δchiplet_x| vertical and
   |Δchiplet_y| horizontal chiplet boundaries — the X leg runs at the
   source row, the Y leg at the destination column, so boundary
   crossings are exactly the chiplet-grid Manhattan distance. *)
let chiplet_hops t a b =
  match t.chiplets with
  | None -> 0
  | Some g ->
    let ca = coord_of_node t a and cb = coord_of_node t b in
    let nx = t.width / g.grid_x and ny = t.height / g.grid_y in
    abs ((cb.x / nx) - (ca.x / nx)) + abs ((cb.y / ny) - (ca.y / ny))

let step t n = function
  | East -> n + 1
  | West -> n - 1
  | South -> n + t.width
  | North -> n - t.width

let dir_index = function East -> 0 | West -> 1 | North -> 2 | South -> 3

let link_id _t l = (l.from_node * 4) + dir_index l.dir

let num_link_ids t = 4 * nodes t

let link_crosses_chiplet t l =
  match t.chiplets with
  | None -> false
  | Some _ ->
    chiplet_of_node t l.from_node <> chiplet_of_node t (step t l.from_node l.dir)

(* The XY route (X first, then Y) as a dense array of link ids: the
   representation the network's route table memoizes. *)
let link_ids t ~src ~dst =
  let cs = coord_of_node t src and cd = coord_of_node t dst in
  let ids = Array.make (Coord.manhattan cs cd) 0 in
  let cur = ref src in
  let k = ref 0 in
  let move dir =
    ids.(!k) <- (!cur * 4) + dir_index dir;
    incr k;
    cur := step t !cur dir
  in
  for _ = 1 to abs (cd.x - cs.x) do
    move (if cd.x > cs.x then East else West)
  done;
  for _ = 1 to abs (cd.y - cs.y) do
    move (if cd.y > cs.y then South else North)
  done;
  ids
