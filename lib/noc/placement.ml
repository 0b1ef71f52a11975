type t = { name : string; nodes : int array }

let count p = Array.length p.nodes

let of_coords_result topo name coords =
  let off = ref None in
  let nodes =
    Array.map
      (fun c ->
        if not (Topology.in_mesh topo c) then begin
          if !off = None then off := Some c;
          0
        end
        else Topology.node_of_coord topo c)
      coords
  in
  match !off with
  | Some c ->
    Error
      (Printf.sprintf "Placement %s: site (%d,%d) is off the %dx%d mesh" name
         c.Coord.x c.Coord.y topo.Topology.width topo.Topology.height)
  | None -> Ok { name; nodes }

(* Internal helper for the fixed preset placements below, whose sites are
   in-mesh by construction on any mesh large enough to host them. *)
let of_coords topo name coords =
  match of_coords_result topo name coords with
  | Ok p -> p
  | Error e -> invalid_arg e

let edge_centers topo =
  let w = topo.Topology.width and h = topo.Topology.height in
  of_coords topo "P2-edge-centers"
    [|
      Coord.make ((w / 2) - 1) 0;
      Coord.make (w - 1) ((h / 2) - 1);
      Coord.make 0 (h / 2);
      Coord.make (w / 2) (h - 1);
    |]

let top_bottom topo =
  let w = topo.Topology.width and h = topo.Topology.height in
  of_coords topo "P3-top-bottom"
    [|
      Coord.make 1 0;
      Coord.make (w - 2) 0;
      Coord.make 1 (h - 1);
      Coord.make (w - 2) (h - 1);
    |]

(* Perimeter nodes, clockwise from the NW corner. *)
let perimeter_sites topo =
  let w = topo.Topology.width and h = topo.Topology.height in
  let top = List.init w (fun x -> Coord.make x 0) in
  let right = List.init (h - 2) (fun i -> Coord.make (w - 1) (i + 1)) in
  let bottom = List.init w (fun x -> Coord.make (w - 1 - x) (h - 1)) in
  let left = List.init (h - 2) (fun i -> Coord.make 0 (h - 2 - i)) in
  Array.of_list (top @ right @ bottom @ left)

let interior_sites topo =
  let w = topo.Topology.width and h = topo.Topology.height in
  let sites = ref [] in
  for y = h - 2 downto 1 do
    for x = w - 2 downto 1 do
      sites := Coord.make x y :: !sites
    done
  done;
  Array.of_list !sites

type pool = Perimeter | Flip_chip

let pool_names = [ ("perimeter", Perimeter); ("flip-chip", Flip_chip) ]

let pool_of_string s =
  match List.assoc_opt (String.lowercase_ascii s) pool_names with
  | Some p -> Ok p
  | None ->
    Error
      (Printf.sprintf "unknown site pool %S (pools: %s)" s
         (String.concat ", " (List.map fst pool_names)))

let pool_sites topo = function
  | Perimeter -> perimeter_sites topo
  | Flip_chip -> Array.append (perimeter_sites topo) (interior_sites topo)

(* Greedy seed in MC-index order: MC m takes the unused site nearest its
   centroid.  Shared by the plain-greedy and 2-opt-refined entry points;
   returns site *indices* so the refinement can keep swapping them. *)
let greedy_indices ~sites ~centroids =
  let n = Array.length centroids in
  let used = Array.make (Array.length sites) false in
  let chosen = Array.make n 0 in
  Array.iteri
    (fun m c ->
      let best = ref (-1) and bestd = ref max_int in
      Array.iteri
        (fun i pc ->
          if not used.(i) then begin
            let d = Coord.manhattan c pc in
            if d < !bestd then begin
              bestd := d;
              best := i
            end
          end)
        sites;
      assert (!best >= 0);
      used.(!best) <- true;
      chosen.(m) <- !best)
    centroids;
  chosen

let check_site_count ~sites ~centroids =
  if Array.length sites < Array.length centroids then
    Error
      (Printf.sprintf "Placement.assign: %d sites for %d controllers"
         (Array.length sites) (Array.length centroids))
  else Ok ()

let assign_result topo ~name ~sites ~centroids =
  match check_site_count ~sites ~centroids with
  | Error _ as e -> e
  | Ok () ->
    let n = Array.length centroids in
    let chosen = greedy_indices ~sites ~centroids in
    (* 2-opt refinement: greedy can strand a later controller far from its
       cluster (e.g. the edge-center placement); swap assignments while the
       total centroid distance decreases *)
    let dist m i = Coord.manhattan centroids.(m) sites.(i) in
    let improved = ref true in
    while !improved do
      improved := false;
      for a = 0 to n - 1 do
        for b = a + 1 to n - 1 do
          let cur = dist a chosen.(a) + dist b chosen.(b) in
          let swapped = dist a chosen.(b) + dist b chosen.(a) in
          if swapped < cur then begin
            let t = chosen.(a) in
            chosen.(a) <- chosen.(b);
            chosen.(b) <- t;
            improved := true
          end
        done
      done
    done;
    of_coords_result topo name (Array.map (fun i -> sites.(i)) chosen)

let for_centroids_result topo ~name ~centroids =
  assign_result topo ~name ~sites:(perimeter_sites topo) ~centroids

(* --- neighborhood moves (placement search) ----------------------------- *)

(* A search state is an *ordered* site array: MC [m] sits at [sites.(m)],
   so the MC-index <-> cluster-index correspondence the interleaved layout
   relies on is part of the state, not recomputed per move.  [Swap]
   generalizes the 2-opt refinement above to an explicit operator;
   [Relocate] extends the neighborhood to unused candidate sites. *)
type move =
  | Relocate of { mc : int; site : Coord.t }
  | Swap of { a : int; b : int }

let pp_move ppf = function
  | Relocate { mc; site } ->
    Format.fprintf ppf "relocate mc%d -> (%d,%d)" mc site.Coord.x site.Coord.y
  | Swap { a; b } -> Format.fprintf ppf "swap mc%d <-> mc%d" a b

let apply_move_result topo ~sites move =
  let n = Array.length sites in
  match move with
  | Swap { a; b } ->
    if a < 0 || a >= n || b < 0 || b >= n then
      Error (Printf.sprintf "Placement.apply_move: swap %d <-> %d out of range" a b)
    else if a = b then Error "Placement.apply_move: swap of an MC with itself"
    else begin
      let next = Array.copy sites in
      next.(a) <- sites.(b);
      next.(b) <- sites.(a);
      Ok next
    end
  | Relocate { mc; site } ->
    if mc < 0 || mc >= n then
      Error (Printf.sprintf "Placement.apply_move: mc%d out of range" mc)
    else if not (Topology.in_mesh topo site) then
      Error
        (Printf.sprintf "Placement.apply_move: site (%d,%d) is off the mesh"
           site.Coord.x site.Coord.y)
    else if Array.exists (fun s -> Coord.equal s site) sites then
      Error
        (Printf.sprintf "Placement.apply_move: site (%d,%d) is already occupied"
           site.Coord.x site.Coord.y)
    else begin
      let next = Array.copy sites in
      next.(mc) <- site;
      Ok next
    end

(* Every legal move from [sites] into [pool], in a deterministic order:
   relocations (MC-index major, pool order minor), then swaps (a < b).
   The search's descent step is therefore reproducible: candidates are
   always proposed in the same order. *)
let neighborhood ~pool ~sites =
  let n = Array.length sites in
  let occupied site = Array.exists (fun s -> Coord.equal s site) sites in
  let relocations =
    List.concat
      (List.init n (fun mc ->
           List.filter_map
             (fun site ->
               if occupied site then None else Some (Relocate { mc; site }))
             (Array.to_list pool)))
  in
  let swaps =
    List.concat
      (List.init n (fun a ->
           List.filter_map
             (fun b -> if b > a then Some (Swap { a; b }) else None)
             (List.init n Fun.id)))
  in
  relocations @ swaps

(* --- chiplet-aware pools and move ordering ----------------------------- *)

let move_crosses_chiplet topo ~sites = function
  | Relocate { mc; site } ->
    Topology.chiplet_of_coord topo site
    <> Topology.chiplet_of_coord topo sites.(mc)
  | Swap { a; b } ->
    Topology.chiplet_of_coord topo sites.(a)
    <> Topology.chiplet_of_coord topo sites.(b)

(* On a hierarchical topology the confined moves (relocations within the
   MC's own chiplet, swaps between same-chiplet MCs) come first, each
   group keeping the flat enumeration order; moves that explicitly cross
   a chiplet boundary follow.  A best- or first-improvement descent
   therefore prefers staying inside a chiplet's site pool on ties, and a
   flat topology gets exactly the historical order. *)
let neighborhood_on topo ~pool ~sites =
  let moves = neighborhood ~pool ~sites in
  match topo.Topology.chiplets with
  | None -> moves
  | Some _ ->
    let confined, crossing =
      List.partition
        (fun m -> not (move_crosses_chiplet topo ~sites m))
        moves
    in
    confined @ crossing

let mc_node p m = p.nodes.(m)

let nearest p topo node =
  let best = ref 0 and bestd = ref max_int in
  Array.iteri
    (fun m mn ->
      let d = Topology.distance topo node mn in
      if d < !bestd then begin
        bestd := d;
        best := m
      end)
    p.nodes;
  !best

let avg_distance p topo =
  let total = ref 0 in
  let n = Topology.nodes topo in
  for node = 0 to n - 1 do
    let m = nearest p topo node in
    total := !total + Topology.distance topo node p.nodes.(m)
  done;
  float_of_int !total /. float_of_int n
