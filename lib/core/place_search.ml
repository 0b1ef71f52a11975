(* Deterministic local search over the joint platform space: MC site sets
   (from a Noc.Placement pool) x cluster shapes x controller counts under
   the MC budget.  The objective is the calibrated mapping cost model; the
   simulator stays the validation oracle (see EXPERIMENTS.md).

   Determinism is load-bearing: the same seed must emit a byte-identical
   platform JSON on every OCaml version CI runs, so randomness comes from
   a hand-rolled LCG (Random.State's algorithm changed between 4.x and
   5.x) and every enumeration (starts, neighborhoods, tie-breaks) has a
   fixed order. *)

type params = {
  pool : Noc.Placement.pool;
  seed : int;
  restarts : int;  (** random starts per cluster shape, beyond the preset *)
}

let default_params = { pool = Noc.Placement.Perimeter; seed = 0; restarts = 3 }

type outcome = {
  platform : Platform.t;
  cost : float;
  preset_best : Mapping_select.scored;
  scored_presets : Mapping_select.scored list;
  trajectory : string list;
  evaluations : int;
}

(* --- seeded PRNG -------------------------------------------------------- *)

(* The 48-bit lrand48 LCG; the state mask keeps it non-negative (and well
   inside OCaml's 63-bit int on every platform), so [mod] below never
   sees a negative operand. *)
let lcg_next st =
  st := ((!st * 0x5DEECE66D) + 0xB) land 0xFFFFFFFFFFFF;
  !st

(* discard the weak low-order bits *)
let rand_below st n = lcg_next st lsr 16 mod n

(* A uniformly random [n]-subset of [pool] via a partial Fisher-Yates
   shuffle of the index array. *)
let random_subset st ~pool ~n =
  let len = Array.length pool in
  let idx = Array.init len Fun.id in
  for i = 0 to n - 1 do
    let j = i + rand_below st (len - i) in
    let t = idx.(i) in
    idx.(i) <- idx.(j);
    idx.(j) <- t
  done;
  Array.init n (fun i -> pool.(idx.(i)))

(* --- identity ----------------------------------------------------------- *)

(* Short deterministic digest of cluster geometry + ordered sites.  The
   sweep cache and [Sim.Config.to_json] identify a placement by *name*
   only, so a searched placement's name must pin down its sites. *)
let digest (cluster : Cluster.t) sites =
  let h = ref 5381 in
  let add v = h := ((!h * 33) + v) land 0xFFFFFF in
  add cluster.Cluster.cx;
  add cluster.Cluster.cy;
  add cluster.Cluster.k;
  Array.iter
    (fun (c : Noc.Coord.t) ->
      add c.Noc.Coord.x;
      add c.Noc.Coord.y)
    sites;
  Printf.sprintf "%06x" !h

let compare_sites a b =
  let n = Array.length a and m = Array.length b in
  if n <> m then compare n m
  else
    let rec go i =
      if i = n then 0
      else
        let c = compare (a.(i).Noc.Coord.x, a.(i).Noc.Coord.y)
                  (b.(i).Noc.Coord.x, b.(i).Noc.Coord.y) in
        if c <> 0 then c else go (i + 1)
    in
    go 0

(* --- descent ------------------------------------------------------------ *)

let centroids_of cluster =
  Array.init (Cluster.num_mcs cluster) (fun m ->
      Cluster.centroid_of_cluster cluster (Cluster.cluster_of_mc cluster m))

let cost_of topo table ~bank_pressure ~evaluations sites =
  incr evaluations;
  match Noc.Placement.of_coords_result topo "search" sites with
  | Error _ -> infinity
  | Ok p -> Mapping_select.cost table p ~bank_pressure

(* Best-improvement descent: evaluate the full neighborhood, take the
   strictly cheapest successor (first in enumeration order on ties), stop
   at a local minimum.  [table] is the cluster shape's distance sums,
   shared by every start of that shape. *)
let descend topo table ~pool_sites ~bank_pressure ~evaluations ~trajectory
    ~label sites0 =
  let cost s = cost_of topo table ~bank_pressure ~evaluations s in
  let sites = ref sites0 and current = ref (cost sites0) in
  trajectory := Printf.sprintf "%s: start cost=%.1f" label !current :: !trajectory;
  let improved = ref true in
  while !improved do
    improved := false;
    let best = ref None in
    List.iter
      (fun move ->
        match Noc.Placement.apply_move_result topo ~sites:!sites move with
        | Error _ -> ()
        | Ok next ->
          let c = cost next in
          let better =
            match !best with None -> c < !current -. 1e-9 | Some (bc, _, _) -> c < bc -. 1e-9
          in
          if better then best := Some (c, next, move))
      (Noc.Placement.neighborhood_on topo ~pool:pool_sites ~sites:!sites);
    match !best with
    | Some (c, next, move) ->
      sites := next;
      current := c;
      improved := true;
      trajectory :=
        Format.asprintf "%s: %a cost=%.1f" label Noc.Placement.pp_move move c
        :: !trajectory
    | None -> ()
  done;
  (!sites, !current)

(* --- search ------------------------------------------------------------- *)

let coords_of_placement topo (p : Noc.Placement.t) =
  Array.map (Noc.Topology.coord_of_node topo) p.Noc.Placement.nodes

let search ?(params = default_params) ~bank_pressure (base : Platform.t) =
  let topo = base.Platform.topo in
  let presets = Platform.candidates base in
  let scored_presets =
    Mapping_select.score topo
      ~candidates:
        (List.map
           (fun (p : Platform.t) -> (p.Platform.cluster, p.Platform.placement))
           presets)
      ~bank_pressure
  in
  match scored_presets with
  | [] -> Error "Place_search: platform admits no candidates"
  | preset_best :: _ ->
    let pool_sites = Noc.Placement.pool_sites topo params.pool in
    let evaluations = ref 0 in
    let trajectory = ref [] in
    let st = ref ((params.seed lxor 0x5DEECE66D) land 0xFFFFFFFFFFFF) in
    let best = ref None in
    let consider cluster sites cost =
      let replace =
        match !best with
        | None -> true
        | Some (bc, (bcl : Cluster.t), bs) ->
          cost < bc -. 1e-9
          || (Float.abs (cost -. bc) <= 1e-9
              && (compare cluster.Cluster.name bcl.Cluster.name, compare_sites sites bs)
                 < (0, 0))
      in
      if replace then best := Some (cost, cluster, sites)
    in
    List.iter
      (fun (p : Platform.t) ->
        let cluster = p.Platform.cluster in
        let n = Cluster.num_mcs cluster in
        let centroids = centroids_of cluster in
        let table = Mapping_select.table topo cluster in
        (* start 0: the preset's own placement — the searched minimum can
           therefore never exceed the preset minimum *)
        let preset_sites = coords_of_placement topo p.Platform.placement in
        let starts = ref [ ("preset " ^ p.Platform.placement.Noc.Placement.name, preset_sites) ] in
        if Array.length pool_sites >= n then
          for r = 1 to params.restarts do
            let subset = random_subset st ~pool:pool_sites ~n in
            (* order the random subset against the cluster centroids so the
               MC-index <-> cluster-index correspondence starts sensible *)
            match
              Noc.Placement.assign_result topo ~name:"restart" ~sites:subset
                ~centroids
            with
            | Error _ -> ()
            | Ok pl ->
              starts :=
                (Printf.sprintf "restart %d" r, coords_of_placement topo pl)
                :: !starts
          done;
        List.iter
          (fun (start_name, sites0) ->
            let label =
              Printf.sprintf "%s/%s" cluster.Cluster.name start_name
            in
            let sites, cost =
              descend topo table ~pool_sites ~bank_pressure ~evaluations
                ~trajectory ~label sites0
            in
            consider cluster sites cost)
          (List.rev !starts))
      presets;
    (match !best with
     | None -> Error "Place_search: no feasible placement found"
     | Some (cost, cluster, sites) ->
       let tag = digest cluster sites in
       let placement_name = Printf.sprintf "searched-%s" tag in
       (match Noc.Placement.of_coords_result topo placement_name sites with
        | Error e -> Error e
        | Ok placement ->
          (match
             Platform.make_result ~placement
               ~interleaving:base.Platform.interleaving
               ~line_bytes:base.Platform.line_bytes
               ~page_bytes:base.Platform.page_bytes
               ~elem_bytes:base.Platform.elem_bytes
               ~banks_per_mc:base.Platform.banks_per_mc
               ~channels_per_mc:base.Platform.channels_per_mc
               ~name:(Printf.sprintf "%s-searched-%s" base.Platform.name tag)
               ~topo ~cluster ()
           with
           | Error e -> Error e
           | Ok platform ->
             Ok
               {
                 platform;
                 cost;
                 preset_best;
                 scored_presets;
                 trajectory = List.rev !trajectory;
                 evaluations = !evaluations;
               })))
