type t = {
  name : string;
  width : int;
  height : int;
  cx : int;
  cy : int;
  nx : int;
  ny : int;
  k : int;
}

let make_result ~name ~width ~height ~cx ~cy ~k =
  if cx <= 0 || cy <= 0 || k <= 0 then Error "Cluster.make"
  else if width mod cx <> 0 || height mod cy <> 0 then
    Error "Cluster.make: clusters must tile the mesh evenly"
  else Ok { name; width; height; cx; cy; nx = width / cx; ny = height / cy; k }

let num_clusters c = c.cx * c.cy

let num_mcs c = num_clusters c * c.k

let num_cores c = c.width * c.height

let cores_per_cluster c = c.nx * c.ny

let cluster_of_coord c (p : Noc.Coord.t) = ((p.x / c.nx) * c.cy) + (p.y / c.ny)

let cluster_of_node c topo n = cluster_of_coord c (Noc.Topology.coord_of_node topo n)

let mcs_of_cluster c j = List.init c.k (fun i -> (j * c.k) + i)

let cluster_of_mc c m = m / c.k

(* Thread t decomposes as t = ((Cx·nx + x_in)·cy + Cy)·ny + y_in, matching
   the strip-mining order of R(r_v). *)
let node_of_thread c topo t =
  let y_in = t mod c.ny in
  let cyi = t / c.ny mod c.cy in
  let x_in = t / (c.ny * c.cy) mod c.nx in
  let cxi = t / (c.ny * c.cy * c.nx) mod c.cx in
  Noc.Topology.node_of_coord topo
    (Noc.Coord.make ((cxi * c.nx) + x_in) ((cyi * c.ny) + y_in))

let thread_of_node c topo n =
  let p = Noc.Topology.coord_of_node topo n in
  let cxi = p.x / c.nx and x_in = p.x mod c.nx in
  let cyi = p.y / c.ny and y_in = p.y mod c.ny in
  ((((cxi * c.nx) + x_in) * c.cy + cyi) * c.ny) + y_in

let centroid_of_cluster c j =
  let cxi = j / c.cy and cyi = j mod c.cy in
  Noc.Coord.make ((cxi * c.nx) + (c.nx / 2)) ((cyi * c.ny) + (c.ny / 2))

let m1 ~width ~height = make_result ~name:"M1" ~width ~height ~cx:2 ~cy:2 ~k:1

let m2 ~width ~height = make_result ~name:"M2" ~width ~height ~cx:2 ~cy:1 ~k:2

let with_mcs_result ~width ~height ~mcs =
  (* as square a cluster grid as evenly tiles the mesh; a split [d]
     past the width cannot divide it *)
  let rec best_split d best =
    if d > mcs || d > width then best
    else
      let ok = mcs mod d = 0 && width mod d = 0 && height mod (mcs / d) = 0 in
      let score = abs (d - (mcs / d)) in
      let best =
        match best with
        | Some (_, s) when s <= score -> best
        | _ -> if ok then Some (d, score) else best
      in
      best_split (d + 1) best
  in
  match best_split 1 None with
  | None -> Error "Cluster.with_mcs: no even tiling"
  | Some (cx, _) ->
    make_result ~name:(Printf.sprintf "M1x%d" mcs) ~width ~height ~cx
      ~cy:(mcs / cx) ~k:1

let pp ppf c =
  Format.fprintf ppf "%s: %dx%d mesh, %dx%d clusters of %dx%d cores, k=%d"
    c.name c.width c.height c.cx c.cy c.nx c.ny c.k
