type config = { per_hop_latency : int; link_bytes : int }

let default_config = { per_hop_latency = 4; link_bytes = 16 }

type t = {
  topo : Topology.t;
  config : config;
  nodes : int;
  free_at : int array;  (** per link-id: earliest cycle it can accept *)
  link_busy : int array;  (** per link-id: cycles reserved so far *)
  routes : int array array;
      (** memoized XY routes as link-id arrays, indexed [src·nodes + dst];
          a pair is computed from the topology once, on first use ([||]
          marks an unfilled slot — every src ≠ dst route has ≥ 1 link) *)
  hier : bool;  (** the topology has ≥ 2 chiplets *)
  cross : bool array;  (** per link-id: crosses a chiplet boundary *)
  chip_latency : int;  (** per-hop latency of a crossing link *)
  chip_bytes : int;  (** width of a crossing link *)
  mutable busy : int;
}

let create ?(config = default_config) topo =
  let links = Topology.num_link_ids topo in
  let nodes = Topology.nodes topo in
  let hier = Topology.num_chiplets topo > 1 in
  let cross =
    if not hier then [||]
    else begin
      (* classify every in-mesh directed link once; boundary links keep
         false — they are never on a route *)
      let a = Array.make links false in
      for n = 0 to nodes - 1 do
        let c = Topology.coord_of_node topo n in
        List.iter
          (fun dir ->
            let valid =
              match (dir : Topology.dir) with
              | Topology.East -> c.Coord.x < topo.Topology.width - 1
              | Topology.West -> c.Coord.x > 0
              | Topology.South -> c.Coord.y < topo.Topology.height - 1
              | Topology.North -> c.Coord.y > 0
            in
            if valid then begin
              let l = { Topology.from_node = n; dir } in
              a.(Topology.link_id topo l) <-
                Topology.link_crosses_chiplet topo l
            end)
          [ Topology.East; Topology.West; Topology.North; Topology.South ]
      done;
      a
    end
  in
  let chip_latency, chip_bytes =
    match topo.Topology.chiplets with
    | Some c when hier -> (c.Topology.link_latency, c.Topology.link_bytes)
    | _ -> (config.per_hop_latency, config.link_bytes)
  in
  {
    topo;
    config;
    nodes;
    free_at = Array.make links 0;
    link_busy = Array.make links 0;
    routes = Array.make (nodes * nodes) [||];
    hier;
    cross;
    chip_latency;
    chip_bytes;
    busy = 0;
  }

let route net ~src ~dst =
  let idx = (src * net.nodes) + dst in
  let r = net.routes.(idx) in
  if Array.length r > 0 then r
  else begin
    let r = Topology.link_ids net.topo ~src ~dst in
    net.routes.(idx) <- r;
    r
  end

(* Arrival time only — the allocation-free variant the simulator's event
   loop uses (hop counts are Manhattan distances the caller can memoize;
   the contention component is derivable from the arrival time).  On a
   hierarchical topology, links that cross a chiplet boundary charge
   their own latency and serialize over their own (narrower) width; the
   flat path is untouched. *)
let transfer ?on_hop net ~now ~src ~dst ~bytes =
  if src = dst then now
  else begin
    let serialization =
      Int.max 1 ((bytes + net.config.link_bytes - 1) / net.config.link_bytes)
    in
    let ser_cross =
      if net.hier then Int.max 1 ((bytes + net.chip_bytes - 1) / net.chip_bytes)
      else serialization
    in
    let route = route net ~src ~dst in
    let t = ref now in
    let last_ser = ref serialization in
    for k = 0 to Array.length route - 1 do
      let id = Array.unsafe_get route k in
      let crossing = net.hier && Array.unsafe_get net.cross id in
      let ser = if crossing then ser_cross else serialization in
      let lat = if crossing then net.chip_latency else net.config.per_hop_latency in
      let start = Int.max !t net.free_at.(id) in
      net.free_at.(id) <- start + ser;
      net.link_busy.(id) <- net.link_busy.(id) + ser;
      net.busy <- net.busy + ser;
      t := start + lat;
      last_ser := ser;
      match on_hop with None -> () | Some f -> f ~link:id ~start ~finish:!t
    done;
    (* wormhole pipelining: header latency per hop, body flits pipeline
       behind it and arrive [serialization-1] cycles after the header
       (the serialization of the last — narrowest-relevant — link) *)
    !t + !last_ser - 1
  end

(* Unloaded latency of the (src, dst) route: the contention-free baseline
   [send] subtracts.  Flat meshes keep the closed form; hierarchical ones
   walk the memoized route so each link charges its class latency. *)
let unloaded net ~src ~dst ~serialization ~ser_cross =
  if not net.hier then
    (Topology.distance net.topo src dst * net.config.per_hop_latency)
    + serialization - 1
  else begin
    let route = route net ~src ~dst in
    let t = ref 0 in
    let last_ser = ref serialization in
    for k = 0 to Array.length route - 1 do
      let id = Array.unsafe_get route k in
      let crossing = Array.unsafe_get net.cross id in
      t := !t + (if crossing then net.chip_latency else net.config.per_hop_latency);
      last_ser := if crossing then ser_cross else serialization
    done;
    !t + !last_ser - 1
  end

let send ?on_hop net ~now ~src ~dst ~bytes =
  if src = dst then (now, 0, 0)
  else begin
    let serialization =
      Int.max 1 ((bytes + net.config.link_bytes - 1) / net.config.link_bytes)
    in
    let ser_cross =
      if net.hier then Int.max 1 ((bytes + net.chip_bytes - 1) / net.chip_bytes)
      else serialization
    in
    let t = transfer ?on_hop net ~now ~src ~dst ~bytes in
    let hops = Topology.distance net.topo src dst in
    let unloaded = unloaded net ~src ~dst ~serialization ~ser_cross in
    (t, hops, t - now - unloaded)
  end

let reset net =
  Array.fill net.free_at 0 (Array.length net.free_at) 0;
  Array.fill net.link_busy 0 (Array.length net.link_busy) 0;
  net.busy <- 0

let total_link_busy net = net.busy

let link_busy net = Array.copy net.link_busy

let utilization net ~at =
  let at = max 1 at in
  Array.map (fun b -> float_of_int b /. float_of_int at) net.link_busy
