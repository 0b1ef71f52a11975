module Json = Obs.Json

type job = {
  id : string;
  config : Sim.Config.t;
  app : string;
  optimized : bool;
}

type t = {
  name : string;
  jobs : job array;
  timeout_s : float;
  retries : int;
}

let ( let* ) = Result.bind

module D = Json.Decode

(* "search": run the deterministic placement search and substitute the
   searched machine for the config's platform.  [true] uses the default
   parameters; an object can pin {"seed", "pool", "restarts", "pressure"}
   (pressure = the cost model's bank pressure, default 1.0).  The cache
   identity stays sound: the searched placement's *name* embeds a digest
   of its sites, so jobs on different searched machines never collide. *)
let search_of ctx = function
  | Json.Bool false -> Ok None
  | Json.Bool true -> Ok (Some (Core.Place_search.default_params, 1.0))
  | Json.Obj _ as j ->
    let* () =
      D.known_fields ~what:"search" [ "seed"; "pool"; "restarts"; "pressure" ] j
    in
    let* seed = D.field ~default:0 "seed" D.int j in
    let* restarts =
      D.field
        ~default:Core.Place_search.default_params.Core.Place_search.restarts
        "restarts" D.int j
    in
    let* () =
      if restarts < 0 then Error (ctx ^ ": \"restarts\" must be >= 0")
      else Ok ()
    in
    let* pool_name = D.field ~default:"perimeter" "pool" D.string j in
    let* pool =
      Result.map_error
        (fun e -> ctx ^ ": " ^ e)
        (Noc.Placement.pool_of_string pool_name)
    in
    let* pressure = D.field ~default:1.0 "pressure" D.float j in
    let* pressure =
      Result.map_error
        (fun e -> ctx ^ ": \"pressure\": " ^ e)
        (Core.Mapping_select.check_pressure pressure)
    in
    Ok (Some ({ Core.Place_search.pool; seed; restarts }, pressure))
  | _ -> Error (ctx ^ " must be a boolean or an object")

let config_of_json ~default_seed ~index j =
  let* () =
    D.known_fields ~what:"config"
      [ "name"; "platform"; "scaled"; "l2"; "interleave"; "policy";
        "mapping"; "tpc"; "optimal"; "seed"; "search" ]
      j
  in
  let* name = D.field ~default:(Printf.sprintf "cfg%d" index) "name" D.string j in
  let ctx = Printf.sprintf "config %S" name in
  let str k default = D.field ~default k D.string j in
  let* platform = str "platform" "" in
  let* scaled = D.field ~default:true "scaled" D.bool j in
  let* l2 = str "l2" "private" in
  (* "" keeps the platform's own interleaving and mapping (line and
     M1 on the default platform) *)
  let* interleave = str "interleave" "" in
  let* policy = str "policy" "hardware" in
  let* mapping = str "mapping" "" in
  let* tpc = D.field ~default:1 "tpc" D.int j in
  let* optimal = D.field ~default:false "optimal" D.bool j in
  let* seed = D.field ~default:default_seed "seed" D.int j in
  let* search = D.field ~default:None "search" search_of j in
  let* config =
    Result.map_error
      (fun e -> ctx ^ ": " ^ e)
      (Sim.Config.build ~scaled ~platform ~l2 ~interleave ~policy ~mapping
         ~tpc ~optimal ~seed ())
  in
  let* config =
    match search with
    | None -> Ok config
    | Some (params, bank_pressure) -> (
      match
        Core.Place_search.search ~params ~bank_pressure
          (Sim.Config.platform config)
      with
      | Error e -> Error (ctx ^ ": search: " ^ e)
      | Ok o -> Ok (Sim.Config.with_platform config o.Core.Place_search.platform))
  in
  Ok (name, config)

let of_json j =
  let* () =
    D.known_fields ~what:"sweep"
      [ "name"; "seed"; "apps"; "optimized"; "timeout_s"; "retries"; "configs" ]
      j
  in
  let* name = D.field ~default:"sweep" "name" D.string j in
  let* default_seed = D.field ~default:0 "seed" D.int j in
  let* apps = D.field "apps" (D.list D.string) j in
  let* () = if apps = [] then Error "\"apps\" must be non-empty" else Ok () in
  let* () =
    match
      List.find_opt (fun a -> not (List.mem a Workloads.Suite.names)) apps
    with
    | Some a ->
      Error
        (Printf.sprintf "unknown application %S (known: %s)" a
           (String.concat ", " Workloads.Suite.names))
    | None -> Ok ()
  in
  let* optimized =
    D.field ~default:[ false; true ] "optimized" (D.list D.bool) j
  in
  let* () =
    if optimized = [] then Error "\"optimized\" must be non-empty" else Ok ()
  in
  let* timeout_s = D.field ~default:300. "timeout_s" D.float j in
  let* retries = D.field ~default:2 "retries" D.int j in
  let* () =
    if timeout_s <= 0. then Error "\"timeout_s\" must be positive"
    else if retries < 0 then Error "\"retries\" must be >= 0"
    else Ok ()
  in
  let* configs =
    (* a config's default name is its position in the list *)
    let config acc cj =
      let* cs = acc in
      let* c = config_of_json ~default_seed ~index:(List.length cs) cj in
      Ok (c :: cs)
    in
    let* configs =
      D.field ~default:[ Json.Obj [] ] "configs" (D.list (fun _ cj -> Ok cj)) j
    in
    let* cs = List.fold_left config (Ok []) configs in
    if cs = [] then Error "\"configs\" must be non-empty" else Ok (List.rev cs)
  in
  let jobs =
    List.concat_map
      (fun (config_name, config) ->
        List.concat_map
          (fun app ->
            List.map
              (fun opt ->
                {
                  id =
                    Printf.sprintf "%s/%s/%s" config_name app
                      (if opt then "opt" else "orig");
                  config;
                  app;
                  optimized = opt;
                })
              optimized)
          apps)
      configs
  in
  Ok { name; jobs = Array.of_list jobs; timeout_s; retries }

let load path = Json.decode_file path of_json

(* [Config.to_json] is the result documents' config summary: it names the
   placement and cluster but omits their geometry, the NoC and the DRAM
   timing, so the identity adds those explicitly *)
let job_identity job =
  let cfg = job.config in
  let ints l = Json.list (fun v -> Json.Int v) l in
  let { Noc.Network.per_hop_latency; link_bytes } = cfg.Sim.Config.noc in
  let { Dram.Timing.row_hit; row_empty; row_conflict; burst } = cfg.Sim.Config.timing in
  Json.obj
    [
      ("config", Sim.Config.to_json cfg);
      ("platform", Core.Platform.to_json (Sim.Config.platform cfg));
      ("noc", ints [ per_hop_latency; link_bytes ]);
      ("timing", ints [ row_hit; row_empty; row_conflict; burst ]);
      ("app", Json.String job.app);
      ("optimized", Json.Bool job.optimized);
    ]
