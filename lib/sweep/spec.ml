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

let rec map_result f = function
  | [] -> Ok []
  | x :: tl ->
    let* y = f x in
    let* ys = map_result f tl in
    Ok (y :: ys)

(* typed field access with spec-relative error messages *)
let field name j = Json.member name j

let opt_field decode ~default name j =
  match field name j with
  | None -> Ok default
  | Some v -> decode (Printf.sprintf "field %S" name) v

let int_of ctx = function
  | Json.Int i -> Ok i
  | _ -> Error (ctx ^ " must be an integer")

let float_of ctx = function
  | Json.Float f -> Ok f
  | Json.Int i -> Ok (float_of_int i)
  | _ -> Error (ctx ^ " must be a number")

let bool_of ctx = function
  | Json.Bool b -> Ok b
  | _ -> Error (ctx ^ " must be a boolean")

let string_of ctx = function
  | Json.String s -> Ok s
  | _ -> Error (ctx ^ " must be a string")

let list_of decode ctx = function
  | Json.List l -> map_result (decode ctx) l
  | _ -> Error (ctx ^ " must be a list")

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
    let* seed = opt_field int_of ~default:0 "seed" j in
    let* restarts =
      opt_field int_of
        ~default:Core.Place_search.default_params.Core.Place_search.restarts
        "restarts" j
    in
    let* pool_name = opt_field string_of ~default:"perimeter" "pool" j in
    let* pool =
      Result.map_error
        (fun e -> ctx ^ ": " ^ e)
        (Noc.Placement.pool_of_string pool_name)
    in
    let* pressure = opt_field float_of ~default:1.0 "pressure" j in
    Ok (Some ({ Core.Place_search.pool; seed; restarts }, pressure))
  | _ -> Error (ctx ^ " must be a boolean or an object")

(* a misspelt or retired key is an error, not silently ignored *)
let check_known ~what known fields =
  match List.find_opt (fun (k, _) -> not (List.mem k known)) fields with
  | Some (k, _) -> Error (Printf.sprintf "unknown %s field %S" what k)
  | None -> Ok ()

let config_of_json ~default_seed ~index j =
  match j with
  | Json.Obj fields ->
    let* () =
      check_known ~what:"config"
        [ "name"; "platform"; "scaled"; "l2"; "interleave"; "policy";
          "mapping"; "tpc"; "optimal"; "seed"; "search" ]
        fields
    in
    let* name =
      opt_field string_of ~default:(Printf.sprintf "cfg%d" index) "name" j
    in
    let ctx = Printf.sprintf "config %S" name in
    let str k d = opt_field string_of ~default:d k j in
    let* platform = str "platform" "" in
    let* scaled = opt_field bool_of ~default:true "scaled" j in
    let* l2 = str "l2" "private" in
    (* "" keeps the platform's own interleaving and mapping (line and
       M1 on the default platform) *)
    let* interleave = str "interleave" "" in
    let* policy = str "policy" "hardware" in
    let* mapping = str "mapping" "" in
    let* tpc = opt_field int_of ~default:1 "tpc" j in
    let* optimal = opt_field bool_of ~default:false "optimal" j in
    let* seed = opt_field int_of ~default:default_seed "seed" j in
    let* search = opt_field (fun ctx j -> search_of ctx j) ~default:None "search" j in
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
        | Ok o ->
          Ok (Sim.Config.with_platform config o.Core.Place_search.platform))
    in
    Ok (name, config)
  | _ -> Error "each entry of \"configs\" must be an object"

let of_json j =
  match j with
  | Json.Obj fields ->
    let* () =
      check_known ~what:"sweep"
        [ "name"; "seed"; "apps"; "optimized"; "timeout_s"; "retries";
          "configs" ]
        fields
    in
    let* name = opt_field string_of ~default:"sweep" "name" j in
    let* default_seed = opt_field int_of ~default:0 "seed" j in
    let* apps =
      match field "apps" j with
      | None -> Error "spec lacks the required \"apps\" list"
      | Some v -> list_of string_of "\"apps\"" v
    in
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
      opt_field (list_of bool_of) ~default:[ false; true ] "optimized" j
    in
    let* () =
      if optimized = [] then Error "\"optimized\" must be non-empty" else Ok ()
    in
    let* timeout_s = opt_field float_of ~default:300. "timeout_s" j in
    let* retries = opt_field int_of ~default:2 "retries" j in
    let* () =
      if timeout_s <= 0. then Error "\"timeout_s\" must be positive"
      else if retries < 0 then Error "\"retries\" must be >= 0"
      else Ok ()
    in
    let* configs =
      match field "configs" j with
      | None ->
        let* c = config_of_json ~default_seed ~index:0 (Json.Obj []) in
        Ok [ (match c with name, cfg -> (name, cfg)) ]
      | Some (Json.List l) ->
        let* cs =
          map_result
            (fun (i, cj) -> config_of_json ~default_seed ~index:i cj)
            (List.mapi (fun i cj -> (i, cj)) l)
        in
        if cs = [] then Error "\"configs\" must be non-empty" else Ok cs
      | Some _ -> Error "\"configs\" must be a list"
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
  | _ -> Error "a sweep spec must be a JSON object"

let load path =
  let* text =
    try
      let ic = open_in_bin path in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      Ok s
    with Sys_error e -> Error e
  in
  let* j = Result.map_error (fun e -> path ^ ": " ^ e) (Json.of_string text) in
  Result.map_error (fun e -> path ^ ": " ^ e) (of_json j)

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
