module Json = Obs.Json

type policy = Sim.Config.page_policy = Hardware | First_touch | Mc_aware

type t = {
  name : string;
  platform : string;
  policy : policy;
  mix : string list;
  tenants : int;
  arrival_mean : int;
  duration : int option;
  threads_per_tenant : int;
  seed : int;
  optimized : bool;
  frames_per_mc : int option;
}

let policy_of_string = function
  | "interleaved" | "hardware" -> Ok Hardware
  | "first-touch" -> Ok First_touch
  | "mc-aware" -> Ok Mc_aware
  | s ->
    Error
      (Printf.sprintf
         "unknown policy %S (expected interleaved, first-touch or mc-aware)" s)

let policy_to_string = function
  | Hardware -> "interleaved"
  | First_touch -> "first-touch"
  | Mc_aware -> "mc-aware"

let smoke ?(policy = Mc_aware) ?(seed = 0) () =
  {
    name = "smoke";
    platform = "";
    policy;
    mix = [ "minimd"; "gafort" ];
    tenants = 4;
    arrival_mean = 20000;
    duration = None;
    threads_per_tenant = 32;
    seed;
    optimized = true;
    frames_per_mc = None;
  }

let validate t =
  let ( let* ) = Result.bind in
  let* () = if t.mix = [] then Error "scenario: empty tenant mix" else Ok () in
  let* () =
    match
      List.find_opt
        (fun a -> not (List.mem a Workloads.Suite.names))
        t.mix
    with
    | Some a ->
      Error
        (Printf.sprintf "scenario: unknown application %S in mix (known: %s)" a
           (String.concat ", " Workloads.Suite.names))
    | None -> Ok ()
  in
  let* () =
    if t.tenants < 1 then
      Error (Printf.sprintf "scenario: tenants must be >= 1 (got %d)" t.tenants)
    else Ok ()
  in
  let* () =
    if t.arrival_mean < 1 then
      Error
        (Printf.sprintf "scenario: arrival_mean must be >= 1 cycle (got %d)"
           t.arrival_mean)
    else Ok ()
  in
  let* () =
    if t.threads_per_tenant < 1 then
      Error
        (Printf.sprintf "scenario: threads_per_tenant must be >= 1 (got %d)"
           t.threads_per_tenant)
    else Ok ()
  in
  let* () =
    match t.duration with
    | Some d when d < 0 ->
      Error (Printf.sprintf "scenario: duration must be >= 0 (got %d)" d)
    | _ -> Ok ()
  in
  let* () =
    match t.frames_per_mc with
    | Some f when f < 1 ->
      Error (Printf.sprintf "scenario: frames_per_mc must be >= 1 (got %d)" f)
    | _ -> Ok ()
  in
  Ok t

let of_json doc =
  let ( let* ) = Result.bind in
  let module D = Json.Decode in
  let decoded =
    let* () =
      D.known_fields ~what:"scenario"
        [ "name"; "platform"; "policy"; "mix"; "tenants"; "arrival_mean";
          "duration"; "threads_per_tenant"; "seed"; "optimized"; "frames_per_mc" ]
        doc
    in
    (* null is an absent optional bound *)
    let opt_int name =
      D.field ~default:None name
        (fun ctx -> function
          | Json.Null -> Ok None
          | v -> Result.map Option.some (D.int ctx v))
        doc
    in
    let* name = D.field ~default:"scenario" "name" D.string doc in
    let* platform = D.field ~default:"" "platform" D.string doc in
    let* policy =
      Result.bind (D.field ~default:"mc-aware" "policy" D.string doc) policy_of_string
    in
    let* mix = D.field "mix" (D.list D.string) doc in
    let* tenants = D.field ~default:4 "tenants" D.int doc in
    let* arrival_mean = D.field ~default:20000 "arrival_mean" D.int doc in
    let* duration = opt_int "duration" in
    let* threads_per_tenant = D.field ~default:32 "threads_per_tenant" D.int doc in
    let* seed = D.field ~default:0 "seed" D.int doc in
    let* optimized = D.field ~default:true "optimized" D.bool doc in
    let* frames_per_mc = opt_int "frames_per_mc" in
    Ok
      {
        name;
        platform;
        policy;
        mix;
        tenants;
        arrival_mean;
        duration;
        threads_per_tenant;
        seed;
        optimized;
        frames_per_mc;
      }
  in
  Result.bind (Result.map_error (fun e -> "scenario: " ^ e) decoded) validate

let to_json t =
  Json.obj
    ([
       ("name", Json.String t.name);
       ("platform", Json.String t.platform);
       ("policy", Json.String (policy_to_string t.policy));
       ("mix", Json.list (fun s -> Json.String s) t.mix);
       ("tenants", Json.Int t.tenants);
       ("arrival_mean", Json.Int t.arrival_mean);
     ]
    @ (match t.duration with
      | Some d -> [ ("duration", Json.Int d) ]
      | None -> [])
    @ [
        ("threads_per_tenant", Json.Int t.threads_per_tenant);
        ("seed", Json.Int t.seed);
        ("optimized", Json.Bool t.optimized);
      ]
    @
    match t.frames_per_mc with
    | Some f -> [ ("frames_per_mc", Json.Int f) ]
    | None -> [])

let config t =
  let ( let* ) = Result.bind in
  (* page interleaving: the only granularity where placement policies
     exist *)
  let* cfg =
    Sim.Config.build ~scaled:true ~platform:t.platform ~interleave:"page"
      ~seed:t.seed ()
  in
  let cfg = { cfg with Sim.Config.page_policy = t.policy } in
  Ok
    (match t.frames_per_mc with
    | Some frames_per_mc -> { cfg with Sim.Config.frames_per_mc }
    | None -> cfg)
