type item =
  | Text of string
  | Pre of string
  | Table of { header : string list; rows : string list list }

type section = { title : string; items : item list }

let shades = [| ' '; '.'; ':'; '-'; '='; '+'; '*'; '#' |]

let bank_heat load =
  let vmax =
    Array.fold_left
      (fun acc row -> Array.fold_left max acc row)
      0 load
  in
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf
       "  bank pressure, peak %d accesses/bank (shades relative to peak)\n"
       vmax);
  Array.iteri
    (fun m row ->
      let cells =
        String.init (Array.length row) (fun b ->
            if vmax = 0 then shades.(0)
            else
              (* [row.(b) * 7 / vmax] in floats: the product cannot
                 overflow, and below 2^53 it is exact *)
              shades.(int_of_float
                        (float_of_int row.(b)
                        *. float_of_int (Array.length shades - 1)
                        /. float_of_int vmax)))
      in
      Buffer.add_string buf
        (Printf.sprintf "  mc%-2d |%s| %d\n" m cells
           (Array.fold_left ( + ) 0 row)))
    load;
  Buffer.contents buf

(* ---- stats-JSON access helpers ---- *)

let num_str = function
  | Json.Int n -> string_of_int n
  | Json.Float f -> Printf.sprintf "%.4g" f
  | v -> Json.to_string ~minify:true v

let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = sub then Some i
    else go (i + 1)
  in
  go 0

(* The C002 note's "(estimated cost: M1=12.3, M2=45.6)" tail, as rows. *)
let cost_rows msg =
  match find_sub msg "estimated cost: " with
  | None -> []
  | Some i ->
    let start = i + String.length "estimated cost: " in
    let stop =
      match String.index_from_opt msg start ')' with
      | Some j -> j
      | None -> String.length msg
    in
    String.sub msg start (stop - start)
    |> String.split_on_char ','
    |> List.filter_map (fun entry ->
           match String.split_on_char '=' (String.trim entry) with
           | [ name; cost ] -> Some [ name; cost ]
           | _ -> None)

(* Platform header: the machine the document came from — mesh geometry,
   hierarchy, mapping and placement, plus a short geometry digest so two
   reports can be compared at a glance.  Reads the embedded "config"
   object; documents without one (or without mesh dims) get no header. *)
let platform_section doc =
  match Json.member "config" doc with
  | Some (Json.Obj _ as cfg) -> (
    let int_of name =
      match Json.member name cfg with Some (Json.Int n) -> Some n | _ -> None
    in
    let str_of name =
      match Json.member name cfg with
      | Some (Json.String s) -> Some s
      | _ -> None
    in
    match (int_of "mesh_width", int_of "mesh_height") with
    | Some w, Some h ->
      let hier = Json.member "hierarchy" cfg in
      let hier_int j name =
        match Json.member name j with Some (Json.Int n) -> n | _ -> 0
      in
      let hier_text =
        match hier with
        | Some hj ->
          Printf.sprintf "%dx%d chiplets, inter-chiplet links %d cycles / %d B"
            (hier_int hj "chiplets_x") (hier_int hj "chiplets_y")
            (hier_int hj "link_latency") (hier_int hj "link_bytes")
        | None -> "flat (single die)"
      in
      let cluster = Option.value ~default:"?" (str_of "cluster") in
      let placement = Option.value ~default:"?" (str_of "placement") in
      let mcs = Option.value ~default:0 (int_of "num_mcs") in
      (* djb2 over the geometry fields, in the spirit of the placement
         search's site digest *)
      let dg = ref 5381 in
      let addi v = dg := ((!dg * 33) + v) land 0xFFFFFF in
      let adds s = String.iter (fun c -> addi (Char.code c)) s in
      addi w;
      addi h;
      addi mcs;
      adds cluster;
      adds placement;
      (match hier with
      | Some hj ->
        List.iter
          (fun n -> addi (hier_int hj n))
          [ "chiplets_x"; "chiplets_y"; "link_latency"; "link_bytes" ]
      | None -> ());
      [
        {
          title = "Platform";
          items =
            [
              Text
                (Printf.sprintf
                   "Machine: %dx%d mesh, mapping %s, placement %s, %d MCs" w h
                   cluster placement mcs);
              Text (Printf.sprintf "Hierarchy: %s" hier_text);
              Text (Printf.sprintf "Geometry digest: %06x" !dg);
            ];
        };
      ]
    | _ -> [])
  | _ -> []

let run_section ?metrics doc =
  let items = ref [] in
  let add i = items := i :: !items in
  (match Json.member "app" doc with
  | Some (Json.String a) -> add (Text (Printf.sprintf "Application: %s" a))
  | _ -> ());
  (match Json.member "measured_time" doc with
  | Some v -> add (Text (Printf.sprintf "Measured time: %s cycles" (num_str v)))
  | None -> ());
  (match metrics with
  | Some snap ->
    add
      (Table
         {
           header = [ "counter"; "value" ];
           rows =
             List.map
               (fun (n, v) -> [ n; string_of_int v ])
               snap.Metrics.counters;
         });
    if snap.Metrics.gauges <> [] then
      add
        (Table
           {
             header = [ "gauge"; "value" ];
             rows =
               List.map
                 (fun (n, v) -> [ n; Printf.sprintf "%.4g" v ])
                 snap.Metrics.gauges;
           })
  | None -> ());
  (match Option.bind (Json.member "stats" doc) (Json.member "derived") with
  | Some (Json.Obj kvs) ->
    add
      (Table
         {
           header = [ "derived"; "value" ];
           rows = List.map (fun (n, v) -> [ n; num_str v ]) kvs;
         })
  | _ -> ());
  { title = "Run"; items = List.rev !items }

let offchip_counter doc =
  match Option.bind (Json.member "stats" doc) (Json.member "metrics") with
  | Some m -> (
    match Metrics.snapshot_of_json m with
    | Ok snap -> List.assoc_opt "sim.offchip_accesses" snap.Metrics.counters
    | Error _ -> None)
  | None -> None

(* Consolidation-server documents carry "tenants" and "qos" sections;
   render the per-tenant QoS table and certify that the per-tenant
   off-chip split covers the engine's counter exactly. *)
let tenants_section doc =
  match Json.member "tenants" doc with
  | Some (Json.List (_ :: _ as tenants)) ->
    let str name t =
      match Json.member name t with
      | Some (Json.String s) -> s
      | Some v -> num_str v
      | None -> "-"
    in
    let int_of name t =
      match Json.member name t with Some (Json.Int n) -> n | _ -> 0
    in
    let rows =
      List.map
        (fun t ->
          [
            str "id" t;
            str "app" t;
            str "slot" t;
            str "arrival" t;
            str "queue_wait" t;
            str "completion_latency" t;
            str "slowdown" t;
            str "offchip_accesses" t;
            str "fallback_allocations" t;
          ])
        tenants
    in
    let total = List.fold_left (fun acc t -> acc + int_of "offchip_accesses" t) 0 tenants in
    let agree =
      match offchip_counter doc with
      | Some n when n = total ->
        Printf.sprintf
          "Per-tenant off-chip totals sum to %d — exactly the engine's \
           sim.offchip_accesses counter."
          total
      | Some n ->
        Printf.sprintf
          "Per-tenant off-chip totals sum to %d, but the engine counted %d \
           — the per-tenant split lost or double-counted accesses."
          total n
      | None -> Printf.sprintf "Per-tenant off-chip totals sum to %d." total
    in
    let qos_items =
      match Json.member "qos" doc with
      | Some (Json.Obj kvs) ->
        [
          Text
            (String.concat " | "
               (List.map (fun (n, v) -> Printf.sprintf "%s %s" n (num_str v)) kvs));
        ]
      | _ -> []
    in
    [
      {
        title = "Tenants";
        items =
          (Table
             {
               header =
                 [
                   "id";
                   "app";
                   "slot";
                   "arrival";
                   "queue wait";
                   "latency";
                   "slowdown";
                   "off-chip";
                   "fallbacks";
                 ];
               rows;
             }
          :: qos_items)
          @ [ Text agree ];
      };
    ]
  | _ -> []

let attribution_section doc =
  match Json.member "attribution" doc with
  | None -> Ok []
  | Some a -> (
    match Attr.of_json a with
    | Error e -> Error ("attribution: " ^ e)
    | Ok snap ->
      let total = Attr.snap_total snap in
      let agree =
        match offchip_counter doc with
        | Some n when n = total ->
          Printf.sprintf
            "Attributed %d off-chip accesses — exactly the engine's \
             sim.offchip_accesses counter."
            total
        | Some n ->
          Printf.sprintf
            "Attributed %d off-chip accesses, but the engine counted %d — \
             the cube lost or double-counted accesses."
            total n
        | None ->
          Printf.sprintf "Attributed %d off-chip accesses." total
      in
      Ok
        [
          {
            title = "Attribution";
            items =
              [
                Text agree;
                Pre (Format.asprintf "%a" Attr.pp_table snap);
                Pre (bank_heat (Attr.bank_load snap));
              ];
          };
        ])

let heatmap_section doc =
  match Json.member "heatmaps" doc with
  | Some (Json.Obj kvs) ->
    let items =
      List.concat_map
        (fun (name, v) ->
          match v with
          | Json.String s -> [ Text name; Pre s ]
          | _ -> [])
        kvs
    in
    if items = [] then [] else [ { title = "Heatmaps"; items } ]
  | _ -> []

let mapping_section diags =
  match diags with
  | Some (Json.List ds) -> (
    let msg_of code d =
      match (Json.member "code" d, Json.member "message" d) with
      | Some (Json.String c), Some (Json.String m) when c = code -> Some m
      | _ -> None
    in
    let items =
      (match List.find_map (msg_of "C002") ds with
      | Some m ->
        let rows = cost_rows m in
        Text m
        ::
        (if rows = [] then []
         else [ Table { header = [ "mapping"; "estimated cost" ]; rows } ])
      | None -> [])
      @ List.filter_map
          (fun d -> Option.map (fun m -> Text ("warning: " ^ m)) (msg_of "C003" d))
          ds
    in
    if items = [] then []
    else [ { title = "Mapping selection"; items } ])
  | _ -> []

(* The C004 notes: the placement-search summary as text, the trajectory
   (steps joined by " | ") as a preformatted block, one step per line. *)
let search_section diags =
  match diags with
  | Some (Json.List ds) ->
    let msg_of code d =
      match (Json.member "code" d, Json.member "message" d) with
      | Some (Json.String c), Some (Json.String m) when c = code -> Some m
      | _ -> None
    in
    let split_steps s =
      let sep = " | " in
      let rec go acc s =
        match find_sub s sep with
        | None -> List.rev (s :: acc)
        | Some i ->
          go
            (String.sub s 0 i :: acc)
            (String.sub s (i + String.length sep)
               (String.length s - i - String.length sep))
      in
      go [] s
    in
    let items =
      List.concat_map
        (fun m ->
          let prefix = "search trajectory: " in
          match find_sub m prefix with
          | Some 0 ->
            let body =
              String.sub m (String.length prefix)
                (String.length m - String.length prefix)
            in
            [ Text "Trajectory:"; Pre (String.concat "\n" (split_steps body)) ]
          | _ -> [ Text m ])
        (List.filter_map (msg_of "C004") ds)
    in
    if items = [] then [] else [ { title = "Placement search"; items } ]
  | _ -> []

let build ?diags doc =
  (* every stats document carries a "stats" object: a document without
     one is not a run's stats, whatever else it holds *)
  match Json.member "stats" doc with
  | Some (Json.Obj _ as stats) -> (
    match
      ( Option.map Metrics.snapshot_of_json (Json.member "metrics" stats),
        attribution_section doc )
    with
    | Some (Error e), _ | _, Error e -> Error e
    | metrics, Ok attribution ->
      let metrics = Option.map Result.get_ok metrics in
      Ok
        (platform_section doc
        @ (run_section ?metrics doc :: tenants_section doc)
        @ attribution @ heatmap_section doc @ mapping_section diags
        @ search_section diags))
  | Some _ -> Error "field \"stats\" must be an object"
  | None -> Error "missing field \"stats\""

(* ---- rendering ---- *)

let to_markdown ~title sections =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Printf.sprintf "# %s\n" title);
  List.iter
    (fun s ->
      Buffer.add_string buf (Printf.sprintf "\n## %s\n" s.title);
      List.iter
        (fun item ->
          Buffer.add_char buf '\n';
          match item with
          | Text t -> Buffer.add_string buf (t ^ "\n")
          | Pre p ->
            Buffer.add_string buf "```\n";
            Buffer.add_string buf p;
            if p <> "" && p.[String.length p - 1] <> '\n' then
              Buffer.add_char buf '\n';
            Buffer.add_string buf "```\n"
          | Table { header; rows } ->
            let row cells =
              Buffer.add_string buf ("| " ^ String.concat " | " cells ^ " |\n")
            in
            row header;
            row (List.map (fun _ -> "---") header);
            List.iter row rows)
        s.items)
    sections;
  Buffer.contents buf

let html_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '&' -> Buffer.add_string buf "&amp;"
      | '"' -> Buffer.add_string buf "&quot;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_html ~title sections =
  let buf = Buffer.create 8192 in
  Buffer.add_string buf
    (Printf.sprintf
       "<!DOCTYPE html>\n\
        <html><head><meta charset=\"utf-8\"><title>%s</title>\n\
        <style>\n\
        body { font-family: sans-serif; margin: 2em auto; max-width: 60em; }\n\
        pre { background: #f4f4f4; padding: 0.8em; overflow-x: auto; }\n\
        table { border-collapse: collapse; }\n\
        td, th { border: 1px solid #999; padding: 0.2em 0.6em; text-align: left; }\n\
        </style></head><body>\n\
        <h1>%s</h1>\n"
       (html_escape title) (html_escape title));
  List.iter
    (fun s ->
      Buffer.add_string buf
        (Printf.sprintf "<h2>%s</h2>\n" (html_escape s.title));
      List.iter
        (fun item ->
          match item with
          | Text t ->
            Buffer.add_string buf
              (Printf.sprintf "<p>%s</p>\n" (html_escape t))
          | Pre p ->
            Buffer.add_string buf
              (Printf.sprintf "<pre>%s</pre>\n" (html_escape p))
          | Table { header; rows } ->
            Buffer.add_string buf "<table>\n<tr>";
            List.iter
              (fun h ->
                Buffer.add_string buf
                  (Printf.sprintf "<th>%s</th>" (html_escape h)))
              header;
            Buffer.add_string buf "</tr>\n";
            List.iter
              (fun cells ->
                Buffer.add_string buf "<tr>";
                List.iter
                  (fun c ->
                    Buffer.add_string buf
                      (Printf.sprintf "<td>%s</td>" (html_escape c)))
                  cells;
                Buffer.add_string buf "</tr>\n")
              rows;
            Buffer.add_string buf "</table>\n")
        s.items)
    sections;
  Buffer.add_string buf "</body></html>\n";
  Buffer.contents buf
