module Json = Obs.Json

type report = {
  manifest : Manifest.t;
  ran : int;
  merged : Obs.Json.t option;
}

let ( let* ) = Result.bind

let merge_results ~out (m : Manifest.t) =
  let completed =
    Array.to_list m.Manifest.entries
    |> List.filter (fun (e : Manifest.entry) ->
           match e.Manifest.status with
           | Manifest.Ok | Manifest.Cached -> true
           | _ -> false)
  in
  let* docs =
    List.fold_left
      (fun acc (e : Manifest.entry) ->
        let* acc = acc in
        match Cache.find ~dir:out e.Manifest.key with
        | Some doc -> Ok ((e, doc) :: acc)
        | None ->
          Error
            (Printf.sprintf "missing or corrupt result %s for job %s"
               (Cache.path ~dir:out e.Manifest.key)
               e.Manifest.id))
      (Ok []) completed
  in
  let docs = List.rev docs in
  let* merged_metrics =
    List.fold_left
      (fun acc ((e : Manifest.entry), doc) ->
        let* acc = acc in
        let* snap =
          match Option.bind (Json.member "stats" doc) (Json.member "metrics") with
          | Some mj -> Obs.Metrics.snapshot_of_json mj
          | None -> Error ("result of " ^ e.Manifest.id ^ " lacks stats.metrics")
        in
        Ok
          (match acc with
          | None -> Some snap
          | Some prev -> Some (Obs.Metrics.merge prev snap)))
      (Ok None) docs
  in
  let job_row ((e : Manifest.entry), doc) =
    Json.obj
      [
        ("id", Json.String e.Manifest.id);
        ( "measured_time",
          match Json.member "measured_time" doc with
          | Some v -> v
          | None -> Json.Null );
      ]
  in
  Ok
    (Json.obj
       [
         ("sweep", Json.String m.Manifest.sweep);
         ("completed", Json.Int (List.length docs));
         ( "failed",
           Json.Int
             (Array.fold_left
                (fun n (e : Manifest.entry) ->
                  match e.Manifest.status with
                  | Manifest.Failed _ -> n + 1
                  | _ -> n)
                0 m.Manifest.entries) );
         ("jobs", Json.list job_row docs);
         ( "metrics",
           match merged_metrics with
           | Some s -> Obs.Metrics.to_json s
           | None -> Json.Null );
       ])

let write_merged ~out doc =
  let final = Filename.concat out "merged.json" in
  match Json.to_file final doc with
  | Ok () -> final
  | Error e -> raise (Sys_error e)

let run_sweep ?(workers = 4) ?timeout_s ?retries ?(backoff_s = 0.5)
    ?(force = false) ?inject_fail ?(log = fun _ -> ())
    ?(progress = Obs.Progress.null) ~out (spec : Spec.t) =
  let timeout_s = Option.value timeout_s ~default:spec.Spec.timeout_s in
  let retries = Option.value retries ~default:spec.Spec.retries in
  Cache.ensure ~dir:out;
  let jobs = spec.Spec.jobs in
  let n = Array.length jobs in
  let keys = Array.map Cache.key jobs in
  let entries =
    Array.init n (fun i ->
        let cached = (not force) && Cache.find ~dir:out keys.(i) <> None in
        {
          Manifest.id = jobs.(i).Spec.id;
          key = keys.(i);
          status = (if cached then Manifest.Cached else Manifest.Pending);
          attempts = 0;
          wall_ms = 0.;
        })
  in
  let manifest () =
    {
      Manifest.sweep = spec.Spec.name;
      code_version = Cache.code_version ();
      entries;
    }
  in
  Manifest.store ~dir:out (manifest ());
  let to_run =
    Array.of_list
      (List.filter
         (fun i -> entries.(i).Manifest.status = Manifest.Pending)
         (List.init n (fun i -> i)))
  in
  let injected id =
    match inject_fail with
    | Some s when s <> "" ->
      (* substring match on the job id *)
      let ls = String.length s and li = String.length id in
      let rec at o = o + ls <= li && (String.sub id o ls = s || at (o + 1)) in
      at 0
    | _ -> false
  in
  let f k =
    let job = jobs.(to_run.(k)) in
    if injected job.Spec.id then
      if workers > 0 then Stdlib.exit 1
      else Error "injected failure"
    else begin
      let t0 = Unix.gettimeofday () in
      let doc = Exec.run_job job in
      Cache.store ~dir:out keys.(to_run.(k)) doc;
      let wall_ms = 1000. *. (Unix.gettimeofday () -. t0) in
      Ok (Json.to_string ~minify:true (Json.obj [ ("wall_ms", Json.Float wall_ms) ]))
    end
  in
  let started_at = Unix.gettimeofday () in
  Obs.Progress.emit progress
    (Json.obj
       [
         ("event", Json.String "sweep_start");
         ("sweep", Json.String spec.Spec.name);
         ("jobs", Json.Int n);
         ("to_run", Json.Int (Array.length to_run));
         ("cached", Json.Int (n - Array.length to_run));
         ("workers", Json.Int workers);
       ]);
  let resolved = ref 0 in
  let on_outcome k outcome =
    let i = to_run.(k) in
    let e = entries.(i) in
    (match outcome with
    | Pool.Completed { attempts; payload } ->
      let wall_ms =
        match Result.map (Json.member "wall_ms") (Json.of_string payload) with
        | Ok (Some (Json.Float f)) -> f
        | Ok (Some (Json.Int ms)) -> float_of_int ms
        | _ -> 0.
      in
      entries.(i) <- { e with Manifest.status = Manifest.Ok; attempts; wall_ms }
    | Pool.Failed { attempts; reason } ->
      entries.(i) <-
        { e with Manifest.status = Manifest.Failed reason; attempts });
    incr resolved;
    Manifest.store ~dir:out (manifest ());
    (* ETA from elapsed wall time per resolved job — parallelism folds in
       naturally since elapsed time is shared across workers *)
    let remaining = Array.length to_run - !resolved in
    let eta_s =
      (Unix.gettimeofday () -. started_at)
      /. float_of_int !resolved *. float_of_int remaining
    in
    (* per-job metric snapshot: the headline number of the stored result *)
    let measured_time =
      match entries.(i).Manifest.status with
      | Manifest.Ok -> (
        match
          Option.bind (Cache.find ~dir:out keys.(i))
            (Json.member "measured_time")
        with
        | Some (Json.Int t) -> [ ("measured_time", Json.Int t) ]
        | _ -> [])
      | _ -> []
    in
    Obs.Progress.emit progress
      (Json.obj
         ([
            ("event", Json.String "job_finish");
            ("job", Json.String jobs.(i).Spec.id);
            ( "status",
              Json.String
                (match entries.(i).Manifest.status with
                | Manifest.Failed _ -> "failed"
                | s -> Manifest.status_string s) );
            ("attempts", Json.Int entries.(i).Manifest.attempts);
            ("wall_ms", Json.Float entries.(i).Manifest.wall_ms);
            ("resolved", Json.Int !resolved);
            ("remaining", Json.Int remaining);
            ("eta_s", Json.Float eta_s);
          ]
         @ measured_time
         @
         match entries.(i).Manifest.status with
         | Manifest.Failed r -> [ ("reason", Json.String r) ]
         | _ -> []));
    log
      (Printf.sprintf "[%d/%d] %s: %s" !resolved (Array.length to_run)
         jobs.(i).Spec.id
         (match entries.(i).Manifest.status with
         | Manifest.Failed r -> "FAILED (" ^ r ^ ")"
         | s -> Manifest.status_string s))
  in
  let on_event (ev : Pool.event) =
    Obs.Progress.emit progress
      (match ev with
      | Pool.Started { job; attempt } ->
        Json.obj
          [
            ("event", Json.String "job_start");
            ("job", Json.String jobs.(to_run.(job)).Spec.id);
            ("attempt", Json.Int attempt);
          ]
      | Pool.Retrying { job; attempt; reason } ->
        Json.obj
          [
            ("event", Json.String "job_retry");
            ("job", Json.String jobs.(to_run.(job)).Spec.id);
            ("attempt", Json.Int attempt);
            ("reason", Json.String reason);
          ])
  in
  if Array.length to_run > 0 then
    ignore
      (Pool.run ~workers ~timeout_s ~retries ~backoff_s ~on_outcome ~on_event
         ~jobs:(Array.length to_run) f);
  let m = manifest () in
  Manifest.store ~dir:out m;
  let merged =
    match merge_results ~out m with
    | Ok doc ->
      ignore (write_merged ~out doc);
      Some doc
    | Error e ->
      log ("merge: " ^ e);
      None
  in
  let count st =
    Array.fold_left
      (fun acc (e : Manifest.entry) -> if st e.Manifest.status then acc + 1 else acc)
      0 entries
  in
  Obs.Progress.emit progress
    (Json.obj
       [
         ("event", Json.String "sweep_done");
         ("sweep", Json.String spec.Spec.name);
         ("ok", Json.Int (count (fun s -> s = Manifest.Ok)));
         ("cached", Json.Int (count (fun s -> s = Manifest.Cached)));
         ( "failed",
           Json.Int
             (count (function Manifest.Failed _ -> true | _ -> false)) );
         ("merged", Json.Bool (merged <> None));
         ("elapsed_s", Json.Float (Unix.gettimeofday () -. started_at));
       ]);
  { manifest = m; ran = Array.length to_run; merged }
