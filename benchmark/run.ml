(* The repository benchmark.

     run.exe --workload NAME --seed N --seconds S --trace 0|1 [--quick]
     run.exe [--seed N] [--seconds S] [--trace 0|1] [--quick]

   With --workload, one workload runs in this process.  Its set-up is
   timed in batches spread over the run; its operations run in passes
   until --seconds is spent.  An operation's time is its fastest repeat,
   and wall_s sums them: the host time of one quiet pass.  Every repeat
   must produce a byte-identical result document; at seed 0 each document
   must also match benchmark/expected/seed0.json.  The last line of
   standard output is one JSON object holding the end-to-end metrics
   (--trace 0) or the per-layer metrics (--trace 1).

   Without --workload, every workload runs in its own child process, one
   at a time (with --trace 1, once untraced and once traced), and the last
   line gathers their results.

   Exit codes: 0 all outputs correct, 1 a check failed, 2 bad usage. *)

module Json = Obs.Json
module W = Workload
module L = Layers

let now = Unix.gettimeofday

(* --- command line ------------------------------------------------------ *)

let workload = ref ""
let seed = ref 0
let seconds = ref 16
let trace = ref 0
let quick = ref false
let record = ref ""
let expected = "benchmark/expected/seed0.json"

let specs =
  [
    ( "--workload",
      Arg.Set_string workload,
      "NAME one of " ^ String.concat ", " W.names
      ^ " (default: each, in a child)" );
    ("--seed", Arg.Set_int seed, "N input seed (default 0)");
    ("--seconds", Arg.Set_int seconds, "S measuring time per run (default 16)");
    ("--trace", Arg.Set_int trace, "0|1 1 reports the per-layer metrics");
    ("--quick", Arg.Set quick, " one app on a small machine, one pass");
    ("--record", Arg.Set_string record, "FILE write this run's digests there");
  ]

let fastest xs = List.fold_left Float.min infinity xs

let first_line s =
  match String.index_opt s '\n' with Some i -> String.sub s 0 i | None -> s

(* Peak resident set of this process, or the OCaml heap's high-water mark
   where /proc is unavailable. *)
let peak_heap_mb () =
  let vm_hwm () =
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec find () =
          match In_channel.input_line ic with
          | None -> None
          | Some line -> (
            match Scanf.sscanf_opt line "VmHWM: %d kB" Fun.id with
            | Some kb -> Some (float_of_int kb /. 1024.)
            | None -> find ())
        in
        find ())
  in
  match vm_hwm () with
  | Some mb -> mb
  | None | (exception Sys_error _) ->
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.

(* Set-up is timed in batches of about 2 ms, enough for the microsecond
   clock to resolve even the shortest set-up: one call sizes the batch,
   and each call of the returned thunk times one batch, per set-up. *)
let setup_batch f =
  let t0 = now () in
  f ();
  let once = now () -. t0 in
  let batch = max 1 (min 1000 (int_of_float (0.002 /. Float.max once 1e-7))) in
  fun () ->
    let t0 = now () in
    for _ = 1 to batch do
      f ()
    done;
    (now () -. t0) /. float_of_int batch

(* --- digests ----------------------------------------------------------- *)

let read_json path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> Result.to_option (Json.of_string s)
  | exception Sys_error _ -> None

let write_record path name digests =
  let others =
    match read_json path with
    | Some (Json.Obj fields) -> List.remove_assoc name fields
    | _ -> []
  in
  let entry =
    Json.obj (List.map (fun (op, d) -> (op, Json.String d)) digests)
  in
  let fields = List.sort compare ((name, entry) :: others) in
  Out_channel.with_open_bin path (fun oc ->
      Json.to_channel oc (Json.obj fields))

let expected_digest name id =
  match Option.bind (read_json expected) (Json.member name) with
  | None -> Error ("no expected digests for " ^ name ^ " in " ^ expected)
  | Some doc -> (
    match Json.member id doc with
    | Some (Json.String d) -> Ok d
    | _ -> Ok "none")

(* --- one workload ------------------------------------------------------ *)

type sample = { traced : bool; op : string; secs : float }

let run_workload (w : W.t) =
  let traced_run = !trace = 1 in
  let ops = ref [] in
  let setup =
    setup_batch (fun () -> ops := w.W.setup ~seed:!seed ~quick:!quick)
  in
  (* batches before the first pass and after every pass sample the run *)
  let setups = ref (List.init 3 (fun _ -> setup ())) in
  let ops = !ops in
  let samples = ref [] and attempted = ref 0 and failed = ref 0 in
  let violations = ref [] in
  let violate msg =
    if not (List.mem msg !violations) then begin
      prerr_endline ("benchmark: " ^ w.W.name ^ ": " ^ msg);
      violations := msg :: !violations
    end
  in
  let digests = Hashtbl.create 16 and latest = Hashtbl.create 16 in
  let pass_phases = ref [] and first_pass_peak = ref nan in
  let pass = ref 0 and t_start = now () in
  let more () =
    let elapsed = now () -. t_start in
    (* traced runs alternate untraced and traced passes *)
    !pass < (if traced_run then 2 else 1)
    || (not !quick)
       && elapsed +. (elapsed /. float_of_int !pass) <= float_of_int !seconds
  in
  while more () do
    let traced = traced_run && !pass mod 2 = 1 in
    Spans.enabled := traced;
    let phases = ref [] in
    List.iter
      (fun (op : W.op) ->
        incr attempted;
        Gc.full_major ();
        Spans.current_op := op.W.id;
        let t0 = now () in
        match Spans.with_span "op" op.W.run with
        | o ->
          samples := { traced; op = op.W.id; secs = now () -. t0 } :: !samples;
          let d = Digest.to_hex (Digest.string o.W.doc) in
          (match Hashtbl.find_opt digests op.W.id with
          | Some d0 when d0 <> d ->
            violate (op.W.id ^ ": result document differs between repeats")
          | _ -> Hashtbl.replace digests op.W.id d);
          Hashtbl.replace latest op.W.id o;
          (match o.W.result with
          | W.Compiled r ->
            phases := Obs.Phase_timer.phases r.Core.Pipeline.timer @ !phases
          | _ -> ());
          if traced then Option.iter L.attribute_prepare op.W.input
        | exception e ->
          incr failed;
          let msg = match e with W.Failed s -> s | e -> Printexc.to_string e in
          prerr_endline
            (Printf.sprintf "benchmark: %s: %s failed: %s" w.W.name op.W.id
               (first_line msg)))
      ops;
    Spans.enabled := false;
    pass_phases :=
      List.map
        (fun p -> (p, L.sum (fun (q, s) -> if q = p then s else 0.) !phases))
        L.pipeline_passes
      :: !pass_phases;
    setups := setup () :: !setups;
    (* the peak of one pass; later passes add only allocator slack *)
    if !pass = 0 then first_pass_peak := peak_heap_mb ();
    incr pass
  done;
  let outcomes =
    List.filter_map
      (fun (op : W.op) ->
        Option.map (fun o -> (op.W.id, o)) (Hashtbl.find_opt latest op.W.id))
      ops
  in
  List.iter violate (w.W.check outcomes);
  if !seed = 0 && (not !quick) && !record = "" then
    List.iter
      (fun (id, _) ->
        match expected_digest w.W.name id with
        | Error e -> violate e
        | Ok want ->
          let got = Hashtbl.find digests id in
          if got <> want then
            violate
              (Printf.sprintf "%s: result digest %s, expected %s" id got want))
      outcomes;
  if !record <> "" then
    write_record !record w.W.name
      (List.map (fun (id, _) -> (id, Hashtbl.find digests id)) outcomes);
  let times ~traced (op : W.op) =
    List.filter_map
      (fun s ->
        if s.op = op.W.id && s.traced = traced then Some s.secs else None)
      !samples
  in
  let wall ~traced =
    L.sum
      (fun op -> match times ~traced op with [] -> 0. | xs -> fastest xs)
      ops
  in
  Printf.printf "%s seed %d: %d operations, %d passes, %d samples, %d failed\n"
    w.W.name !seed (List.length ops) !pass !attempted !failed;
  List.iter
    (fun op ->
      let xs = times ~traced:false op in
      Printf.printf "  %-20s fastest %.4f s of %d: %s\n" op.W.id (fastest xs)
        (List.length xs)
        (String.concat " " (List.rev_map (Printf.sprintf "%.4f") xs)))
    ops;
  let metrics =
    if not traced_run then
      [
        L.m "wall_s" "s" (wall ~traced:false);
        L.m "setup_s" "s" (fastest !setups);
        L.m "peak_heap_mb" "MB" !first_pass_peak;
      ]
    else begin
      let spans = Spans.all () in
      let out =
        Printf.sprintf "benchmark/out/spans-%s-seed%d.json" w.W.name !seed
      in
      (try
         if not (Sys.file_exists "benchmark/out") then
           Sys.mkdir "benchmark/out" 0o755;
         Out_channel.with_open_bin out (fun oc ->
             Json.to_channel oc (Spans.to_json spans))
       with Sys_error e ->
         prerr_endline ("benchmark: spans not written: " ^ e));
      L.metrics
        {
          L.spans;
          traced_passes = !pass / 2;
          inputs = List.filter_map (fun (op : W.op) -> op.W.input) ops;
          outcomes;
          pass_phases = !pass_phases;
          wall_s = wall ~traced:false;
          traced_wall_s = wall ~traced:true;
        }
    end
  in
  List.iter
    (fun x -> Printf.printf "  %-40s %14.6g %s\n" x.L.name x.L.value x.L.unit_)
    metrics;
  let correct = !violations = [] && !failed = 0 in
  print_endline
    (Json.to_string ~minify:true
       (Json.obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int !attempted);
            ("failed", Json.Int !failed);
            ( "metrics",
              Json.obj
                (List.map
                   (fun x ->
                     ( x.L.name,
                       Json.obj
                         [
                           ("value", Json.Float x.L.value);
                           ("unit", Json.String x.L.unit_);
                         ] ))
                   metrics) );
          ]));
  if correct then 0 else 1

(* --- every workload, one child process each ---------------------------- *)

let child name ~trace =
  let args =
    [
      Sys.executable_name; "--workload"; name; "--seed"; string_of_int !seed;
      "--seconds"; string_of_int !seconds; "--trace"; string_of_int trace;
    ]
    @ if !quick then [ "--quick" ] else []
  in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name (Array.of_list args) Unix.stdin wr
      Unix.stderr
  in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let out = In_channel.input_all ic in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  let last =
    let lines = List.filter (( <> ) "") (String.split_on_char '\n' out) in
    match List.rev lines with
    | l :: _ -> l
    | [] -> ""
  in
  match (status, Json.of_string last) with
  | Unix.WEXITED 0, Ok doc -> (true, doc)
  | _, Ok doc -> (false, doc)
  | _, Error _ -> (false, Json.obj [ ("error", Json.String "no result") ])

let run_all () =
  let number path doc =
    let field d k = Option.bind d (Json.member k) in
    match List.fold_left field (Some doc) path with
    | Some (Json.Float f) -> f
    | Some (Json.Int i) -> float_of_int i
    | _ -> nan
  in
  Printf.printf "%-16s %10s %12s %13s %8s %7s %s\n" "workload" "wall_s"
    "setup_s" "peak_heap_mb" "samples" "failed" "correct";
  let rows =
    List.map
      (fun name ->
        let ok, doc = child name ~trace:0 in
        let value k = number [ "metrics"; k; "value" ] doc in
        Printf.printf "%-16s %10.4f %12.3e %13.1f %8.0f %7.0f %b\n%!" name
          (value "wall_s") (value "setup_s") (value "peak_heap_mb")
          (number [ "attempted" ] doc) (number [ "failed" ] doc) ok;
        let traced_ok, traced =
          if !trace = 1 then
            let ok, doc = child name ~trace:1 in
            (ok, [ ("traced", doc) ])
          else (true, [])
        in
        (ok && traced_ok, (name, Json.obj (("untraced", doc) :: traced))))
      W.names
  in
  print_endline
    (Json.to_string ~minify:true
       (Json.obj
          [
            ("seed", Json.Int !seed);
            ("seconds", Json.Int !seconds);
            ("quick", Json.Bool !quick);
            ("workloads", Json.obj (List.map snd rows));
          ]));
  if List.for_all fst rows then 0 else 1

let () =
  Arg.parse specs
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "run.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
     [--quick]";
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "run.exe: --trace takes 0 or 1";
    exit 2
  end;
  if !workload = "" then exit (run_all ())
  else
    match W.find !workload with
    | Some w -> exit (run_workload w)
    | None ->
      prerr_endline
        ("run.exe: unknown workload " ^ !workload ^ " (known: "
        ^ String.concat ", " W.names ^ ")");
      exit 2
