(* In-memory spans around the benchmark's calls into each layer.

   A span records a layer name, its start and end (host seconds), the
   span that was open when it started, and the operation it belongs to.
   Spans are kept only while [enabled] is set (the traced passes); the
   untraced passes pay one branch per call.  [to_json] dumps them when
   the run ends. *)

type span = {
  id : int;
  name : string;
  start : float;
  stop : float;
  parent : int;  (** id of the enclosing span, -1 at top level *)
  words : float;  (** words allocated on the minor heap of this domain *)
  op : string;  (** id of the operation the span belongs to *)
}

let enabled = ref false
let finished : span list ref = ref []
let next_id = ref 0
let open_ids : int list ref = ref []
let current_op = ref ""
let origin = Unix.gettimeofday ()

let with_span name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_ids with p :: _ -> p | [] -> -1 in
    open_ids := id :: !open_ids;
    let words0 = Gc.minor_words () in
    let start = Unix.gettimeofday () in
    Fun.protect f ~finally:(fun () ->
        let stop = Unix.gettimeofday () in
        let words = Gc.minor_words () -. words0 in
        open_ids := List.tl !open_ids;
        finished :=
          { id; name; start; stop; parent; words; op = !current_op }
          :: !finished)
  end

let all () = List.sort (fun a b -> compare a.id b.id) !finished
let duration s = s.stop -. s.start

(* Self time of every span: its duration minus the part its direct
   children cover (children never overlap: calls are sequential). *)
let self_times spans =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (duration s
          +. Option.value ~default:0. (Hashtbl.find_opt child s.parent)))
    spans;
  List.map
    (fun s ->
      (s, duration s -. Option.value ~default:0. (Hashtbl.find_opt child s.id)))
    spans

(* Summed self time of the spans with this name. *)
let self_total spans name =
  List.fold_left
    (fun acc (s, self) -> if s.name = name then acc +. self else acc)
    0. (self_times spans)

(* Smallest share of a [root]-named span's time that its children cover. *)
let min_coverage spans ~root =
  List.fold_left
    (fun acc (s, self) ->
      if s.name = root && duration s > 0. then
        Float.min acc (1. -. (self /. duration s))
      else acc)
    1. (self_times spans)

let to_json spans =
  Obs.Json.list
    (fun s ->
      Obs.Json.obj
        [
          ("id", Obs.Json.Int s.id);
          ("name", Obs.Json.String s.name);
          ("op", Obs.Json.String s.op);
          ("parent", Obs.Json.Int s.parent);
          ("start_s", Obs.Json.Float (s.start -. origin));
          ("end_s", Obs.Json.Float (s.stop -. origin));
        ])
    spans
