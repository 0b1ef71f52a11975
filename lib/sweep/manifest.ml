module Json = Obs.Json

type status = Pending | Ok | Cached | Failed of string

type entry = {
  id : string;
  key : string;
  status : status;
  attempts : int;
  wall_ms : float;
}

type t = { sweep : string; code_version : string; entries : entry array }

let status_string = function
  | Pending -> "pending"
  | Ok -> "ok"
  | Cached -> "cached"
  | Failed _ -> "failed"

let entry_to_json e =
  Json.obj
    [
      ("id", Json.String e.id);
      ("key", Json.String e.key);
      ("status", Json.String (status_string e.status));
      ( "error",
        match e.status with Failed r -> Json.String r | _ -> Json.Null );
      ("attempts", Json.Int e.attempts);
      ("wall_ms", Json.Float e.wall_ms);
      ("result", Json.String (Filename.concat "cache" (e.key ^ ".json")));
    ]

let to_json t =
  let ok, cached, failed, pending =
    Array.fold_left
      (fun (a, b, c, d) e ->
        match e.status with
        | Ok -> (a + 1, b, c, d)
        | Cached -> (a, b + 1, c, d)
        | Failed _ -> (a, b, c + 1, d)
        | Pending -> (a, b, c, d + 1))
      (0, 0, 0, 0) t.entries
  in
  Json.obj
    [
      ("sweep", Json.String t.sweep);
      ("code_version", Json.String t.code_version);
      ("jobs", Json.array entry_to_json t.entries);
      ( "summary",
        Json.obj
          [
            ("total", Json.Int (Array.length t.entries));
            ("ok", Json.Int ok);
            ("cached", Json.Int cached);
            ("failed", Json.Int failed);
            ("pending", Json.Int pending);
          ] );
    ]

let summary t =
  let ok, cached, failed, pending =
    Array.fold_left
      (fun (a, b, c, d) e ->
        match e.status with
        | Ok -> (a + 1, b, c, d)
        | Cached -> (a, b + 1, c, d)
        | Failed _ -> (a, b, c + 1, d)
        | Pending -> (a, b, c, d + 1))
      (0, 0, 0, 0) t.entries
  in
  (ok, cached, failed, pending)

let ( let* ) = Result.bind

module D = Json.Decode

(* machine-written: unknown keys are ignored, so ledgers of other
   versions still load *)
let entry_of_json _ j =
  let* id = D.field "id" D.string j in
  let* key = D.field "key" D.string j in
  let* status = D.field "status" D.string j in
  let* status =
    match status with
    | "pending" -> Stdlib.Ok Pending
    | "ok" -> Stdlib.Ok Ok
    | "cached" -> Stdlib.Ok Cached
    | "failed" ->
      (* the reason is advisory: a null or malformed one is empty *)
      Stdlib.Ok (Failed (Result.value (D.field ~default:"" "error" D.string j) ~default:""))
    | s -> Stdlib.Error ("unknown status " ^ s)
  in
  let* attempts = D.field "attempts" D.int j in
  let wall_ms = Result.value (D.field ~default:0. "wall_ms" D.float j) ~default:0. in
  Stdlib.Ok { id; key; status; attempts; wall_ms }

let of_json j =
  Result.map_error (fun e -> "manifest: " ^ e)
  @@
  let* sweep = D.field "sweep" D.string j in
  let* code_version = D.field "code_version" D.string j in
  let* entries = D.field "jobs" (D.list entry_of_json) j in
  Stdlib.Ok { sweep; code_version; entries = Array.of_list entries }

let path ~dir = Filename.concat dir "manifest.json"

let store ~dir t =
  match Json.to_file (path ~dir) (to_json t) with
  | Ok () -> ()
  | Error e -> raise (Sys_error e)

let load ~dir = Json.decode_file (path ~dir) of_json
