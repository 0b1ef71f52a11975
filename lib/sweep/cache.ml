module Json = Obs.Json

let code_version =
  let v = ref None in
  fun () ->
    match !v with
    | Some s -> s
    | None ->
      let s =
        match Sys.getenv_opt "OFFCHIP_SWEEP_CODEVERSION" with
        | Some s when s <> "" -> s
        | _ -> (
          try Digest.to_hex (Digest.file Sys.executable_name)
          with Sys_error _ -> "unknown")
      in
      v := Some s;
      s

let key job =
  let identity =
    Json.Obj
      [
        ("identity", Spec.job_identity job);
        ("code_version", Json.String (code_version ()));
      ]
  in
  Digest.to_hex (Digest.string (Json.to_string ~minify:true identity))

let cache_dir dir = Filename.concat dir "cache"

let path ~dir key = Filename.concat (cache_dir dir) (key ^ ".json")

let find ~dir key = Result.to_option (Json.of_file (path ~dir key))

let rec mkdir_p d =
  if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let ensure ~dir = mkdir_p (cache_dir dir)

let store ~dir key doc =
  mkdir_p (cache_dir dir);
  match Json.to_file (path ~dir key) doc with
  | Ok () -> ()
  | Error e -> raise (Sys_error e)
