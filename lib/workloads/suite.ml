let all =
  [
    Wupwise.app;
    Swim.app;
    Mgrid.app;
    Applu.app;
    Galgel.app;
    Apsi.app;
    Gafort.app;
    Fma3d.app;
    Art.app;
    Ammp.app;
    Hpccg.app;
    Minighost.app;
    Minimd.app;
  ]

(* The 13 fixed apps, plus the generated tiled-GEMM family by spec name.
   [all] deliberately excludes gemm: every figure of the paper iterates
   the fixed suite. *)
let names = List.map (fun (a : App.t) -> a.App.name) all

let by_name_result name =
  match List.find_opt (fun (a : App.t) -> String.equal a.App.name name) all with
  | Some a -> Ok a
  | None -> (
    match Gemm.of_name name with
    | Some r -> r
    | None ->
      Error
        (Printf.sprintf "unknown application %S (known: %s)" name
           (String.concat ", " names)))

let by_name name =
  match by_name_result name with Ok a -> a | Error e -> invalid_arg e
