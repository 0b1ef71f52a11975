(* Edge cases and smoke coverage for the smaller public surfaces:
   pretty-printers, file IO paths, argument validation, the platform
   renderer. *)

module Vec = Affine.Vec
module Matrix = Affine.Matrix

(* --- printers never raise and contain the essentials --- *)

let contains s sub = Astring.String.is_infix ~affix:sub s

let ok = function Ok v -> v | Error e -> failwith e

let parse src =
  match Lang.Parser.parse_result src with
  | Ok p -> p
  | Error _ -> Alcotest.fail "parse failed"

let test_pp_smoke () =
  let v = Vec.of_list [ 1; -2; 3 ] in
  Alcotest.(check string) "vec" "(1, -2, 3)" (Format.asprintf "%a" Vec.pp v);
  let m = Matrix.of_rows [ v; Vec.zero 3 ] in
  Alcotest.(check bool) "matrix mentions rows" true
    (contains (Format.asprintf "%a" Matrix.pp m) "(0, 0, 0)")

let test_cluster_pp () =
  let c = ok (Core.Cluster.m1 ~width:8 ~height:8) in
  let s = Format.asprintf "%a" Core.Cluster.pp c in
  Alcotest.(check bool) "mentions geometry" true (contains s "2x2 clusters")

let test_layout_pp () =
  let cfg = Sim.Config.customize_config (Sim.Config.scaled ()) in
  let layout =
    Core.Customize.customize cfg ~array:"A" ~extents:[| 64; 64 |]
      ~u:(Matrix.identity 2) ~v:0
  in
  let s = Format.asprintf "%a" Core.Layout.pp layout in
  Alcotest.(check bool) "mentions U" true (contains s "U =");
  Alcotest.(check bool) "mentions dims" true (contains s "dims")

let test_report_pp () =
  let cfg = Sim.Config.customize_config (Sim.Config.scaled ()) in
  let analysis =
    Lang.Analysis.analyze
      (parse
         {|
array A[64][64];
index I[8];
parfor i = 0 to 63 { for j = 0 to 63 { A[i][j] = 1; } }
|})
  in
  let report = Core.Transform.run cfg analysis in
  let s = Format.asprintf "%a" Core.Transform.pp_report report in
  Alcotest.(check bool) "optimized array listed" true (contains s "A: optimized");
  Alcotest.(check bool) "index array reason" true (contains s "index array")

let test_config_pp () =
  let s = Format.asprintf "%a" Sim.Config.pp (Sim.Config.default ()) in
  Alcotest.(check bool) "mesh size" true (contains s "mesh 8x8");
  Alcotest.(check bool) "interleaving" true (contains s "cache-line interleaved")

(* --- platform renderer --- *)

let test_platform_map () =
  let cfg = Sim.Config.scaled () in
  let s = Sim.Platform_map.render cfg in
  Alcotest.(check bool) "controller 0 marked" true (contains s "*0");
  Alcotest.(check bool) "controller 3 marked" true (contains s "*3");
  Alcotest.(check bool) "legend" true (contains s "cluster 0 -> controller(s) 0");
  (* every cluster digit appears *)
  List.iter
    (fun d -> Alcotest.(check bool) ("cluster " ^ d) true (contains s ("[ " ^ d ^ " ]")))
    [ "0"; "1"; "2"; "3" ]

let test_platform_heat () =
  let cfg = Sim.Config.scaled () in
  let values = Array.make 64 0 in
  values.(0) <- 100;
  let s = Sim.Platform_map.render_heat cfg values in
  Alcotest.(check bool) "hot corner" true (contains s "#");
  Alcotest.check_raises "size mismatch"
    (Invalid_argument "Platform_map.render_heat") (fun () ->
      ignore (Sim.Platform_map.render_heat cfg (Array.make 3 0)))

let test_codegen_emit () =
  let c =
    match
      Lang.Codegen.emit_result ~name:"t"
        (parse "array A[4];\nparfor i = 0 to 3 { A[i] = i; }")
    with
    | Ok c -> c
    | Error _ -> Alcotest.fail "codegen failed"
  in
  Alcotest.(check bool) "has run function" true (contains c "void run_t(void)")

(* --- argument validation --- *)

let test_validation () =
  Alcotest.check_raises "vec unit out of range" (Invalid_argument "Vec.unit")
    (fun () -> ignore (Vec.unit 3 5));
  Alcotest.check_raises "matrix mul mismatch" (Invalid_argument "Matrix.mul")
    (fun () -> ignore (Matrix.mul (Matrix.identity 2) (Matrix.identity 3)));
  Alcotest.check_raises "topology zero" (Invalid_argument "Topology.make")
    (fun () -> ignore (Noc.Topology.make ~width:0 ~height:4 ()));
  Alcotest.check_raises "fr_fcfs bad bank" (Invalid_argument "Fr_fcfs.enqueue")
    (fun () ->
      Dram.Fr_fcfs.enqueue (Dram.Fr_fcfs.create ~banks:2 ()) ~now:0 ~bank:7
        ~row:0 ~id:0 ());
  (* row -1 is the "no open row" sentinel: accepting it would charge a
     precharged bank a row hit *)
  Alcotest.check_raises "fr_fcfs negative row" (Invalid_argument "Fr_fcfs.enqueue")
    (fun () ->
      Dram.Fr_fcfs.enqueue (Dram.Fr_fcfs.create ~banks:2 ()) ~now:0 ~bank:0
        ~row:(-1) ~id:0 ());
  Alcotest.check_raises "interp bad threads"
    (Invalid_argument "Interp.trace: bad thread configuration") (fun () ->
      ignore
        (Lang.Interp.trace ~threads:3 ~threads_per_core:2
           ~addr_of:(fun _ -> Lang.Interp.Fn (fun _ -> 0))
           (parse "array A[4];\nparfor i = 0 to 3 { A[i] = i; }")));
  Alcotest.check_raises "complete_row non-primitive"
    (Invalid_argument "Unimodular.complete_row: not primitive") (fun () ->
      ignore (Affine.Unimodular.complete_row (Vec.of_list [ 2; 4 ]) ~v:0))

let test_check_domains () =
  List.iter
    (fun n ->
      match Cli.check_domains n with
      | Ok () -> Alcotest.failf "--domains %d must be rejected" n
      | Error e ->
        Alcotest.(check bool)
          (Printf.sprintf "one-line message for %d" n)
          true
          (e <> "" && not (String.contains e '\n')))
    [ 0; -1 ];
  List.iter
    (fun n ->
      Alcotest.(check bool)
        (Printf.sprintf "--domains %d accepted" n)
        true
        (Cli.check_domains n = Ok ()))
    [ 1; 8 ]

(* a bad flag is a user error, like every other bad input *)
let test_cli_eval () =
  let open Cmdliner in
  let cmd = Cmd.v (Cmd.info "t") Term.(const 7) in
  Alcotest.(check int) "the body's code" 7 (Cli.eval ~argv:[| "t" |] cmd);
  Alcotest.(check int) "unknown flag" Cli.user_error
    (Cli.eval ~argv:[| "t"; "--bogus" |] cmd)

(* --- access functions --- *)

let test_access_transform () =
  let acc =
    Affine.Access.make
      (Matrix.of_rows [ Vec.of_list [ 1; 0 ]; Vec.of_list [ 0; 2 ] ])
      (Vec.of_list [ 0; 1 ])
  in
  Alcotest.(check (list int)) "apply" [ 1; 5 ]
    (Array.to_list (Affine.Access.apply acc (Vec.of_list [ 1; 2 ])));
  let u = Matrix.of_rows [ Vec.of_list [ 0; 1 ]; Vec.of_list [ 1; 0 ] ] in
  let acc' = Affine.Access.transform u acc in
  (* the transformed reference touches the permuted element *)
  Alcotest.(check (list int)) "transformed apply" [ 5; 1 ]
    (Array.to_list (Affine.Access.apply acc' (Vec.of_list [ 1; 2 ])))

(* --- driver errors: exit 1 with one stderr line --- *)

(* runs a built driver next to this test binary; its exit code and its
   non-empty stderr lines *)
let run_driver exe args =
  let exe =
    Filename.concat (Filename.dirname Sys.executable_name) ("../bin/" ^ exe)
  in
  let err = Filename.temp_file "offchip-driver" ".err" in
  let fd = Unix.openfile err [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin null fd
  in
  Unix.close fd;
  Unix.close null;
  let _, status = Unix.waitpid [] pid in
  let lines =
    In_channel.with_open_bin err In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  Sys.remove err;
  ((match status with Unix.WEXITED c -> c | _ -> -1), lines)

let test_driver_one_line_errors () =
  let platform = Filename.temp_file "platform" ".json" in
  Out_channel.with_open_bin platform (fun oc ->
      output_string oc {|{"mesh_width": 64, "mesh_height": 65}|});
  List.iter
    (fun (exe, args) ->
      let what = String.concat " " (exe :: args) in
      match run_driver exe args with
      | 1, [ _ ] -> ()
      | code, lines ->
        Alcotest.failf "%s: exit %d with %d stderr lines (want exit 1, one line)"
          what code (List.length lines))
    [
      ("simulate.exe", [ "gemm-n0t8" ]);
      ("simulate.exe", [ "gemm-n64t0" ]);
      ("simulate.exe", [ "equake" ]);
      ("occ.exe", [ "--app"; "gemm-n0t8" ]);
      ("occ.exe", [ "--app"; "gemm-n64t0" ]);
      ("occ.exe", [ "--app"; "equake" ]);
      ("occ.exe", [ "--app"; "apsi"; "--platform"; "mesh40000x40000-mc4" ]);
      ("simulate.exe", [ "apsi"; "--platform"; "mesh64x65-mc4" ]);
      ("simulate.exe", [ "apsi"; "--platform"; platform ]);
    ];
  Sys.remove platform

(* --- file IO paths: occ reads a source file --- *)

let with_source src f =
  let path = Filename.temp_file "offchip" ".mc" in
  Out_channel.with_open_bin path (fun oc -> output_string oc src);
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let test_parse_file () =
  with_source "array A[4];\nparfor i = 0 to 3 { A[i] = i; }\n" (fun path ->
      match run_driver "occ.exe" [ path ] with
      | 0, [] -> ()
      | code, lines ->
        Alcotest.failf "occ %s: exit %d, %d stderr lines (want 0, none)" path
          code (List.length lines));
  (* a diagnostic is located in the file it was read from *)
  with_source "array A[4];\nparfor i = 0 to 3 { B[i] = i; }\n" (fun path ->
      match run_driver "occ.exe" [ path ] with
      | 1, first :: _ ->
        Alcotest.(check bool) "names file:line:col and the code" true
          (Astring.String.is_prefix ~affix:(path ^ ":2:21: error[S004]") first)
      | code, _ -> Alcotest.failf "occ %s: exit %d (want 1)" path code)

(* [src] fails occ with exit 1 and one error line, the diagnostic
   [code] located on line 1 of the file, with or without --emit *)
let check_located ~code ?(args = []) src =
  with_source src (fun path ->
      List.iter
        (fun emit ->
          let errors lines =
            List.filter (fun l -> Astring.String.is_infix ~affix:"error[" l) lines
          in
          match run_driver "occ.exe" ((path :: args) @ emit) with
          | 1, lines -> (
            match errors lines with
            | [ e ] ->
              Alcotest.(check bool)
                (src ^ ": located " ^ code)
                true
                (Astring.String.is_prefix ~affix:(path ^ ":1:") e
                && Astring.String.is_infix ~affix:("error[" ^ code ^ "]") e)
            | es ->
              Alcotest.failf "%s: %d error lines (want one)" src (List.length es))
          | status, _ -> Alcotest.failf "%s: exit %d (want 1)" src status)
        [ []; [ "--emit"; "ast" ] ])

(* a zero divisor in a constant is one located S009, with or without
   --emit, never an internal error *)
let test_zero_divisor_exit () =
  List.iter (check_located ~code:"S009")
    [
      "param N = 8; param Z = N/0;";
      "param N = 8; array A[N/0];";
      "param N = 8; array A[N]; parfor i = 0 to N/0 { A[i] = 1; }";
      "array A[8]; parfor i = 0 to 7 { for j = 0 to i/(i-i) { A[j] = 1; } }";
    ]

(* under the verifier's replay of the emitted C: a subscript divided by
   zero at run time is one located I002, a zero or negative extent one
   located S010 *)
let test_run_time_errors_exit () =
  let c = Filename.temp_file "offchip" ".c" in
  let args = [ "--verify"; "--emit-c"; c ] in
  check_located ~code:"I002" ~args
    "param N = 8; array A[N]; parfor i = 0 to N - 1 { A[i/(i-i)] = 1; }";
  check_located ~code:"S010" ~args "array A[-3]; parfor i = 0 to 2 { A[i] = 1; }";
  check_located ~code:"S010" ~args "array A[4][0]; parfor i = 0 to 2 { A[i][0] = 1; }";
  Sys.remove c

let test_parse_file_missing () =
  match run_driver "occ.exe" [ "/nonexistent/offchip.mc" ] with
  | 1, [ line ] ->
    Alcotest.(check bool) "names the file" true
      (Astring.String.is_infix ~affix:"/nonexistent/offchip.mc" line)
  | code, lines ->
    Alcotest.failf "exit %d with %d stderr lines (want exit 1, one line)" code
      (List.length lines)

let suite =
  [
    ( "misc",
      [
        Alcotest.test_case "printers" `Quick test_pp_smoke;
        Alcotest.test_case "cluster pp" `Quick test_cluster_pp;
        Alcotest.test_case "layout pp" `Quick test_layout_pp;
        Alcotest.test_case "report pp" `Quick test_report_pp;
        Alcotest.test_case "config pp" `Quick test_config_pp;
        Alcotest.test_case "platform map" `Quick test_platform_map;
        Alcotest.test_case "platform heat" `Quick test_platform_heat;
        Alcotest.test_case "codegen emit" `Quick test_codegen_emit;
        Alcotest.test_case "argument validation" `Quick test_validation;
        Alcotest.test_case "check_domains" `Quick test_check_domains;
        Alcotest.test_case "Cli.eval" `Quick test_cli_eval;
        Alcotest.test_case "access transform" `Quick test_access_transform;
        Alcotest.test_case "driver one-line errors" `Quick
          test_driver_one_line_errors;
        Alcotest.test_case "parse_file" `Quick test_parse_file;
        Alcotest.test_case "parse_file missing" `Quick test_parse_file_missing;
        Alcotest.test_case "zero divisor exits 1" `Quick test_zero_divisor_exit;
        Alcotest.test_case "run-time zero divisor and bad extent exit 1" `Quick
          test_run_time_errors_exit;
      ] );
  ]
