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
  Alcotest.(check string) "vec" "(1, -2, 3)" (Vec.to_string v);
  let m = Matrix.of_rows [ v; Vec.zero 3 ] in
  Alcotest.(check bool) "matrix mentions rows" true
    (contains (Matrix.to_string m) "(0, 0, 0)");
  let h = Affine.Hyperplane.make v 7 in
  Alcotest.(check bool) "hyperplane" true
    (contains (Format.asprintf "%a" Affine.Hyperplane.pp h) "= 7");
  let s = Affine.Space.of_extents [ 2; 3 ] in
  Alcotest.(check bool) "space" true
    (contains (Format.asprintf "%a" Affine.Space.pp s) "(1, 2)")

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

(* --- file IO paths --- *)

let test_parse_file () =
  let path = Filename.temp_file "offchip" ".mc" in
  let oc = open_out path in
  output_string oc "array A[4];\nparfor i = 0 to 3 { A[i] = i; }\n";
  close_out oc;
  let p =
    match Lang.Parser.parse_file_result path with
    | Ok p -> p
    | Error _ -> Alcotest.fail "parse_file failed"
  in
  Sys.remove path;
  Alcotest.(check int) "one nest" 1 (List.length p.Lang.Ast.nests)

let test_parse_file_missing () =
  match Lang.Parser.parse_file_result "/nonexistent/offchip.mc" with
  | Ok _ -> Alcotest.fail "expected a P000 diagnostic"
  | Error (d :: _) -> Alcotest.(check string) "code" "P000" d.Lang.Diag.code
  | Error [] -> Alcotest.fail "expected a diagnostic"

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
    (Vec.to_list (Affine.Access.apply acc (Vec.of_list [ 1; 2 ])));
  let u = Matrix.of_rows [ Vec.of_list [ 0; 1 ]; Vec.of_list [ 1; 0 ] ] in
  let acc' = Affine.Access.transform u acc in
  (* the transformed reference touches the permuted element *)
  Alcotest.(check (list int)) "transformed apply" [ 5; 1 ]
    (Vec.to_list (Affine.Access.apply acc' (Vec.of_list [ 1; 2 ])))

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
        Alcotest.test_case "parse_file" `Quick test_parse_file;
        Alcotest.test_case "parse_file missing" `Quick test_parse_file_missing;
        Alcotest.test_case "codegen emit" `Quick test_codegen_emit;
        Alcotest.test_case "argument validation" `Quick test_validation;
        Alcotest.test_case "check_domains" `Quick test_check_domains;
        Alcotest.test_case "Cli.eval" `Quick test_cli_eval;
        Alcotest.test_case "access transform" `Quick test_access_transform;
      ] );
  ]
