(* Tests for the extension components: the integer linear-system solver,
   the C code generator, and the loop-restructuring comparator. *)

module Vec = Affine.Vec
module Matrix = Affine.Matrix
module Gauss = Affine.Gauss
module Ast = Lang.Ast
module Loop_transform = Core.Loop_transform

(* --- Gauss.solve --- *)

let test_solve_identity () =
  match Gauss.solve (Matrix.identity 3) (Vec.of_list [ 4; -2; 7 ]) with
  | Some x -> Alcotest.(check (list int)) "x = b" [ 4; -2; 7 ] (Array.to_list x)
  | None -> Alcotest.fail "identity system must be solvable"

let test_solve_stencil_distance () =
  (* A = antidiagonal, offsets differ by (1,0): A·d = (1,0) → d = (0,1) *)
  let a = Matrix.of_rows [ Vec.of_list [ 0; 1 ]; Vec.of_list [ 1; 0 ] ] in
  match Gauss.solve a (Vec.of_list [ 1; 0 ]) with
  | Some d -> Alcotest.(check (list int)) "distance" [ 0; 1 ] (Array.to_list d)
  | None -> Alcotest.fail "solvable"

let test_solve_no_integer_solution () =
  (* 2x = 1 has no integer solution *)
  let a = Matrix.of_rows [ Vec.of_list [ 2 ] ] in
  Alcotest.(check bool) "2x=1 unsolvable" true (Gauss.solve a (Vec.of_list [ 1 ]) = None);
  Alcotest.(check bool) "2x=6 solvable" true
    (match Gauss.solve a (Vec.of_list [ 6 ]) with
    | Some x -> x.(0) = 3
    | None -> false)

let test_solve_inconsistent () =
  (* x = 1 and x = 2 simultaneously *)
  let a = Matrix.of_rows [ Vec.of_list [ 1 ]; Vec.of_list [ 1 ] ] in
  Alcotest.(check bool) "inconsistent" true (Gauss.solve a (Vec.of_list [ 1; 2 ]) = None)

let prop_solve_roundtrip =
  let gen =
    QCheck.Gen.(
      let* m =
        array_size (return 3) (array_size (return 3) (int_range (-4) 4))
      in
      let* x = array_size (return 3) (int_range (-5) 5) in
      return (m, x))
  in
  QCheck.Test.make ~name:"solve(m, m·x) finds a solution of m·y = m·x" ~count:300
    (QCheck.make gen)
    (fun (m, x) ->
      let b = Matrix.mul_vec m x in
      match Gauss.solve m b with
      | Some y -> Vec.equal (Matrix.mul_vec m y) b
      | None -> false)

(* --- Codegen --- *)

let parse src =
  match Lang.Parser.parse_result src with
  | Ok p -> p
  | Error _ -> failwith "parse failed"

let emit ?name p =
  match Lang.Codegen.emit_result ?name p with
  | Ok c -> c
  | Error _ -> failwith "codegen failed"

let jacobi =
  parse
    {|
param N = 32;
array Z[N][N];
index IDX[N];
parfor i = 1 to N-2 {
  for j = 1 to N-2 {
    Z[i][j] = Z[i-1][j] + Z[i][IDX[j]];
  }
}
|}

let test_codegen_structure () =
  let c = emit ~name:"jacobi" jacobi in
  let has s = Astring.String.is_infix ~affix:s c in
  Alcotest.(check bool) "defines N" true (has "#define N 32");
  Alcotest.(check bool) "flattens Z" true (has "static double Z[1024];");
  Alcotest.(check bool) "index array is long" true (has "static long IDX[32];");
  Alcotest.(check bool) "openmp pragma" true
    (has "#pragma omp parallel for schedule(static)");
  Alcotest.(check bool) "run function" true (has "void run_jacobi(void)");
  Alcotest.(check bool) "init hook" true (has "init_jacobi_index_arrays");
  Alcotest.(check bool) "flattened subscript" true (has "Z[(i - 1) * 32 + (j)]")

let test_codegen_transformed () =
  (* the strip-mined output of the pass also renders (div/mod in C) *)
  let cfg = Sim.Config.customize_config (Sim.Config.scaled ()) in
  let p =
    parse
      {|
param N = 128;
array A[N][N];
parfor i = 0 to N-1 { for j = 0 to N-1 { A[i][j] = A[i][j] + 1; } }
|}
  in
  let report = Core.Transform.run cfg (Lang.Analysis.analyze p) in
  let c = emit (Core.Transform.rewrite_program report p) in
  Alcotest.(check bool) "division appears" true
    (Astring.String.is_infix ~affix:"/ 32" c
    || Astring.String.is_infix ~affix:"/32" c);
  Alcotest.(check bool) "modulo appears" true
    (Astring.String.is_infix ~affix:"% 32" c)

let test_codegen_all_apps () =
  List.iter
    (fun app ->
      let c = emit ~name:app.Workloads.App.name (Workloads.App.program app) in
      Alcotest.(check bool) (app.Workloads.App.name ^ " nonempty") true
        (String.length c > 200))
    Workloads.Suite.all

(* --- Loop_transform --- *)

let analyze src = Lang.Analysis.analyze (parse src)

let test_interchange_applies () =
  (* parallel loop indexes the fastest dimension; interchange is legal
     (no loop-carried dependence) and moves the row driver outward *)
  let a =
    analyze
      {|
param N = 32;
array A[N][N];
parfor j = 0 to N-1 { for i = 0 to N-1 { A[i][j] = A[i][j] + 1; } }
|}
  in
  let r = Loop_transform.run a in
  Alcotest.(check int) "one nest permuted" 1 r.Loop_transform.permuted_nests;
  match r.Loop_transform.program.Ast.nests with
  | [ Ast.Loop outer ] ->
    Alcotest.(check string) "i is now outermost" "i" outer.Ast.index;
    Alcotest.(check bool) "outermost is parallel" true outer.Ast.parallel;
    (match outer.Ast.body with
    | [ Ast.Loop inner ] ->
      Alcotest.(check string) "j inside" "j" inner.Ast.index;
      Alcotest.(check bool) "inner sequential" false inner.Ast.parallel
    | _ -> Alcotest.fail "inner loop expected")
  | _ -> Alcotest.fail "nest expected"

let test_interchange_blocked_by_dependence () =
  (* A[i][j] depends on A[i-1][j+1]: distance (1,-1); moving j outward
     would make it lexicographically negative *)
  let a =
    analyze
      {|
param N = 32;
array A[N][N];
parfor j = 1 to N-2 { for i = 1 to N-2 { A[j][i] = A[j-1][i+1] + 1; } }
|}
  in
  let distances = Loop_transform.dependence_distances a ~nest_id:0 in
  Alcotest.(check bool) "distance found" true (List.length distances >= 1);
  let r = Loop_transform.run a in
  Alcotest.(check int) "nothing permuted" 0 r.Loop_transform.permuted_nests

let test_already_aligned () =
  let a =
    analyze
      {|
param N = 32;
array A[N][N];
parfor i = 0 to N-1 { for j = 0 to N-1 { A[i][j] = 1; } }
|}
  in
  let r = Loop_transform.run a in
  Alcotest.(check int) "aligned" 1 r.Loop_transform.already_aligned;
  Alcotest.(check int) "not permuted" 0 r.Loop_transform.permuted_nests

let test_imperfect_blocked () =
  let a =
    analyze
      {|
param N = 32;
array A[N][N];
array B[N];
parfor i = 0 to N-1 {
  B[i] = 0;
  for j = 0 to N-1 { A[i][j] = 1; }
}
|}
  in
  let r = Loop_transform.run a in
  Alcotest.(check int) "imperfect nest blocked" 1 r.Loop_transform.blocked

let test_legal_permutation () =
  let d = [ Vec.of_list [ 1; -1 ] ] in
  Alcotest.(check bool) "identity legal" true
    (Loop_transform.legal_permutation d [| 0; 1 |]);
  Alcotest.(check bool) "swap illegal" false
    (Loop_transform.legal_permutation d [| 1; 0 |])

let test_transformed_program_runs () =
  (* the restructured program still traces and simulates *)
  let a =
    analyze
      {|
param N = 64;
array A[N][N];
parfor j = 0 to N-1 { for i = 0 to N-1 { A[i][j] = A[i][j] + 1; } }
|}
  in
  let r = Loop_transform.run a in
  let cfg = Sim.Config.scaled () in
  let before = Sim.Runner.run cfg ~optimized:false a.Lang.Analysis.program in
  let after = Sim.Runner.run cfg ~optimized:false r.Loop_transform.program in
  Alcotest.(check int) "same access count"
    ((Sim.Stats.total_accesses) before.Sim.Engine.stats)
    ((Sim.Stats.total_accesses) after.Sim.Engine.stats);
  (* row-order traversal has far better spatial locality *)
  Alcotest.(check bool) "interchange improves L1 hits" true
    (((Sim.Stats.l1_hits) after.Sim.Engine.stats)
    > ((Sim.Stats.l1_hits) before.Sim.Engine.stats))

let qsuite = List.map QCheck_alcotest.to_alcotest

let suite =
  [
    ( "affine.solve",
      [
        Alcotest.test_case "identity" `Quick test_solve_identity;
        Alcotest.test_case "stencil distance" `Quick test_solve_stencil_distance;
        Alcotest.test_case "no integer solution" `Quick test_solve_no_integer_solution;
        Alcotest.test_case "inconsistent" `Quick test_solve_inconsistent;
      ]
      @ qsuite [ prop_solve_roundtrip ] );
    ( "lang.codegen",
      [
        Alcotest.test_case "structure" `Quick test_codegen_structure;
        Alcotest.test_case "transformed subscripts" `Quick test_codegen_transformed;
        Alcotest.test_case "all apps emit" `Quick test_codegen_all_apps;
      ] );
    ( "core.loop_transform",
      [
        Alcotest.test_case "interchange applies" `Quick test_interchange_applies;
        Alcotest.test_case "blocked by dependence" `Quick test_interchange_blocked_by_dependence;
        Alcotest.test_case "already aligned" `Quick test_already_aligned;
        Alcotest.test_case "imperfect blocked" `Quick test_imperfect_blocked;
        Alcotest.test_case "legal_permutation" `Quick test_legal_permutation;
        Alcotest.test_case "restructured program runs" `Quick test_transformed_program_runs;
      ] );
  ]
