(* Unit and property tests for the affine (integer linear algebra)
   substrate: vectors, matrices, elimination and unimodular completion,
   plus the OpenMP-static chunking the trace generator applies to a
   [parfor]. *)

module Vec = Affine.Vec
module Matrix = Affine.Matrix
module Gauss = Affine.Gauss
module Unimodular = Affine.Unimodular

let vec = Alcotest.testable Vec.pp Vec.equal

let matrix = Alcotest.testable Matrix.pp Matrix.equal

let matrix_to_string = Fmt.to_to_string Matrix.pp

(* --- generators --- *)

let small_int = QCheck.Gen.int_range (-9) 9

let gen_vec n = QCheck.Gen.array_size (QCheck.Gen.return n) small_int

let gen_matrix rows cols =
  QCheck.Gen.(array_size (return rows) (gen_vec cols))

let arb_square n =
  QCheck.make
    ~print:matrix_to_string
    (gen_matrix n n)

(* --- Vec --- *)

let test_vec_basics () =
  Alcotest.(check int) "dim" 3 (Vec.dim (Vec.of_list [ 1; 2; 3 ]));
  Alcotest.check vec "add" (Vec.of_list [ 4; 6 ])
    (Vec.add (Vec.of_list [ 1; 2 ]) (Vec.of_list [ 3; 4 ]));
  Alcotest.check vec "sub" (Vec.of_list [ -2; -2 ])
    (Vec.sub (Vec.of_list [ 1; 2 ]) (Vec.of_list [ 3; 4 ]));
  Alcotest.(check int) "dot" 11 (Vec.dot (Vec.of_list [ 1; 2 ]) (Vec.of_list [ 3; 4 ]));
  Alcotest.check vec "unit" (Vec.of_list [ 0; 1; 0 ]) (Vec.unit 3 1);
  Alcotest.(check bool) "zero is_zero" true (Vec.is_zero (Vec.zero 4));
  Alcotest.(check int) "content" 4 (Vec.content (Vec.of_list [ 8; -12; 4 ]));
  Alcotest.(check int) "content of negatives" 6 (Vec.content (Vec.of_list [ -12; 18 ]));
  Alcotest.(check int) "content with a zero" 5 (Vec.content (Vec.of_list [ 0; 5 ]))

let test_vec_primitive () =
  Alcotest.check vec "primitive divides by content" (Vec.of_list [ 2; -3; 1 ])
    (Vec.primitive (Vec.of_list [ 8; -12; 4 ]));
  Alcotest.check vec "primitive normalizes sign" (Vec.of_list [ 2; -3 ])
    (Vec.primitive (Vec.of_list [ -4; 6 ]));
  Alcotest.check vec "primitive of zero" (Vec.zero 3) (Vec.primitive (Vec.zero 3))

let prop_primitive_content =
  QCheck.Test.make ~name:"primitive has content 1 (or is zero)" ~count:200
    (QCheck.make (gen_vec 4))
    (fun v ->
      let p = Vec.primitive v in
      if Vec.is_zero v then Vec.is_zero p else Vec.content p = 1)

(* --- Matrix --- *)

let test_matrix_mul () =
  let a = Matrix.of_rows [ Vec.of_list [ 1; 2 ]; Vec.of_list [ 3; 4 ] ] in
  let b = Matrix.of_rows [ Vec.of_list [ 0; 1 ]; Vec.of_list [ 1; 0 ] ] in
  Alcotest.check matrix "a*b swaps columns"
    (Matrix.of_rows [ Vec.of_list [ 2; 1 ]; Vec.of_list [ 4; 3 ] ])
    (Matrix.mul a b);
  Alcotest.check vec "mul_vec" (Vec.of_list [ 5; 11 ])
    (Matrix.mul_vec a (Vec.of_list [ 1; 2 ]))

let test_matrix_det () =
  Alcotest.(check int) "identity" 1 (Matrix.det (Matrix.identity 4));
  Alcotest.(check int) "2x2" (-2)
    (Matrix.det (Matrix.of_rows [ Vec.of_list [ 1; 2 ]; Vec.of_list [ 3; 4 ] ]));
  Alcotest.(check int) "singular" 0
    (Matrix.det (Matrix.of_rows [ Vec.of_list [ 1; 2 ]; Vec.of_list [ 2; 4 ] ]));
  Alcotest.(check int) "3x3" 1
    (Matrix.det
       (Matrix.of_rows
          [ Vec.of_list [ 1; 0; 0 ]; Vec.of_list [ 5; 1; 0 ]; Vec.of_list [ 7; 3; 1 ] ]))

(* the transpose, built from the production column accessor *)
let transpose m = Matrix.of_rows (List.init (Matrix.cols m) (Matrix.col m))

let prop_det_transpose =
  QCheck.Test.make ~name:"det(m) = det(transpose m)" ~count:200 (arb_square 3)
    (fun m -> Matrix.det m = Matrix.det (transpose m))

let prop_det_product =
  QCheck.Test.make ~name:"det(a·b) = det(a)·det(b)" ~count:200
    (QCheck.pair (arb_square 3) (arb_square 3))
    (fun (a, b) -> Matrix.det (Matrix.mul a b) = Matrix.det a * Matrix.det b)

let test_matrix_inverse () =
  let u = Matrix.of_rows [ Vec.of_list [ 0; 1 ]; Vec.of_list [ 1; 0 ] ] in
  Alcotest.check matrix "inverse of swap is swap" u (Matrix.inverse u);
  let u = Matrix.of_rows [ Vec.of_list [ 1; 3 ]; Vec.of_list [ 0; 1 ] ] in
  Alcotest.check matrix "u·u⁻¹ = I" (Matrix.identity 2)
    (Matrix.mul u (Matrix.inverse u));
  Alcotest.check_raises "non-unimodular rejected"
    (Invalid_argument "Matrix.inverse: not unimodular") (fun () ->
      ignore (Matrix.inverse (Matrix.of_rows [ Vec.of_list [ 2; 0 ]; Vec.of_list [ 0; 1 ] ])))

let test_drop_col () =
  let a = Matrix.of_rows [ Vec.of_list [ 1; 2; 3 ]; Vec.of_list [ 4; 5; 6 ] ] in
  Alcotest.check matrix "drop middle column"
    (Matrix.of_rows [ Vec.of_list [ 1; 3 ]; Vec.of_list [ 4; 6 ] ])
    (Matrix.drop_col a 1)

(* --- Gauss --- *)

let test_column_echelon () =
  let m = Matrix.of_rows [ Vec.of_list [ 2; 4; 4 ] ] in
  let h, c, rank = Gauss.column_echelon m in
  Alcotest.(check int) "rank" 1 rank;
  Alcotest.(check bool) "c unimodular" true (Matrix.is_unimodular c);
  Alcotest.check matrix "m·c = h" h (Matrix.mul m c);
  Alcotest.(check int) "pivot is gcd" 2 h.(0).(0)

let test_kernel_vector () =
  (* kernel of (1, 1): spanned by (1, -1) *)
  (match Gauss.kernel_vector (Matrix.of_rows [ Vec.of_list [ 1; 1 ] ]) with
  | Some v ->
    Alcotest.(check int) "kernel vector orthogonal" 0 (Vec.dot (Vec.of_list [ 1; 1 ]) v)
  | None -> Alcotest.fail "expected a kernel vector");
  (* full rank: trivial kernel *)
  Alcotest.(check bool) "full rank kernel empty" true
    (Gauss.kernel_vector (Matrix.identity 3) = None)

let prop_kernel_vector_solves =
  QCheck.Test.make ~name:"kernel_vector is a primitive solution of m·x = 0" ~count:300
    (QCheck.make ~print:matrix_to_string (gen_matrix 2 4))
    (fun m ->
      match Gauss.kernel_vector m with
      | Some x -> Vec.is_zero (Matrix.mul_vec m x) && Vec.content x = 1
      | None -> false)

let prop_kernel_vector_exists =
  QCheck.Test.make ~name:"kernel_vector exists iff rank < columns" ~count:300
    (arb_square 3)
    (fun m ->
      let _, _, rank = Gauss.column_echelon m in
      Option.is_some (Gauss.kernel_vector m) = (rank < Matrix.cols m))

let test_kernel_vector_prefers_units () =
  (* kernel of (1, 0): (0, 1) is in the kernel; prefer the unit vector *)
  let m = Matrix.of_rows [ Vec.of_list [ 1; 0 ] ] in
  match Gauss.kernel_vector m with
  | Some v -> Alcotest.check vec "unit solution" (Vec.of_list [ 0; 1 ]) v
  | None -> Alcotest.fail "expected a kernel vector"

(* --- Unimodular --- *)

let test_complete_row_identity () =
  let u = Unimodular.complete_row (Vec.of_list [ 1; 0 ]) ~v:0 in
  Alcotest.check matrix "e0 at row 0 is identity" (Matrix.identity 2) u

let test_complete_row_fig9 () =
  (* the paper's example: g = (0,1), v = 0 gives the antidiagonal U *)
  let u = Unimodular.complete_row (Vec.of_list [ 0; 1 ]) ~v:0 in
  Alcotest.check matrix "antidiagonal"
    (Matrix.of_rows [ Vec.of_list [ 0; 1 ]; Vec.of_list [ 1; 0 ] ])
    u

let prop_complete_row =
  let arb =
    QCheck.make
      ~print:(fun (v, i) -> Format.asprintf "%a @ %d" Vec.pp v i)
      QCheck.Gen.(
        pair (gen_vec 4) (int_range 0 3) >|= fun (v, i) -> (Vec.primitive v, i))
  in
  QCheck.Test.make ~name:"complete_row: unimodular with g at row v" ~count:300 arb
    (fun (g, v) ->
      QCheck.assume (not (Vec.is_zero g));
      let u = Unimodular.complete_row g ~v in
      Matrix.is_unimodular u && Vec.equal (Matrix.row u v) g)

(* --- OpenMP-static chunks of a parfor --- *)

(* [parfor i = 0 to n-1 { A[i] = 1; }] on [threads] threads: thread [t]
   gets a contiguous run of iterations, run lengths differ by at most one
   and the remainder goes to the leading threads. *)
let parfor_chunks ~n ~threads =
  let p =
    match
      Lang.Parser.parse_result
        (Printf.sprintf "array A[%d];\nparfor i = 0 to %d { A[i] = 1; }\n" n (n - 1))
    with
    | Ok p -> p
    | Error _ -> Alcotest.fail "parse failed"
  in
  let addr_of _ = Lang.Interp.Fn (fun a -> a.(0)) in
  match Lang.Interp.trace ~threads ~addr_of p with
  | [ phase ] ->
    Array.map (Array.map Lang.Interp.addr_of_access) phase
  | l -> Alcotest.failf "expected one phase, got %d" (List.length l)

let test_parfor_chunks () =
  (* 10 over 4 threads: 3,3,2,2 *)
  Alcotest.(check (list int)) "chunk sizes" [ 3; 3; 2; 2 ]
    (Array.to_list (Array.map Array.length (parfor_chunks ~n:10 ~threads:4)))

let prop_parfor_chunks =
  let arb =
    QCheck.make
      ~print:(fun (n, c) -> Printf.sprintf "n=%d threads=%d" n c)
      QCheck.Gen.(pair (int_range 1 50) (int_range 1 10))
  in
  QCheck.Test.make ~name:"parfor chunks: contiguous, sizes differ by one, remainder first"
    ~count:300 arb
    (fun (n, threads) ->
      let chunks = parfor_chunks ~n ~threads in
      Array.length chunks = threads
      && Array.for_all2
           (fun c len -> Array.length c = len)
           chunks
           (Array.init threads (fun t -> (n / threads) + if t < n mod threads then 1 else 0))
      && Array.concat (Array.to_list chunks) = Array.init n Fun.id)

let qsuite = List.map QCheck_alcotest.to_alcotest

let suite =
  [
    ( "affine.vec",
      [
        Alcotest.test_case "basics" `Quick test_vec_basics;
        Alcotest.test_case "primitive" `Quick test_vec_primitive;
      ]
      @ qsuite [ prop_primitive_content ] );
    ( "affine.matrix",
      [
        Alcotest.test_case "mul" `Quick test_matrix_mul;
        Alcotest.test_case "det" `Quick test_matrix_det;
        Alcotest.test_case "inverse" `Quick test_matrix_inverse;
        Alcotest.test_case "drop_col" `Quick test_drop_col;
      ]
      @ qsuite [ prop_det_transpose; prop_det_product ] );
    ( "affine.gauss",
      [
        Alcotest.test_case "column echelon" `Quick test_column_echelon;
        Alcotest.test_case "kernel vector" `Quick test_kernel_vector;
        Alcotest.test_case "kernel prefers units" `Quick test_kernel_vector_prefers_units;
      ]
      @ qsuite [ prop_kernel_vector_solves; prop_kernel_vector_exists ] );
    ( "affine.unimodular",
      [
        Alcotest.test_case "complete e0" `Quick test_complete_row_identity;
        Alcotest.test_case "complete Fig9" `Quick test_complete_row_fig9;
      ]
      @ qsuite [ prop_complete_row ] );
    ( "affine.chunks",
      [ Alcotest.test_case "parfor chunk sizes" `Quick test_parfor_chunks ]
      @ qsuite [ prop_parfor_chunks ] );
  ]
