(* Tests for the mini language: lexer, parser, printer round-trips,
   affine analysis and the trace-generating interpreter. *)

module Ast = Lang.Ast
module Lexer = Lang.Lexer
module Parser = Lang.Parser
module Analysis = Lang.Analysis
module Interp = Lang.Interp
module Vec = Affine.Vec
module Matrix = Affine.Matrix

(* Result-first entry point, unwrapped for tests of well-formed sources. *)
let parse src =
  match Parser.parse_result src with
  | Ok p -> p
  | Error (d :: _) -> Alcotest.failf "parse failed: %s" d.Lang.Diag.message
  | Error [] -> assert false

let fig9_source =
  {|
param N = 8;
array Z[N][N];
parfor i = 2 to N-2 {
  for j = 2 to N-2 {
    Z[j][i] = Z[j-1][i] + Z[j][i] + Z[j+1][i];
  }
}
|}

(* --- lexer --- *)

let tokenize src =
  match Lexer.scan src with
  | Ok spanned -> List.map (fun s -> s.Lexer.tok) spanned
  | Error d -> Alcotest.failf "lexical error: %s" d.Lang.Diag.message

let test_lexer_tokens () =
  let toks = tokenize "parfor x1 = 0 to N-1 { A[x1] = 2*x1; }" in
  Alcotest.(check int) "token count" 20 (List.length toks);
  (match toks with
  | Lexer.KW_PARFOR :: Lexer.IDENT "x1" :: Lexer.EQUALS :: Lexer.INT 0 :: _ -> ()
  | _ -> Alcotest.fail "unexpected token prefix");
  Alcotest.(check bool) "ends with EOF" true (List.nth toks 19 = Lexer.EOF)

let test_lexer_comments () =
  let toks = tokenize "// a comment\nfor // another\n" in
  Alcotest.(check int) "only keyword and EOF" 2 (List.length toks)

let test_lexer_error () =
  match Lexer.scan "a @ b" with
  | Error d -> Alcotest.(check int) "position" 2 d.Lang.Diag.span.Lang.Span.lo
  | Ok _ -> Alcotest.fail "expected lexical error"

(* --- parser --- *)

let test_parse_fig9 () =
  let p = parse fig9_source in
  Alcotest.(check int) "one param" 1 (List.length p.Ast.params);
  Alcotest.(check int) "one array" 1 (List.length p.Ast.decls);
  Alcotest.(check int) "one nest" 1 (List.length p.Ast.nests);
  match p.Ast.nests with
  | [ Ast.Loop l ] ->
    Alcotest.(check bool) "outer parallel" true l.Ast.parallel;
    Alcotest.(check string) "outer index" "i" l.Ast.index
  | _ -> Alcotest.fail "expected a single loop nest"

let test_parse_errors () =
  let expect_error src =
    match Parser.parse_result src with
    | Error (_ :: _) -> ()
    | Error [] | Ok _ -> Alcotest.failf "expected syntax error for %S" src
  in
  expect_error "array A[4]; parfor i = 0 to 3 { B[i] = 0; }" (* undeclared *);
  expect_error "array A[4]; parfor i = 0 to 3 { A[i][i] = 0; }" (* rank *);
  expect_error "param N; " (* missing = *);
  expect_error "array A; " (* no dims *)

let test_parse_print_roundtrip () =
  let p = parse fig9_source in
  let printed = Ast.program_to_string p in
  let p2 = parse printed in
  Alcotest.(check string) "print∘parse∘print stable"
    printed (Ast.program_to_string p2)

let test_roundtrip_all_apps () =
  List.iter
    (fun app ->
      let p = Workloads.App.program app in
      let p2 = parse (Ast.program_to_string p) in
      Alcotest.(check string)
        (app.Workloads.App.name ^ " roundtrip")
        (Ast.program_to_string p) (Ast.program_to_string p2))
    Workloads.Suite.all

(* --- analysis --- *)

let test_affine_extraction () =
  let a =
    Analysis.analyze
      (parse
         "param N = 10; array A[32];\n\
          for i = 0 to 3 { for j = 0 to 3 { A[2*j+1] = A[N] + A[i*j]; } }")
  in
  match (Analysis.array_info a "A").Analysis.occurrences with
  | [ w; n; ij ] ->
    (match w.Analysis.kind with
    | Analysis.Affine_ref acc ->
      Alcotest.(check (list int)) "coeffs" [ 0; 2 ]
        (Array.to_list (Matrix.row acc.Affine.Access.matrix 0));
      Alcotest.(check (list int)) "const" [ 1 ]
        (Array.to_list acc.Affine.Access.offset)
    | Analysis.Indexed_ref -> Alcotest.fail "expected affine");
    (match n.Analysis.kind with
    | Analysis.Affine_ref acc ->
      Alcotest.(check bool) "param is constant" true
        (Vec.is_zero (Matrix.row acc.Affine.Access.matrix 0));
      Alcotest.(check (list int)) "param value" [ 10 ]
        (Array.to_list acc.Affine.Access.offset)
    | Analysis.Indexed_ref -> Alcotest.fail "param should be affine");
    Alcotest.(check bool) "i*j is not affine" true
      (ij.Analysis.kind = Analysis.Indexed_ref)
  | os -> Alcotest.failf "expected 3 occurrences of A, got %d" (List.length os)

let test_analysis_fig9 () =
  let a = Analysis.analyze (parse fig9_source) in
  let z = Analysis.array_info a "Z" in
  Alcotest.(check int) "extents" 8 z.Analysis.extents.(0);
  Alcotest.(check int) "4 occurrences" 4 (List.length z.Analysis.occurrences);
  List.iter
    (fun (o : Analysis.occurrence) ->
      Alcotest.(check (option int)) "parallel dim is outer" (Some 0) o.Analysis.par_dim;
      match o.Analysis.kind with
      | Analysis.Affine_ref acc ->
        Alcotest.(check int) "rank 2" 2 (Affine.Access.rank acc);
        (* access matrix for Z[j±k][i] is the antidiagonal *)
        Alcotest.(check bool) "matrix antidiagonal" true
          (Matrix.equal acc.Affine.Access.matrix
             (Matrix.of_rows [ Vec.of_list [ 0; 1 ]; Vec.of_list [ 1; 0 ] ]))
      | Analysis.Indexed_ref -> Alcotest.fail "expected affine")
    z.Analysis.occurrences;
  (* exactly one write *)
  Alcotest.(check int) "one write" 1
    (List.length (List.filter (fun o -> o.Analysis.is_write) z.Analysis.occurrences))

let test_analysis_indexed () =
  let src =
    {|
param N = 16;
array X[N];
index IDX[N];
parfor i = 0 to N-1 { X[IDX[i]] = X[i] + 1; }
|}
  in
  let a = Analysis.analyze (parse src) in
  let x = Analysis.array_info a "X" in
  let kinds = List.map (fun o -> o.Analysis.kind) x.Analysis.occurrences in
  Alcotest.(check int) "X has 2 occurrences" 2 (List.length kinds);
  Alcotest.(check bool) "one indexed" true
    (List.exists (function Analysis.Indexed_ref -> true | _ -> false) kinds);
  Alcotest.(check bool) "one affine" true
    (List.exists (function Analysis.Affine_ref _ -> true | _ -> false) kinds);
  let idx = Analysis.array_info a "IDX" in
  Alcotest.(check bool) "IDX is an index array" true idx.Analysis.decl.Ast.index_array;
  Alcotest.(check int) "IDX read recorded" 1 (List.length idx.Analysis.occurrences)

let test_trip_counts () =
  let src =
    {|
param N = 10;
array A[N][N];
parfor i = 0 to N-1 { for j = 0 to N-1 { A[i][j] = 1; } }
|}
  in
  let a = Analysis.analyze (parse src) in
  let info = Analysis.array_info a "A" in
  match info.Analysis.occurrences with
  | [ o ] -> Alcotest.(check int) "trip = N²" 100 o.Analysis.trip_count
  | _ -> Alcotest.fail "expected one occurrence"

(* A zero divisor is S009 at the definition, the declaration or the
   loop header whose constant divides by it. *)
let test_zero_divisor () =
  let expect what src code lo =
    match Result.bind (Parser.parse_result src) Analysis.analyze_result with
    | Error [ d ] ->
      Alcotest.(check string) (what ^ " code") code d.Lang.Diag.code;
      Alcotest.(check int) (what ^ " offset") lo d.Lang.Diag.span.Lang.Span.lo
    | Error ds -> Alcotest.failf "%s: %d diagnostics" what (List.length ds)
    | Ok _ -> Alcotest.failf "%s: expected an error" what
  in
  expect "param" "param N = 8; param Z = N%0;" "S009" 13;
  expect "extent" "param N = 8; array A[N][N/0];" "S009" 13;
  expect "extent through a parameter" "param N = 0; array A[8/N];" "S009" 13;
  expect "bound" "param N = 8; array A[N]; parfor i = 0 to N/0 { A[i] = 1; }"
    "S009" 25;
  expect "inner bound"
    "array A[8]; parfor i = 0 to 7 { for j = 0 to i/(i-i) { A[j] = 1; } }"
    "S009" 32;
  expect "unknown parameter" "param Z = M/0;" "S001" 0;
  expect "non-constant extent" "array A[M/0];" "S008" 0

(* --- the shared evaluator --- *)

let eval_env = [ ("N", 7); ("M", -3); ("Z", 0) ]

(* parameter-only expressions over small, zero and extreme operands *)
let gen_param_expr =
  let open QCheck.Gen in
  let leaf =
    frequency
      [
        (4, map (fun n -> Ast.Int n) (int_range (-4) 4));
        (1, map (fun n -> Ast.Int n) (oneofl [ min_int; max_int ]));
        (3, map (fun x -> Ast.Var x) (oneofl [ "N"; "M"; "Z" ]));
      ]
  in
  let binop =
    oneofl
      [
        (fun a b -> Ast.Add (a, b));
        (fun a b -> Ast.Sub (a, b));
        (fun a b -> Ast.Mul (a, b));
        (fun a b -> Ast.Div (a, b));
        (fun a b -> Ast.Mod (a, b));
      ]
  in
  sized_size (int_bound 12)
  @@ fix (fun self n ->
         if n = 0 then leaf
         else
           frequency
             [
               (1, leaf);
               (1, map (fun a -> Ast.Neg a) (self (n - 1)));
               (4, map3 (fun op a b -> op a b) binop (self (n / 2)) (self (n / 2)));
             ])

let rec ocaml_eval = function
  | Ast.Int n -> n
  | Ast.Var x -> List.assoc x eval_env
  | Ast.Neg a -> -ocaml_eval a
  | Ast.Add (a, b) -> ocaml_eval a + ocaml_eval b
  | Ast.Sub (a, b) -> ocaml_eval a - ocaml_eval b
  | Ast.Mul (a, b) -> ocaml_eval a * ocaml_eval b
  | Ast.Div (a, b) -> ocaml_eval a / ocaml_eval b
  | Ast.Mod (a, b) -> ocaml_eval a mod ocaml_eval b
  | Ast.Load _ -> assert false

let prop_eval_is_ocaml =
  QCheck.Test.make ~name:"Ast.eval is OCaml arithmetic, Zero_divisor where it raises"
    ~count:2000
    (QCheck.make ~print:(Format.asprintf "%a" Ast.pp_expr) gen_param_expr)
    (fun e ->
      let got = Ast.eval (fun x -> List.assoc_opt x eval_env) e in
      match ocaml_eval e with
      | v -> got = Ok v
      | exception Division_by_zero -> got = Error Ast.Zero_divisor)

(* --- conditionals (Section 4: both branches assumed taken) --- *)

let cond_src =
  {|
param N = 8;
array A[N];
array B[N];
parfor i = 0 to N-1 {
  if (i % 2 == 0) {
    A[i] = B[i];
  } else {
    B[i] = A[i];
  }
}
|}

let test_cond_parse_print () =
  let p = parse cond_src in
  let printed = Ast.program_to_string p in
  let p2 = parse printed in
  Alcotest.(check string) "conditional roundtrip" printed (Ast.program_to_string p2)

let test_cond_analysis_conservative () =
  let a = Analysis.analyze (parse cond_src) in
  (* both branches contribute occurrences: A written and read *)
  let occs name = (Analysis.array_info a name).Analysis.occurrences in
  Alcotest.(check int) "A: write in then, read in else" 2 (List.length (occs "A"));
  Alcotest.(check int) "B: read in then, write in else" 2 (List.length (occs "B"));
  Alcotest.(check bool) "A has a write" true
    (List.exists (fun o -> o.Analysis.is_write) (occs "A"))

(* every array at its first subscript *)
let first_index _ = Interp.Fn (fun v -> v.(0))

let test_cond_interp () =
  let p = parse cond_src in
  let phases =
    Interp.trace ~threads:1
      ~addr_of:(fun name ->
        Interp.Fn (fun v -> (if String.equal name "A" then 0 else 100) + v.(0)))
      p
  in
  let stream = (List.hd phases).(0) in
  (* each iteration executes exactly one branch: 2 accesses x 8 iters *)
  Alcotest.(check int) "one branch per iteration" 16 (Array.length stream);
  (* i = 0: then-branch: read B[0] (addr 100), write A[0] (addr 0) *)
  Alcotest.(check int) "read B first" 100 (Interp.addr_of_access stream.(0));
  Alcotest.(check bool) "write A second" true (Interp.is_write stream.(1));
  Alcotest.(check int) "write A addr" 0 (Interp.addr_of_access stream.(1));
  (* i = 1: else-branch: read A[1], write B[101] *)
  Alcotest.(check int) "read A" 1 (Interp.addr_of_access stream.(2));
  Alcotest.(check int) "write B" 101 (Interp.addr_of_access stream.(3))

let test_cond_codegen () =
  let c =
    match Lang.Codegen.emit_result (parse cond_src) with
    | Ok c -> c
    | Error _ -> Alcotest.fail "codegen failed"
  in
  Alcotest.(check bool) "if rendered" true
    (Astring.String.is_infix ~affix:"if (i % 2 == 0) {" c);
  Alcotest.(check bool) "else rendered" true
    (Astring.String.is_infix ~affix:"} else {" c)

(* --- interpreter --- *)

let test_interp_counts () =
  let p =
    parse
      {|
param N = 16;
array A[N];
array B[N];
parfor i = 0 to N-1 { A[i] = B[i] + B[i]; }
|}
  in
  let phases = Interp.trace ~threads:4 ~addr_of:first_index p in
  Alcotest.(check int) "one phase" 1 (List.length phases);
  let streams = List.hd phases in
  Alcotest.(check int) "4 streams" 4 (Array.length streams);
  let total = Array.fold_left (fun a s -> a + Array.length s) 0 streams in
  Alcotest.(check int) "3 accesses per iteration" 48 total;
  (* each thread handles 4 iterations *)
  Array.iter (fun s -> Alcotest.(check int) "even split" 12 (Array.length s)) streams

let test_interp_write_flags () =
  let p = parse {|
array A[4];
parfor i = 0 to 3 { A[i] = A[i] + 1; }
|} in
  let phases = Interp.trace ~threads:1 ~addr_of:first_index p in
  let stream = (List.hd phases).(0) in
  Alcotest.(check int) "read+write per iter" 8 (Array.length stream);
  (* program order within an iteration: RHS read then LHS write *)
  Alcotest.(check bool) "first is read" false (Interp.is_write stream.(0));
  Alcotest.(check bool) "second is write" true (Interp.is_write stream.(1));
  Alcotest.(check int) "same address" (Interp.addr_of_access stream.(0))
    (Interp.addr_of_access stream.(1))

let test_interp_chunking () =
  (* 10 iterations over 4 threads: 3,3,2,2 — and addresses match chunks *)
  let p = parse {|
array A[10];
parfor i = 0 to 9 { A[i] = 0; }
|} in
  let phases = Interp.trace ~threads:4 ~addr_of:first_index p in
  let sizes = Array.to_list (Array.map Array.length (List.hd phases)) in
  Alcotest.(check (list int)) "static chunk sizes" [ 3; 3; 2; 2 ] sizes;
  let first_of t = Interp.addr_of_access (List.hd phases).(t).(0) in
  Alcotest.(check (list int)) "chunk starts" [ 0; 3; 6; 8 ]
    (List.init 4 first_of)

let test_interp_threads_per_core () =
  let p = parse {|
array A[16];
parfor i = 0 to 15 { A[i] = 0; }
|} in
  let phases =
    Interp.trace ~threads:8 ~threads_per_core:2 ~addr_of:first_index p
  in
  let streams = List.hd phases in
  (* threads 0,1 share core 0 and split its 4-iteration chunk *)
  Alcotest.(check int) "t0 gets half the core chunk" 2 (Array.length streams.(0));
  Alcotest.(check int) "t1 gets the other half" 2 (Array.length streams.(1));
  Alcotest.(check int) "t0 starts at 0" 0 (Interp.addr_of_access streams.(0).(0));
  Alcotest.(check int) "t1 starts at 2" 2 (Interp.addr_of_access streams.(1).(0))

let test_interp_index_arrays () =
  let p =
    parse
      {|
param N = 8;
array X[N];
index IDX[N];
parfor i = 0 to N-1 { X[IDX[i]] = 1; }
|}
  in
  let seen = ref [] in
  let addr_of name =
    Interp.Fn
      (fun v ->
        if String.equal name "X" then begin
          seen := v.(0) :: !seen;
          100 + v.(0)
        end
        else v.(0))
  in
  let index_lookup _ v = 7 - v.(0) in
  ignore (Interp.trace ~threads:2 ~addr_of ~index_lookup p);
  (* X written at reversed indices *)
  Alcotest.(check (list int)) "indexed targets" [ 7; 6; 5; 4; 3; 2; 1; 0 ]
    (List.rev !seen)

let test_interp_sequential_nest () =
  let p = parse {|
array A[6];
for t = 0 to 1 { parfor i = 0 to 5 { A[i] = t; } }
|} in
  let phases = Interp.trace ~threads:3 ~addr_of:first_index p in
  Alcotest.(check int) "one phase for the outer loop" 1 (List.length phases);
  let total = Array.fold_left (fun a s -> a + Array.length s) 0 (List.hd phases) in
  Alcotest.(check int) "both time steps traced" 12 total

(* [addr_of] is applied to the array name once per reference, on that
   reference's first run; a reference that never runs never resolves. *)
let test_interp_addr_of_once () =
  let p =
    parse
      {|
param N = 10;
array A[N];
array B[N];
parfor i = 0 to N-1 { A[i] = B[i] + B[N-1-i]; }
for i = 1 to 0 { B[i] = 1; }
|}
  in
  let resolved = ref [] in
  let addr_of name =
    resolved := name :: !resolved;
    Interp.Fn (fun v -> v.(0))
  in
  let phases = Interp.trace ~threads:2 ~addr_of p in
  Alcotest.(check (list string)) "one resolution per executed reference"
    [ "B"; "B"; "A" ] (List.rev !resolved);
  Alcotest.(check int) "every access traced" 30
    (Array.fold_left (fun a s -> a + Array.length s) 0 (List.hd phases))

(* [index_lookup] gets a vector of its own, never the reference's
   reused subscript buffer. *)
let test_interp_index_lookup_copy () =
  let p =
    parse
      {|
param N = 4;
array X[N];
index IDX[N];
for i = 0 to N-1 { X[IDX[i]] = 1; }
|}
  in
  let kept = ref [] in
  let index_lookup _ v =
    kept := v :: !kept;
    0
  in
  ignore (Interp.trace ~threads:1 ~addr_of:first_index ~index_lookup p);
  Alcotest.(check (list int)) "lookups keep their indices" [ 0; 1; 2; 3 ]
    (List.rev_map (fun v -> v.(0)) !kept)

(* An unchecked program with an unbound variable fails with I001, and
   the exception prints as its diagnostic. *)
let test_interp_unbound_prints () =
  let p =
    {
      Ast.params = [];
      decls = [ Ast.mk_decl ~name:"A" ~extents:[ Ast.Int 4 ] () ];
      nests =
        [
          Ast.Loop
            {
              Ast.index = "i";
              lo = Ast.Int 0;
              hi = Ast.Int 3;
              parallel = true;
              body =
                [
                  Ast.Assign
                    (Ast.mk_ref ~array:"A" ~subs:[ Ast.Var "x" ] (), Ast.Int 1);
                ];
              loop_span = Lang.Span.dummy;
            };
        ];
    }
  in
  match Interp.trace ~threads:2 ~addr_of:first_index p with
  | _ -> Alcotest.fail "unbound variable traced"
  | exception e ->
    Alcotest.(check string) "printed" "error[I001]: unbound variable x"
      (Printexc.to_string e)

let suite =
  [
    ( "lang.lexer",
      [
        Alcotest.test_case "tokens" `Quick test_lexer_tokens;
        Alcotest.test_case "comments" `Quick test_lexer_comments;
        Alcotest.test_case "error position" `Quick test_lexer_error;
      ] );
    ( "lang.parser",
      [
        Alcotest.test_case "fig9" `Quick test_parse_fig9;
        Alcotest.test_case "errors" `Quick test_parse_errors;
        Alcotest.test_case "print roundtrip" `Quick test_parse_print_roundtrip;
        Alcotest.test_case "all apps roundtrip" `Quick test_roundtrip_all_apps;
      ] );
    ( "lang.analysis",
      [
        Alcotest.test_case "affine extraction" `Quick test_affine_extraction;
        Alcotest.test_case "fig9 accesses" `Quick test_analysis_fig9;
        Alcotest.test_case "indexed refs" `Quick test_analysis_indexed;
        Alcotest.test_case "trip counts" `Quick test_trip_counts;
        Alcotest.test_case "zero divisor is S009" `Quick test_zero_divisor;
      ] );
    ("lang.eval", [ QCheck_alcotest.to_alcotest prop_eval_is_ocaml ]);
    ( "lang.cond",
      [
        Alcotest.test_case "parse/print" `Quick test_cond_parse_print;
        Alcotest.test_case "conservative analysis" `Quick test_cond_analysis_conservative;
        Alcotest.test_case "interpreter" `Quick test_cond_interp;
        Alcotest.test_case "codegen" `Quick test_cond_codegen;
      ] );
    ( "lang.interp",
      [
        Alcotest.test_case "access counts" `Quick test_interp_counts;
        Alcotest.test_case "write flags" `Quick test_interp_write_flags;
        Alcotest.test_case "static chunking" `Quick test_interp_chunking;
        Alcotest.test_case "threads per core" `Quick test_interp_threads_per_core;
        Alcotest.test_case "index arrays" `Quick test_interp_index_arrays;
        Alcotest.test_case "sequential outer nest" `Quick test_interp_sequential_nest;
        Alcotest.test_case "addr_of once per reference" `Quick
          test_interp_addr_of_once;
        Alcotest.test_case "index_lookup gets a copy" `Quick
          test_interp_index_lookup_copy;
        Alcotest.test_case "unbound variable prints" `Quick
          test_interp_unbound_prints;
      ] );
  ]
