(* The staged pass pipeline (Core.Pipeline): equivalence with the legacy
   one-shot transform on every workload, the inter-pass verifier on a
   deliberately corrupted mapping, golden --emit stage dumps, located
   lexer/semantic diagnostics, and a parse∘print round-trip property. *)

module Ast = Lang.Ast
module Diag = Lang.Diag
module Span = Lang.Span
module Pipeline = Core.Pipeline
module Transform = Core.Transform
module D2c = Core.Data_to_core

let default_cfg () =
  match Sim.Config.build ~scaled:false () with
  | Ok c -> Sim.Config.customize_config c
  | Error e -> failwith e

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let jacobi_path = "../examples/jacobi.mc"

let parse ?file src =
  match Lang.Parser.parse_result ?file src with
  | Ok p -> p
  | Error _ -> Alcotest.fail "parse failed"

let transformed_of (r : Pipeline.t) what =
  match r.Pipeline.artifacts.Pipeline.transformed with
  | Some t -> t
  | None -> Alcotest.failf "%s: pipeline produced no transformed program" what

(* --- pipeline vs legacy transform ------------------------------------- *)

(* The pipeline (parse → check → analyze → solve → mapping → customize →
   rewrite) must produce byte-identical transformed code to the legacy
   monolithic [Transform.run] + [rewrite_program] path, with the verifier
   on and silent. *)

let check_matches_legacy ~what ~legacy r =
  Alcotest.(check bool) (what ^ ": pipeline ok") true r.Pipeline.ok;
  (* notes and warnings (C002/C003) are allowed; errors are not *)
  Alcotest.(check (list string))
    (what ^ ": verifier is silent")
    []
    (List.map Diag.to_string (List.filter Diag.is_error r.Pipeline.diags));
  Alcotest.(check string)
    (what ^ ": transformed code is byte-identical")
    legacy
    (Ast.program_to_string (transformed_of r what))

let test_workloads_match_legacy () =
  let cfg = default_cfg () in
  List.iter
    (fun (app : Workloads.App.t) ->
      let program = Workloads.App.program app in
      let analysis = Lang.Analysis.analyze program in
      let profile arr = Workloads.Profile.for_transform app analysis arr in
      let legacy =
        Ast.program_to_string
          (Transform.rewrite_program (Transform.run ~profile cfg analysis) program)
      in
      let r = Pipeline.compile ~profile ~cfg (Pipeline.Program program) in
      check_matches_legacy ~what:app.Workloads.App.name ~legacy r)
    Workloads.Suite.all

let test_jacobi_matches_legacy () =
  let cfg = default_cfg () in
  let src = read_file jacobi_path in
  let program = parse ~file:jacobi_path src in
  let legacy =
    Ast.program_to_string
      (Transform.rewrite_program
         (Transform.run cfg (Lang.Analysis.analyze program))
         program)
  in
  let r = Pipeline.compile ~cfg (Pipeline.Source { file = jacobi_path; src }) in
  check_matches_legacy ~what:"jacobi.mc" ~legacy r

(* --- the verifier on a corrupted mapping ------------------------------ *)

(* Zero out the data-partition row of a solved array's [U]: the verifier
   must report it as located error diagnostics (unimodularity and
   solution-row rechecks), never crash. *)
let test_verifier_catches_corrupted_mapping () =
  let cfg = default_cfg () in
  let src = read_file jacobi_path in
  let r =
    Pipeline.compile ~verify:false ~cfg
      (Pipeline.Source { file = jacobi_path; src })
  in
  let get what = function
    | Some x -> x
    | None -> Alcotest.failf "pipeline did not produce %s" what
  in
  let art = r.Pipeline.artifacts in
  let program = get "a program" art.Pipeline.program in
  let solved = get "solutions" art.Pipeline.solved in
  let report = get "a report" art.Pipeline.report in
  let transformed = get "transformed code" art.Pipeline.transformed in
  let corrupted_any = ref false in
  let zero_row u =
    let u = Affine.Matrix.copy u in
    Array.fill u.(Transform.v_dim) 0 (Array.length u.(Transform.v_dim)) 0;
    u
  in
  let corrupted =
    List.map
      (fun (s : Transform.solved) ->
        match s.Transform.s_outcome with
        | Transform.Solved sol ->
          corrupted_any := true;
          {
            s with
            Transform.s_outcome =
              Transform.Solved { sol with D2c.u_matrix = zero_row sol.D2c.u_matrix };
          }
        | Transform.Kept _ -> s)
      solved
  in
  Alcotest.(check bool) "jacobi has a solved array to corrupt" true !corrupted_any;
  (* the same bogus matrix, as the customize pass carries it *)
  let corrupted_report =
    {
      report with
      Transform.decisions =
        List.map
          (fun (d : Transform.decision) ->
            if d.Transform.optimized then
              {
                d with
                Transform.layout =
                  {
                    d.Transform.layout with
                    Core.Layout.u = zero_row d.Transform.layout.Core.Layout.u;
                  };
              }
            else d)
          report.Transform.decisions;
    }
  in
  let diags =
    Core.Verify.run ~cfg ~solved:corrupted ~report:corrupted_report
      ~original:program ~transformed
  in
  Alcotest.(check bool) "the corruption is reported" true (diags <> []);
  Alcotest.(check bool)
    "all corruption diagnostics are errors" true
    (List.for_all Diag.is_error diags);
  let codes = List.sort_uniq compare (List.map (fun d -> d.Diag.code) diags) in
  Alcotest.(check bool)
    "unimodularity violation reported (V001)" true (List.mem "V001" codes);
  Alcotest.(check bool)
    "solution-row violation reported (V002)" true (List.mem "V002" codes);
  List.iter
    (fun (d : Diag.t) ->
      Alcotest.(check bool)
        ("located: " ^ d.Diag.message)
        false
        (Span.is_dummy d.Diag.span);
      Alcotest.(check string)
        "diagnostic points into jacobi.mc" jacobi_path d.Diag.span.Span.file)
    diags

(* --- platform-driven mapping selection (C002) ------------------------- *)

let test_auto_mapping_selection () =
  let platform =
    match Core.Platform.of_spec "mesh8x8-mc8" with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let cfg = default_cfg () in
  let src = read_file jacobi_path in
  let r =
    Pipeline.compile ~platform ~bank_pressure:1.0 ~cfg
      (Pipeline.Source { file = jacobi_path; src })
  in
  Alcotest.(check bool) "pipeline ok" true r.Pipeline.ok;
  (match r.Pipeline.artifacts.Pipeline.mapping_scores with
  | Some scored ->
    Alcotest.(check int) "three candidates scored" 3 (List.length scored)
  | None -> Alcotest.fail "no mapping scores recorded");
  let c002 =
    List.filter (fun (d : Diag.t) -> String.equal d.Diag.code "C002") r.Pipeline.diags
  in
  (match c002 with
  | [ d ] ->
    Alcotest.(check bool) "note severity" true (d.Diag.severity = Diag.Note);
    Alcotest.(check bool) "mentions the winner" true
      (Astring.String.is_infix ~affix:"selected among 3 candidates" d.Diag.message)
  | _ -> Alcotest.fail "expected exactly one C002 selection note");
  (* selection is calibration-sensitive: high pressure flips to 8 MCs *)
  let winner pressure =
    let r =
      Pipeline.compile ~platform ~bank_pressure:pressure ~cfg
        (Pipeline.Source { file = jacobi_path; src })
    in
    match r.Pipeline.artifacts.Pipeline.mapping_scores with
    | Some (best :: _) -> best.Core.Mapping_select.cluster.Core.Cluster.name
    | _ -> Alcotest.fail "no scores"
  in
  Alcotest.(check string) "light pressure keeps M1" "M1" (winner 0.25);
  Alcotest.(check string) "heavy pressure picks 8 MCs" "M1x8" (winner 4.0)

(* --- placement search through the pipeline (C004) --------------------- *)

let test_search_mapping_selection () =
  let platform =
    match Core.Platform.of_spec "mesh8x8-mc8" with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let cfg = default_cfg () in
  let src = read_file jacobi_path in
  let r =
    Pipeline.compile ~platform ~search:Core.Place_search.default_params
      ~bank_pressure:1.0 ~cfg
      (Pipeline.Source { file = jacobi_path; src })
  in
  Alcotest.(check bool) "pipeline ok" true r.Pipeline.ok;
  let outcome =
    match r.Pipeline.artifacts.Pipeline.search with
    | Some o -> o
    | None -> Alcotest.fail "no search outcome recorded"
  in
  Alcotest.(check bool) "searched cost <= best preset" true
    (outcome.Core.Place_search.cost
    <= outcome.Core.Place_search.preset_best.Core.Mapping_select.cost +. 1e-9);
  (* the searched machine competes: presets plus one searched candidate *)
  (match r.Pipeline.artifacts.Pipeline.mapping_scores with
  | Some scored -> Alcotest.(check int) "four candidates scored" 4 (List.length scored)
  | None -> Alcotest.fail "no mapping scores recorded");
  let c004 =
    List.filter (fun (d : Diag.t) -> String.equal d.Diag.code "C004") r.Pipeline.diags
  in
  Alcotest.(check int) "summary + trajectory notes" 2 (List.length c004);
  Alcotest.(check bool) "summary mentions the preset comparison" true
    (List.exists
       (fun (d : Diag.t) ->
         Astring.String.is_infix ~affix:"vs best preset" d.Diag.message)
       c004);
  Alcotest.(check bool) "trajectory note present" true
    (List.exists
       (fun (d : Diag.t) ->
         Astring.String.is_infix ~affix:"search trajectory:" d.Diag.message)
       c004);
  (* duplicate cluster names in the C002 table are disambiguated by
     placement, so the selection note still identifies one machine *)
  (match
     List.find_opt
       (fun (d : Diag.t) -> String.equal d.Diag.code "C002")
       r.Pipeline.diags
   with
  | Some d ->
    Alcotest.(check bool) "C002 disambiguates by placement" true
      (Astring.String.is_infix ~affix:"@" d.Diag.message)
  | None -> Alcotest.fail "expected a C002 selection note");
  (* on this platform the searched placement strictly beats every preset,
     so the chosen config must carry it *)
  match r.Pipeline.artifacts.Pipeline.cfg with
  | Some c ->
    Alcotest.(check string) "chosen placement is the searched one"
      outcome.Core.Place_search.platform.Core.Platform.placement
        .Noc.Placement.name
      c.Core.Customize.placement.Noc.Placement.name
  | None -> Alcotest.fail "no chosen config"

(* --- calibration inputs (occ --calibrate) ------------------------------ *)

(* A stats file whose bank pressure the cost model cannot price is a
   one-line error naming the file, read as occ reads it: a negative queue
   count, an infinite finish time, and a pressure that overflows to
   infinity. *)
let test_calibrate_rejects_bad_pressure () =
  let stats ~queued ~finish =
    Printf.sprintf
      {|{"stats":{"metrics":{"counters":{"mem.queue_cycles":%d},"gauges":{"sim.finish_time":%s}}}}|}
      queued finish
  in
  List.iter
    (fun (what, text) ->
      let path = Filename.temp_file "calibrate" ".json" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Out_channel.with_open_bin path (fun oc -> output_string oc text);
          match
            Obs.Json.decode_file path Core.Mapping_select.bank_pressure_of_stats
          with
          | Ok p -> Alcotest.failf "%s: accepted bank pressure %g" what p
          | Error e ->
            Alcotest.(check bool) (what ^ ": one line") false (String.contains e '\n');
            Alcotest.(check bool) (what ^ ": names the file") true
              (Astring.String.is_prefix ~affix:(path ^ ": ") e)))
    [
      ("negative queue cycles", stats ~queued:(-1459684) ~finish:"1474200");
      ("infinite finish time", stats ~queued:1459684 ~finish:"1e999");
      ("infinite pressure", stats ~queued:1459684 ~finish:"1e-320");
    ];
  Alcotest.(check bool) "zero pressure is valid" true
    (Core.Mapping_select.check_pressure 0. = Ok 0.)

(* --- C003: fixable kept-array warnings -------------------------------- *)

let test_keep_warning_no_profile () =
  let cfg = default_cfg () in
  let src =
    {|
param N = 256;
array VALS[N];
array X[N];
index COLS[N];
parfor i = 0 to N-1 { VALS[i] = VALS[i] + X[COLS[i]]; }
|}
  in
  let r = Pipeline.compile ~cfg (Pipeline.Source { file = "t.mc"; src }) in
  Alcotest.(check bool) "pipeline still ok" true r.Pipeline.ok;
  let c003 =
    List.filter (fun (d : Diag.t) -> String.equal d.Diag.code "C003") r.Pipeline.diags
  in
  match c003 with
  | [ d ] ->
    Alcotest.(check bool) "warning severity" true (d.Diag.severity = Diag.Warning);
    Alcotest.(check bool) "names the array" true
      (Astring.String.is_infix ~affix:"array X" d.Diag.message);
    Alcotest.(check bool) "located at the declaration" false
      (Span.is_dummy d.Diag.span);
    Alcotest.(check bool) "suggests the fix" true
      (Astring.String.is_infix ~affix:"--app" d.Diag.message)
  | ds -> Alcotest.failf "expected exactly one C003 warning, got %d" (List.length ds)

(* --- V007: emitted-C access replay ------------------------------------ *)

let test_codegen_replay_clean () =
  let cfg = default_cfg () in
  let src = read_file jacobi_path in
  let r =
    Pipeline.compile ~codegen:"jacobi" ~cfg
      (Pipeline.Source { file = jacobi_path; src })
  in
  Alcotest.(check bool) "pipeline ok" true r.Pipeline.ok;
  Alcotest.(check (list string)) "replay is silent on a correct pipeline" []
    (List.map Diag.to_string
       (List.filter (fun (d : Diag.t) -> String.equal d.Diag.code "V007")
          r.Pipeline.diags))

let test_codegen_replay_catches_mismatch () =
  let cfg = default_cfg () in
  let src = read_file jacobi_path in
  let r =
    Pipeline.compile ~verify:false ~cfg
      (Pipeline.Source { file = jacobi_path; src })
  in
  let get what = function
    | Some x -> x
    | None -> Alcotest.failf "pipeline did not produce %s" what
  in
  let art = r.Pipeline.artifacts in
  let program = get "a program" art.Pipeline.program in
  let report = get "a report" art.Pipeline.report in
  (* feed the replay the UNtransformed program as if it were the emitted
     one: the C side then touches row-major addresses while the report
     promises customized layouts — the replay must flag the mismatch *)
  let diags =
    Core.Verify.check_codegen ~report ~original:program ~transformed:program
  in
  Alcotest.(check bool) "mismatch reported" true (diags <> []);
  List.iter
    (fun (d : Diag.t) ->
      Alcotest.(check string) "code" "V007" d.Diag.code;
      Alcotest.(check bool) "is error" true (Diag.is_error d))
    diags;
  Alcotest.(check (list string))
    "capped replay = materializing replay"
    (List.map Diag.to_string
       (Naive_codegen_replay.check_codegen ~report ~original:program
          ~transformed:program))
    (List.map Diag.to_string diags)

(* --- golden --emit stage dumps ---------------------------------------- *)

let check_golden name got =
  let want = String.trim (read_file ("golden/" ^ name)) in
  Alcotest.(check string) name want (String.trim got)

let emit_or_fail r stage =
  match Pipeline.emit r stage with
  | Some s -> s
  | None -> Alcotest.fail "pipeline did not reach the requested stage"

let test_golden_emits () =
  let cfg = default_cfg () in
  let src = read_file jacobi_path in
  let rj = Pipeline.compile ~cfg (Pipeline.Source { file = jacobi_path; src }) in
  check_golden "jacobi_solve.txt" (emit_or_fail rj Pipeline.Solve);
  check_golden "jacobi_transformed.txt" (emit_or_fail rj Pipeline.Transformed);
  let app = Workloads.Suite.by_name "hpccg" in
  let program = Workloads.App.program app in
  let analysis = Lang.Analysis.analyze program in
  let profile arr = Workloads.Profile.for_transform app analysis arr in
  let rh = Pipeline.compile ~profile ~cfg (Pipeline.Program program) in
  check_golden "hpccg_solve.txt" (emit_or_fail rh Pipeline.Solve)

(* --- located lexical and semantic diagnostics ------------------------- *)

let test_block_comments_are_whitespace () =
  let plain = "param N = 8; array A[N]; parfor i = 0 to N-1 { A[i] = i; }" in
  let commented =
    "param N = 8; /* size */ array A[N];\n\
     /* a block comment\n\
     \   spanning lines */\n\
     parfor i = 0 to N-1 { A[i] = i; }"
  in
  Alcotest.(check bool)
    "block comments lex as whitespace" true
    (Ast.equal_program (parse plain) (parse commented))

let test_unterminated_comment_located () =
  let src = "array A[4];\n/* oops" in
  match Lang.Lexer.scan ~file:"t.mc" src with
  | Ok _ -> Alcotest.fail "unterminated block comment not reported"
  | Error d ->
    Alcotest.(check string) "code" "L002" d.Diag.code;
    Alcotest.(check string) "file" "t.mc" d.Diag.span.Span.file;
    Alcotest.(check int)
      "span starts at the opening /*"
      (String.index src '/')
      d.Diag.span.Span.lo;
    Alcotest.(check bool) "has an explanatory note" true (d.Diag.notes <> [])

let test_stray_character_located () =
  let src = "array A[4]; ? x" in
  match Lang.Lexer.scan ~file:"t.mc" src with
  | Ok _ -> Alcotest.fail "stray character not reported"
  | Error d ->
    Alcotest.(check string) "code" "L001" d.Diag.code;
    Alcotest.(check int)
      "span points at the character"
      (String.index src '?')
      d.Diag.span.Span.lo

let test_undeclared_array_located () =
  let src = "param N = 8;\narray A[N];\nparfor i = 0 to N-1 { B[i] = A[i]; }" in
  match Lang.Parser.parse_result ~file:"t.mc" src with
  | Ok _ -> Alcotest.fail "undeclared array not reported"
  | Error ds ->
    let d = List.hd ds in
    Alcotest.(check string) "code" "S004" d.Diag.code;
    Alcotest.(check int)
      "span starts at the reference"
      (String.index src 'B')
      d.Diag.span.Span.lo

(* Programs the replay used to reject with an unlocated
   "V007 ... Lang.Diag.Fatal(_)": the scope check now stops them at the
   offending reference or loop header, before any pass runs. *)
let check_scope_error ~code ~at src =
  let r =
    Pipeline.compile ~codegen:"kernel" ~cfg:(default_cfg ())
      (Pipeline.Source { file = "t.mc"; src })
  in
  Alcotest.(check bool) "pipeline fails" false r.Pipeline.ok;
  Alcotest.(check (list string))
    "the scope error is the only diagnostic"
    [ code ]
    (List.map (fun (d : Diag.t) -> d.Diag.code) r.Pipeline.diags);
  let d = List.hd r.Pipeline.diags in
  Alcotest.(check int) "located"
    (Option.get (Astring.String.find_sub ~sub:at src))
    d.Diag.span.Span.lo

let test_unbound_variable_located () =
  check_scope_error ~code:"S006" ~at:"A[i][k] ="
    "param N = 16;\narray A[N][N];\n\
     parfor i = 0 to N-1 {\n  for j = 0 to N-1 {\n    A[i][k] = A[i][j] + 1;\n  }\n}\n"

let test_shadowing_loop_located () =
  check_scope_error ~code:"S007" ~at:"for i = 0 to N-1 {\n    A[i][i]"
    "param N = 16;\narray A[N][N];\n\
     parfor i = 0 to N-1 {\n  for i = 0 to N-1 {\n    A[i][i] = 1;\n  }\n\
    \  A[i][0] = 2;\n}\n"

let test_shadowing_parameter_located () =
  let src = "param N = 16;\narray A[N];\nparfor N = 0 to 3 { A[N] = 1; }" in
  match Lang.Parser.parse_result ~file:"t.mc" src with
  | Ok _ -> Alcotest.fail "shadowed parameter not reported"
  | Error ds ->
    Alcotest.(check (list (pair string string)))
      "diagnostic"
      [ ("S007", "loop index N shadows the parameter N") ]
      (List.map (fun (d : Diag.t) -> (d.Diag.code, d.Diag.message)) ds)

(* --- parse ∘ print round-trip ----------------------------------------- *)

(* Random ASTs restricted to the shapes the printer represents
   canonically: integer literals are non-negative (negative ones print as
   unary minus and re-parse as [Neg]) and the right operand of [+] is
   never itself [+]/[-] (additive chains print left-associated, without
   parentheses).  Everything else — unary minus, products, nested
   compounds — round-trips because [pp_atom] parenthesizes them. *)

let arrays = [ ("A", 2); ("B", 2); ("V", 1) ]

let gen_program : Ast.program QCheck.Gen.t =
  let open QCheck.Gen in
  let gen_leaf =
    frequency
      [
        (2, map (fun n -> Ast.Int n) (int_range 0 99));
        (3, map (fun v -> Ast.Var v) (oneofl [ "i"; "j"; "k"; "N"; "M" ]));
      ]
  in
  let rec gen_expr depth =
    if depth <= 0 then gen_leaf
    else
      frequency
        [
          (4, gen_leaf);
          (2, map2 (fun a b -> Ast.Add (a, b)) (gen_expr (depth - 1)) (gen_term (depth - 1)));
          (2, map2 (fun a b -> Ast.Sub (a, b)) (gen_expr (depth - 1)) (gen_expr (depth - 1)));
          (1, map (fun a -> Ast.Neg a) (gen_expr (depth - 1)));
          (1, map2 (fun a b -> Ast.Mul (a, b)) (gen_expr (depth - 1)) (gen_expr (depth - 1)));
          (1, map2 (fun a b -> Ast.Div (a, b)) (gen_expr (depth - 1)) (gen_expr (depth - 1)));
          (1, map2 (fun a b -> Ast.Mod (a, b)) (gen_expr (depth - 1)) (gen_expr (depth - 1)));
          (1, gen_load (depth - 1));
        ]
  (* anything but a top-level [+]/[-]: safe as the right operand of [+] *)
  and gen_term depth =
    if depth <= 0 then gen_leaf
    else
      frequency
        [
          (4, gen_leaf);
          (1, map (fun a -> Ast.Neg a) (gen_expr (depth - 1)));
          (1, map2 (fun a b -> Ast.Mul (a, b)) (gen_expr (depth - 1)) (gen_expr (depth - 1)));
          (1, gen_load (depth - 1));
        ]
  and gen_load depth =
    let* name, rank = oneofl arrays in
    let* subs = list_repeat rank (gen_expr depth) in
    return (Ast.Load (Ast.mk_ref ~array:name ~subs ()))
  in
  let gen_assign depth =
    let* name, rank = oneofl arrays in
    let* subs = list_repeat rank (gen_expr depth) in
    let* rhs = gen_expr depth in
    return (Ast.Assign (Ast.mk_ref ~array:name ~subs (), rhs))
  in
  let rec gen_stmt depth =
    if depth <= 0 then gen_assign 1
    else
      frequency
        [ (3, gen_assign depth); (2, gen_loop depth); (1, gen_if depth) ]
  and gen_loop depth =
    let* index = oneofl [ "i"; "j"; "k" ] in
    let* lo = gen_expr 1 in
    let* hi = gen_expr 1 in
    let* parallel = bool in
    let* body = list_size (int_range 1 2) (gen_stmt (depth - 1)) in
    return (Ast.Loop { Ast.index; lo; hi; parallel; body; loop_span = Span.dummy })
  and gen_if depth =
    let* lhs = gen_expr 1 in
    let* op = oneofl [ Ast.Lt; Ast.Le; Ast.Gt; Ast.Ge; Ast.Eq; Ast.Ne ] in
    let* rhs = gen_expr 1 in
    let* then_ = list_size (int_range 1 2) (gen_stmt (depth - 1)) in
    let* else_ = list_size (int_range 0 1) (gen_stmt (depth - 1)) in
    return (Ast.If { Ast.lhs; op; rhs; then_; else_; cond_span = Span.dummy })
  in
  let* nv = int_range 0 99 in
  let* mv = int_range 0 99 in
  let decls =
    List.map
      (fun (name, rank) ->
        Ast.mk_decl ~name ~extents:(List.init rank (fun _ -> Ast.Int 8)) ())
      arrays
  in
  (* top level of the grammar only admits loop nests *)
  let* nests = list_size (int_range 1 3) (gen_loop 2) in
  return { Ast.params = [ ("N", nv); ("M", mv) ]; decls; nests }

let prop_roundtrip =
  QCheck.Test.make ~name:"parse (print ast) == ast" ~count:300
    (QCheck.make ~print:Ast.program_to_string gen_program)
    (fun p ->
      let printed = Ast.program_to_string p in
      match Lang.Parser.parse_program_result printed with
      | Error ds ->
        QCheck.Test.fail_reportf "printed program does not re-parse: %s"
          (Diag.to_string (List.hd ds))
      | Ok q -> Ast.equal_program p q)

let suite =
  [
    ( "pipeline",
      [
        Alcotest.test_case "matches legacy transform on all workloads" `Quick
          test_workloads_match_legacy;
        Alcotest.test_case "matches legacy transform on jacobi.mc" `Quick
          test_jacobi_matches_legacy;
        Alcotest.test_case "verifier catches a corrupted mapping" `Quick
          test_verifier_catches_corrupted_mapping;
        Alcotest.test_case "auto mapping selection (C002)" `Quick
          test_auto_mapping_selection;
        Alcotest.test_case "calibration rejects a bad bank pressure" `Quick
          test_calibrate_rejects_bad_pressure;
        Alcotest.test_case "placement search selection (C004)" `Quick
          test_search_mapping_selection;
        Alcotest.test_case "kept-array warning (C003)" `Quick
          test_keep_warning_no_profile;
        Alcotest.test_case "codegen replay clean (V007)" `Quick
          test_codegen_replay_clean;
        Alcotest.test_case "codegen replay catches mismatch (V007)" `Quick
          test_codegen_replay_catches_mismatch;
        Alcotest.test_case "golden --emit stage dumps" `Quick test_golden_emits;
        Alcotest.test_case "block comments are whitespace" `Quick
          test_block_comments_are_whitespace;
        Alcotest.test_case "unterminated comment is located" `Quick
          test_unterminated_comment_located;
        Alcotest.test_case "stray character is located" `Quick
          test_stray_character_located;
        Alcotest.test_case "undeclared array is located" `Quick
          test_undeclared_array_located;
        Alcotest.test_case "unbound variable is located (S006)" `Quick
          test_unbound_variable_located;
        Alcotest.test_case "shadowing loop index is located (S007)" `Quick
          test_shadowing_loop_located;
        Alcotest.test_case "loop index shadowing a parameter (S007)" `Quick
          test_shadowing_parameter_located;
        QCheck_alcotest.to_alcotest prop_roundtrip;
      ] );
  ]
