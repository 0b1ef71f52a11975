(* V007, the emitted-C access replay, against its oracle: [Core.Verify]
   traces capped per-thread streams and never emits the transformed
   side's [__home] reads; [Naive_codegen_replay] traces everything and
   filters.  Both must give the same diagnostics, text for text, on every
   compiled workload and on transformed programs mutated to diverge
   inside the comparison cap, beyond it, in length only, by a dropped
   statement, or by a division by zero beyond the cap (test_pipeline.ml
   adds the untransformed program replayed as the emitted one).  The workload cases double as the clean-V007 gate: every
   app whose emitted C replays must stay silent, and hpccg's and
   minimd's known defect must keep its exact text. *)

module Ast = Lang.Ast
module Diag = Lang.Diag
module Pipeline = Core.Pipeline

let cfg = lazy (Test_pipeline.default_cfg ())

type compiled = {
  index_lookup : string -> Affine.Vec.t -> int;
  original : Ast.program;
  transformed : Ast.program;
  report : Core.Transform.report;
  v007 : Diag.t list;  (** the pipeline's own (capped) replay verdict *)
}

(* What [occ --verify --emit-c] runs: codegen plus both verifier passes. *)
let compile ~what ?profile ?(index_lookup = fun _ _ -> 0) source =
  let r =
    Pipeline.compile ?profile ~codegen:"kernel" ~cfg:(Lazy.force cfg) source
  in
  let art = r.Pipeline.artifacts in
  let get = function
    | Some x -> x
    | None -> failwith (what ^ ": the pipeline stopped early")
  in
  {
    index_lookup;
    original = get art.Pipeline.program;
    transformed = get art.Pipeline.transformed;
    report = get art.Pipeline.report;
    v007 =
      List.filter
        (fun (d : Diag.t) -> String.equal d.Diag.code "V007")
        r.Pipeline.diags;
  }

let compile_app (a : Workloads.App.t) =
  let program = Workloads.App.program a in
  let analysis = Lang.Analysis.analyze program in
  compile ~what:a.Workloads.App.name
    ~profile:(Workloads.Profile.for_transform a analysis)
    ~index_lookup:(Workloads.App.index_lookup a)
    (Pipeline.Program program)

(* the 13 suite apps, the default tiled GEMM and jacobi.mc, each compiled
   at full scale once per test run and shared with test_interp.ml *)
let workloads =
  List.map
    (fun (a : Workloads.App.t) -> (a.Workloads.App.name, lazy (compile_app a)))
    (Workloads.Suite.all @ [ Workloads.Suite.by_name "gemm" ])
  @ [
      ( "jacobi.mc",
        lazy
          (compile ~what:"jacobi.mc"
             (Pipeline.Source
                {
                  file = Test_pipeline.jacobi_path;
                  src = Test_pipeline.read_file Test_pipeline.jacobi_path;
                })) );
    ]

let strings = List.map Diag.to_string

let naive_replay ~report ~original ~transformed =
  strings (Naive_codegen_replay.check_codegen ~report ~original ~transformed)

(* the known codegen defect: the emitted C performs about twice the
   accesses the layout implies on nest 1 *)
let known_v007 =
  [
    ( "hpccg",
      "emitted C replays 581632 accesses on thread 0 of nest 1, the \
       compiler's layout implies 294912" );
    ( "minimd",
      "emitted C replays 491520 accesses on thread 0 of nest 1, the \
       compiler's layout implies 245760" );
  ]

let test_workload (what, c) () =
  let c = Lazy.force c in
  Alcotest.(check (list string))
    "capped replay = materializing replay"
    (naive_replay ~report:c.report ~original:c.original
       ~transformed:c.transformed)
    (strings c.v007);
  Alcotest.(check (list string))
    "V007 verdict"
    (Option.to_list (List.assoc_opt what known_v007))
    (List.map (fun (d : Diag.t) -> d.Diag.message) c.v007)

(* --- mutated transformed programs ------------------------------------- *)

(* 64 rows over the 4 replay threads: thread t runs rows 16t..16t+15, one
   access per iteration in nest 0, so row 14 of a thread starts at its
   access 70000, past the 65536-access comparison cap; nest 1 stays short.
   Both arrays are strip-mined, so the subscripts are nested [/] and [%]. *)
let kernel_src =
  {|
param N = 64;
param M = 5000;
array A[N][M];
array B[N][M];
parfor i = 0 to N-1 {
  for j = 0 to M-1 {
    A[i][j] = 1;
  }
}
parfor i = 0 to N-1 {
  for j = 0 to 99 {
    B[i][j] = A[i][j];
    A[i][j] = B[i][j] + 1;
  }
}
|}

let kernel =
  lazy
    (compile ~what:"kernel"
       (Pipeline.Source { file = "k.mc"; src = kernel_src }))

(* the body of nest [k]'s inner loop, rewritten by [f] *)
let map_inner k f (p : Ast.program) =
  let inner = function
    | Ast.Loop outer -> (
      match outer.Ast.body with
      | [ Ast.Loop l ] ->
        Ast.Loop
          {
            outer with
            Ast.body = [ Ast.Loop { l with Ast.body = f l.Ast.body } ];
          }
      | _ -> failwith "map_inner: not a two-deep nest")
    | _ -> failwith "map_inner: not a loop"
  in
  {
    p with
    Ast.nests = List.mapi (fun i s -> if i = k then inner s else s) p.Ast.nests;
  }

(* [then_] on rows with [lhs op rhs], the statements as they were
   elsewhere *)
let guarded lhs op rhs then_ else_ =
  [
    Ast.If
      { Ast.lhs; op; rhs; then_; else_; cond_span = Lang.Span.dummy };
  ]

let row = Ast.Var "i"

(* the first statement's written element shifted by one in its last
   dimension *)
let perturb = function
  | Ast.Assign (r, e) :: rest ->
    let subs = List.rev r.Ast.subs in
    let subs = List.rev (Ast.Add (List.hd subs, Ast.Int 1) :: List.tl subs) in
    Ast.Assign ({ r with Ast.subs }, e) :: rest
  | _ -> failwith "perturb: no leading assignment"

(* one more read of the written element in the first statement *)
let extra_read = function
  | Ast.Assign (r, e) :: rest -> Ast.Assign (r, Ast.Add (e, Ast.Load r)) :: rest
  | _ -> failwith "extra_read: no leading assignment"

(* the first statement's written element divided, in its last
   dimension, by [i - i]: zero, but not a literal *)
let zero_divisor = function
  | Ast.Assign (r, e) :: rest ->
    let subs = List.rev r.Ast.subs in
    let subs =
      List.rev (Ast.Div (List.hd subs, Ast.Sub (row, row)) :: List.tl subs)
    in
    Ast.Assign ({ r with Ast.subs }, e) :: rest
  | _ -> failwith "zero_divisor: no leading assignment"

let check_mutant ~expect mutate () =
  let c = Lazy.force kernel in
  Alcotest.(check (list string)) "the unmutated kernel replays clean" []
    (strings c.v007);
  let transformed = mutate c.transformed in
  let got =
    strings
      (Core.Verify.check_codegen ~report:c.report ~original:c.original
         ~transformed)
  in
  Alcotest.(check (list string))
    "capped replay = materializing replay"
    (naive_replay ~report:c.report ~original:c.original ~transformed)
    got;
  Alcotest.(check (list string))
    "V007 messages" expect
    (List.map
       (fun s ->
         match Astring.String.cut ~sep:"error[V007]: " s with
         | Some (_, msg) -> msg
         | None -> s)
       got)

let suite =
  [
    ( "verify.codegen_replay",
      List.map
        (fun ((what, _) as w) ->
          Alcotest.test_case ("oracle and V007 verdict on " ^ what) `Quick
            (test_workload w))
        workloads
      @ [
          Alcotest.test_case "perturbed subscript in a later nest and thread"
            `Quick
            (check_mutant
               ~expect:
                 [
                   "emitted C diverges from the chosen layout at access 1 of \
                    thread 2, nest 1: C performs a write of B+65, the \
                    layout implies a write of B+64";
                 ]
               (map_inner 1 (fun b ->
                    guarded row Ast.Ge (Ast.Int 32) (perturb b) b)));
          Alcotest.test_case "divergence only beyond the cap" `Quick
            (check_mutant ~expect:[]
               (map_inner 0 (fun b ->
                    guarded
                      (Ast.Mod (row, Ast.Int 16))
                      Ast.Ge (Ast.Int 14) (perturb b) b)));
          Alcotest.test_case "extra read beyond the cap" `Quick
            (check_mutant
               ~expect:
                 [
                   "emitted C replays 85000 accesses on thread 0 of nest 0, \
                    the compiler's layout implies 80000";
                 ]
               (map_inner 0 (fun b ->
                    guarded row Ast.Eq (Ast.Int 14) (extra_read b) b)));
          Alcotest.test_case "zero divisor beyond the cap" `Quick
            (check_mutant
               ~expect:[ "k.mc:108-115: error[I002]: zero divisor at run time" ]
               (map_inner 0 (fun b ->
                    guarded
                      (Ast.Mod (row, Ast.Int 16))
                      Ast.Ge (Ast.Int 14) (zero_divisor b) b)));
          Alcotest.test_case "dropped statement" `Quick
            (check_mutant
               ~expect:
                 [
                   "emitted C replays 3200 accesses on thread 0 of nest 1, \
                    the compiler's layout implies 6400";
                 ]
               (map_inner 1 (fun b -> [ List.hd b ])));
        ] );
  ]
