(* The staged trace generator against its oracle: [Lang.Interp] must
   produce exactly the access streams and site streams of the naive AST
   walk in [Naive_interp], access for access, on every thread layout —
   including the evaluation order (right operand of a binary operator
   first, [if] lhs first, assignment rhs before the lhs subscripts). *)

module Ast = Lang.Ast
module Gen = QCheck.Gen

(* Distinct arrays land in distinct address ranges; the index part is an
   injective-enough mix so that any reordering of accesses shows. *)
let addr_of name v =
  Array.fold_left (fun a x -> (a * 4099) + x) (Hashtbl.hash name land 0xfff) v

type case = {
  what : string;
  program : Ast.program Lazy.t;
  index_lookup : string -> Affine.Vec.t -> int;
}

(* threads 1..8 with one or two threads per core (two only when it
   divides the thread count) *)
let gen_threads =
  let open Gen in
  let* threads = int_range 1 8 in
  let* tpc = if threads mod 2 = 0 then int_range 1 2 else return 1 in
  return (threads, tpc)

let same_trace ~threads ~tpc c =
  let program = Lazy.force c.program in
  let site_of = Lang.Sites.id_of_ref (Lang.Sites.of_program program) in
  let want =
    Naive_interp.trace_gen ~threads ~threads_per_core:tpc ~addr_of
      ~index_lookup:c.index_lookup ~site_of program
  in
  let got =
    Lang.Interp.trace_tagged ~threads ~threads_per_core:tpc ~addr_of
      ~index_lookup:c.index_lookup ~site_of program
  in
  let untagged =
    Lang.Interp.trace ~threads ~threads_per_core:tpc ~addr_of
      ~index_lookup:c.index_lookup program
  in
  want = got && List.map fst want = untagged

let print_case (c, (threads, tpc)) =
  Printf.sprintf "%s, threads=%d, threads_per_core=%d" c.what threads tpc

let prop_fuzz_kernels =
  let gen =
    Gen.pair
      (Gen.map
         (fun (k : Test_fuzz.kernel) ->
           {
             what = k.Test_fuzz.src;
             program = lazy (Test_fuzz.parse k.Test_fuzz.src);
             index_lookup = (fun _ v -> Array.fold_left ( + ) 0 v mod 5);
           })
         Test_fuzz.gen_kernel)
      gen_threads
  in
  QCheck.Test.make ~name:"staged = naive on random kernels"
    ~count:100
    (QCheck.make ~print:print_case gen)
    (fun (c, (threads, tpc)) -> same_trace ~threads ~tpc c)

(* the 13 suite apps, the default tiled GEMM and jacobi.mc, each also
   after the layout pass *)
let named_cases =
  let app (a : Workloads.App.t) =
    {
      what = a.Workloads.App.name;
      program = lazy (Workloads.App.program a);
      index_lookup = Workloads.App.index_lookup a;
    }
  in
  List.map app (Workloads.Suite.all @ [ Workloads.Suite.by_name "gemm" ])
  @ [
      {
        what = "jacobi.mc";
        program =
          lazy
            (match Lang.Parser.parse_file_result "../examples/jacobi.mc" with
            | Ok p -> p
            | Error _ -> failwith "jacobi.mc does not parse");
        index_lookup = (fun _ _ -> 0);
      };
    ]
  (* the same programs as [Core.Pipeline.compile] rewrites them: nested
     [/] and [%] subscripts and [__home] index loads, the forms the staging
     folds constant operands into *)
  @ List.map
      (fun (what, (c : Test_codegen_replay.compiled Lazy.t)) ->
        {
          what = "transformed " ^ what;
          program = lazy (Lazy.force c).transformed;
          index_lookup =
            (fun a v ->
              if String.equal a "__home" then Array.fold_left ( + ) 0 v
              else (Lazy.force c).index_lookup a v);
        })
      Test_codegen_replay.workloads

(* one property per program, so every one runs on every test run, each
   on a fresh random thread layout *)
let prop_named c =
  QCheck.Test.make ~name:("staged = naive on " ^ c.what) ~count:1
    (QCheck.make
       ~print:(fun (threads, tpc) -> print_case (c, (threads, tpc)))
       gen_threads)
    (fun (threads, tpc) -> same_trace ~threads ~tpc c)

(* [trace_capped] against [trace]: each thread's stored stream is the
   head of its full stream with the excluded array's accesses removed,
   its count is that filtered stream's length, and the address function
   runs once per stored access only. *)
let prop_capped =
  let id = function "A0" -> 1 | "A1" -> 2 | "A2" -> 3 | "IX" -> 4 | _ -> 5 in
  let mix v = Array.fold_left (fun a x -> (a * 131) + x) 0 v land 0xffffff in
  let gen =
    Gen.(
      quad Test_fuzz.gen_kernel (int_range 1 8) (int_range 0 4000)
        (oneofl [ "none"; "A0"; "A1"; "IX" ]))
  in
  QCheck.Test.make ~name:"capped = head of the filtered full trace" ~count:100
    (QCheck.make
       ~print:(fun (k, threads, cap, excluded) ->
         Printf.sprintf "%s\nthreads=%d cap=%d exclude=%s" k.Test_fuzz.src
           threads cap excluded)
       gen)
    (fun (k, threads, cap, excluded) ->
      let p = Test_fuzz.parse k.Test_fuzz.src in
      let index_lookup _ v = Array.fold_left ( + ) 0 v mod 5 in
      let calls = ref 0 in
      let addr_of name v =
        incr calls;
        (id name lsl 24) lor mix v
      in
      let full = Lang.Interp.trace ~threads ~addr_of ~index_lookup p in
      calls := 0;
      let capped =
        Lang.Interp.trace_capped ~threads ~cap
          ~exclude:(String.equal excluded) ~addr_of ~index_lookup p
      in
      let kept a = Lang.Interp.addr_of_access a lsr 24 <> id excluded in
      let want =
        List.map
          (fun ph ->
            let ph =
              Array.map (fun s -> List.filter kept (Array.to_list s)) ph
            in
            ( Array.map
                (fun s -> Array.of_list (List.filteri (fun i _ -> i < cap) s))
                ph,
              Array.map List.length ph ))
          full
      in
      let stored =
        List.fold_left
          (fun n (ph, _) ->
            Array.fold_left (fun n s -> n + Array.length s) n ph)
          0 capped
      in
      want = capped && !calls = stored)

(* A constant operand is folded into its operator's closure; the failure
   points must not move: a zero divisor raises after the left operand's
   accesses, and an unbound name fails (I001) only when evaluated. *)
let test_constant_operand_failures () =
  let loop ~hi sub =
    {
      Ast.params = [];
      decls =
        [
          Ast.mk_decl ~name:"A" ~extents:[ Ast.Int 8 ] ();
          Ast.mk_decl ~name:"B" ~extents:[ Ast.Int 8 ] ();
        ];
      nests =
        [
          Ast.Loop
            {
              Ast.index = "i";
              lo = Ast.Int 0;
              hi = Ast.Int hi;
              parallel = true;
              body =
                [
                  Ast.Assign
                    (Ast.mk_ref ~array:"A" ~subs:[ sub ] (), Ast.Int 1);
                ];
              loop_span = Lang.Span.dummy;
            };
        ];
    }
  in
  let run trace p =
    let seen = ref [] in
    let addr_of name v =
      seen := Printf.sprintf "%s[%d]" name v.(0) :: !seen;
      0
    in
    let outcome =
      match trace ~addr_of p with
      | () -> "ok"
      | exception Division_by_zero -> "Division_by_zero"
      | exception Lang.Diag.Fatal d -> d.Lang.Diag.code
    in
    outcome :: List.rev !seen
  in
  let staged ~addr_of p = ignore (Lang.Interp.trace ~threads:2 ~addr_of p) in
  let naive ~addr_of p =
    ignore (Naive_interp.trace_gen ~threads:2 ~addr_of p)
  in
  let b_i = Ast.Load (Ast.mk_ref ~array:"B" ~subs:[ Ast.Var "i" ] ()) in
  List.iter
    (fun (what, p, want) ->
      Alcotest.(check (list string)) (what ^ ": naive") want (run naive p);
      Alcotest.(check (list string)) (what ^ ": staged") want (run staged p))
    [
      ( "B[i] / 0",
        loop ~hi:3 (Ast.Div (b_i, Ast.Int 0)),
        [ "Division_by_zero"; "B[0]" ] );
      ( "B[i] mod 0",
        loop ~hi:3 (Ast.Mod (b_i, Ast.Int 0)),
        [ "Division_by_zero"; "B[0]" ] );
      ( "i / 0",
        loop ~hi:3 (Ast.Div (Ast.Var "i", Ast.Int 0)),
        [ "Division_by_zero" ] );
      ( "i / 2, i mod 2",
        loop ~hi:1
          (Ast.Add
             ( Ast.Div (Ast.Var "i", Ast.Int 2),
               Ast.Mul (Ast.Int 4, Ast.Mod (Ast.Var "i", Ast.Int 2)) )),
        [ "ok"; "A[0]"; "A[4]" ] );
      ( "unbound, never run",
        loop ~hi:(-1) (Ast.Div (Ast.Var "zz", Ast.Int 2)),
        [ "ok" ] );
      ( "unbound, run",
        loop ~hi:3 (Ast.Mod (Ast.Var "zz", Ast.Int 2)),
        [ "I001" ] );
    ]

let suite =
  [
    ( "interp_oracle",
      List.map QCheck_alcotest.to_alcotest
        (prop_fuzz_kernels :: prop_capped :: List.map prop_named named_cases)
      @ [
          Alcotest.test_case "constant operands keep the failure points" `Quick
            test_constant_operand_failures;
        ] );
  ]
