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

(* the 13 suite apps, the default tiled GEMM and jacobi.mc *)
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

(* one property per program, so every one runs on every test run, each
   on a fresh random thread layout *)
let prop_named c =
  QCheck.Test.make ~name:("staged = naive on " ^ c.what) ~count:1
    (QCheck.make
       ~print:(fun (threads, tpc) -> print_case (c, (threads, tpc)))
       gen_threads)
    (fun (threads, tpc) -> same_trace ~threads ~tpc c)

let suite =
  [
    ( "interp_oracle",
      List.map QCheck_alcotest.to_alcotest
        (prop_fuzz_kernels :: List.map prop_named named_cases) );
  ]
