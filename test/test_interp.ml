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
  let addr_of a = Lang.Interp.Fn (addr_of a) in
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
         (Gen.oneof [ Test_fuzz.gen_kernel; Test_fuzz.gen_kernel_wide ]))
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
            (match
               Lang.Parser.parse_result
                 (In_channel.with_open_bin "../examples/jacobi.mc" In_channel.input_all)
             with
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
      let addr_of name =
        Lang.Interp.Fn
          (fun v ->
            incr calls;
            (id name lsl 24) lor mix v)
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

(* [trace_capped] against the naive walk itself, on wide kernels with
   strip-mined [((e/k1)/k2)%k3] chains, negative and odd loop ranges:
   at caps 0, 1, 7 and unbounded, each thread stores the head of the
   naive stream and counts all of it.  Chain subscripts stage as tables
   over their operand's range and, past the cap, a reference made only
   of them skips its subscripts; neither may move an access or a
   count. *)
let prop_capped_chains =
  let mix v = Array.fold_left (fun a x -> (a * 131) + x) 0 v land 0xffffff in
  let addr_of name v = (Hashtbl.hash name land 0xff lsl 24) lor mix v in
  let gen = Gen.pair Test_fuzz.gen_kernel_wide (Gen.int_range 1 8) in
  QCheck.Test.make ~name:"capped = naive on strip-mined chains" ~count:200
    (QCheck.make
       ~print:(fun (k, threads) ->
         Printf.sprintf "%s\nthreads=%d" k.Test_fuzz.src threads)
       gen)
    (fun (k, threads) ->
      let p = Test_fuzz.parse k.Test_fuzz.src in
      let index_lookup _ v = Array.fold_left ( + ) 0 v mod 5 in
      let want =
        Naive_interp.trace_gen ~threads ~addr_of ~index_lookup
          ~site_of:(fun _ -> 0) p
      in
      List.for_all
        (fun cap ->
          let head s = Array.sub s 0 (min cap (Array.length s)) in
          Lang.Interp.trace_capped ~threads ~cap
            ~addr_of:(fun a -> Lang.Interp.Fn (addr_of a))
            ~index_lookup p
          = List.map
              (fun (ph, _) -> (Array.map head ph, Array.map Array.length ph))
              want)
        [ 0; 1; 7; max_int ])

(* Composed addresses: each array of a wide random kernel (constant
   offsets, [R*i+j], negated iterators, odd bounds, subscripts that leave
   the array) gets a random layout from [Test_core.gen_layout], and the
   staged trace under the layouts' [Layout.addr_map] must equal
   [Naive_interp] under [Naive_layout], exceptions included.
   [trace_capped] (one array excluded) must store the head of the naive
   trace with that array's accesses removed and count the rest.  An
   address past the cap is never computed, so where the naive trace
   fails the capped run may fail elsewhere or not at all. *)
let prop_composed_addresses =
  let arrays = [ "A0"; "A1"; "A2"; "IX" ] in
  let id = function "A0" -> 1 | "A1" -> 2 | "A2" -> 3 | "IX" -> 4 | _ -> 5 in
  let gen =
    let open Gen in
    let* k = Test_fuzz.gen_kernel_wide in
    let* faults = frequency [ (3, return false); (1, return true) ] in
    let* layouts =
      flatten_l
        (List.map
           (fun _ ->
             Test_core.gen_layout ~faults ~cols:2
               [| k.Test_fuzz.n; k.Test_fuzz.n |])
           arrays)
    in
    let* threads = int_range 1 8 in
    let* cap = int_range 0 3000 in
    let* excluded = oneofl [ "none"; "A0"; "A1"; "IX" ] in
    return (k, List.combine arrays layouts, threads, cap, excluded)
  in
  let print (k, layouts, threads, cap, excluded) =
    Printf.sprintf "%s\n%s\nthreads=%d cap=%d exclude=%s" k.Test_fuzz.src
      (String.concat "\n"
         (List.map
            (fun (a, l) -> a ^ ": " ^ Test_core.print_layout l)
            layouts))
      threads cap excluded
  in
  QCheck.Test.make ~name:"composed addresses = naive layout evaluation"
    ~count:300 (QCheck.make ~print gen)
    (fun (k, layouts, threads, cap, excluded) ->
      let p = Test_fuzz.parse k.Test_fuzz.src in
      let index_lookup _ v = Array.fold_left ( + ) 0 v mod 7 in
      let base a = id a * 1_000_003 in
      let staged a =
        Core.Layout.addr_map ~base:(base a) ~scale:8 (List.assoc a layouts)
      in
      let naive a v =
        base a + (8 * Naive_layout.offset (List.assoc a layouts) v)
      in
      let run f = match f () with v -> Ok v | exception e -> Error e in
      let want =
        run (fun () ->
            Naive_interp.trace_gen ~threads ~addr_of:naive ~index_lookup
              ~site_of:(fun r -> id r.Ast.array)
              p)
      in
      let got =
        run (fun () ->
            Lang.Interp.trace ~threads ~addr_of:staged ~index_lookup p)
      in
      let capped =
        run (fun () ->
            Lang.Interp.trace_capped ~threads ~cap
              ~exclude:(String.equal excluded) ~addr_of:staged ~index_lookup p)
      in
      let same_full =
        match (want, got) with
        | Ok w, Ok g -> List.map fst w = g
        | Error e, Error e' -> e = e'
        | _ -> false
      in
      let same_capped =
        match (want, capped) with
        | Ok w, Ok c ->
          let kept =
            List.map
              (fun (ph, sites) ->
                Array.mapi
                  (fun t s ->
                    List.filteri
                      (fun i _ -> sites.(t).(i) <> id excluded)
                      (Array.to_list s))
                  ph)
              w
          in
          let head s = Array.of_list (List.filteri (fun i _ -> i < cap) s) in
          c
          = List.map
              (fun ph -> (Array.map head ph, Array.map List.length ph))
              kept
        | Error _, _ -> true
        | Ok _, Error _ -> false
      in
      same_full && same_capped)

(* Straight-line innermost loops, the shape the interpreter steps through
   one staged form per reference: assignments only, loads of plain
   arrays, subscripts affine in [i] and [j] (inner strides negative, zero
   and positive) or strip-mined [/]/[%] chains of affine operands, loops
   that may be empty, start below zero or be the only loop.  Each array
   gets one of three layouts: the identity, a customized one with
   [Table] components (some of whose entries fault), or row-major over
   padded extents, the emitted side of V007.  Against [Naive_interp]:
   - the full trace and its site streams, exceptions included;
   - at caps 0, 1, 7, one that falls inside an iteration and [max_int],
     with one array excluded or none: each thread's stored head and
     count, and [addr_of] called once per reference that stored an
     access, on that first stored run, and never for any other;
   - on one thread, where a layout raises: the stored prefix up to the
     raising access traces cleanly, and one access more raises the
     naive walk's exception. *)
let prop_stepped_loops =
  let arrays = [ "A0"; "A1"; "A2" ] in
  let id a = 1 + List.length (List.filter (fun b -> b < a) arrays) in
  let open Gen in
  let affine ~outer =
    let* a = if outer then oneofl [ 0; 1; -1; 2 ] else return 0 in
    let* b = oneofl [ -2; -1; 0; 0; 0; 1; 1; 2; 3 ] in
    let* c = int_range (-3) 3 in
    let* r = bool in
    let i = if r then Ast.Mul (Ast.Var "R", Ast.Var "i") else Ast.Mul (Ast.Int a, Ast.Var "i") in
    let e = Ast.Add (Ast.Mul (Ast.Int b, Ast.Var "j"), Ast.Int c) in
    return (if outer && (r || a <> 0) then Ast.Add (i, e) else e)
  in
  let sub ~outer =
    let k = oneofl [ 1; 2; 3; 4; 8 ] in
    frequency
      [
        (3, affine ~outer);
        (1, map2 (fun e k -> Ast.Div (e, Ast.Int k)) (affine ~outer) k);
        (1, map2 (fun e k -> Ast.Mod (e, Ast.Int k)) (affine ~outer) k);
        ( 2,
          map3
            (fun e k1 k2 -> Ast.Mod (Ast.Div (Ast.Div (e, Ast.Int k1), Ast.Int k2), Ast.Int 3))
            (affine ~outer) k k );
      ]
  in
  let gen_ref ~outer =
    let* array = oneofl arrays in
    let* s1 = sub ~outer in
    let* s2 = sub ~outer in
    return (Ast.mk_ref ~array ~subs:[ s1; s2 ] ())
  in
  let gen_program =
    let* outer = bool in
    let* n = int_range 4 9 in
    let* stmts =
      list_size (int_range 1 3)
        (let* lhs = gen_ref ~outer in
         let* r1 = gen_ref ~outer in
         let* r2 = gen_ref ~outer in
         let* rhs =
           oneofl
             [
               Ast.Load r1;
               Ast.Add (Ast.Load r1, Ast.Load r2);
               Ast.Mul (Ast.Sub (Ast.Load r1, Ast.Int 1), Ast.Load r2);
               Ast.Div (Ast.Load r1, Ast.Int 3);
               Ast.Int 5;
             ]
         in
         return (Ast.Assign (lhs, rhs)))
    in
    let range = pair (int_range (-2) 2) (oneofl [ 0; 1; 2; 5; 9 ]) in
    let* (lo_i, len_i), (lo_j, len_j) = pair range range in
    let* par = oneofl [ `Outer; `Inner; `Neither ] in
    let loop index (lo, len) parallel body =
      Ast.Loop
        {
          Ast.index;
          lo = Ast.Int lo;
          hi = Ast.Int (lo + len - 1);
          parallel;
          body;
          loop_span = Lang.Span.dummy;
        }
    in
    let inner = loop "j" (lo_j, len_j) (par = `Inner || not outer) stmts in
    return
      {
        Ast.params = [ ("N", n); ("R", 3) ];
        decls =
          List.map
            (fun name -> Ast.mk_decl ~name ~extents:[ Ast.Var "N"; Ast.Var "N" ] ())
            arrays;
        nests =
          [ (if outer then loop "i" (lo_i, len_i) (par = `Outer) [ inner ] else inner) ];
      }
  in
  let gen_layout n =
    let extents = [| n; n |] in
    frequency
      [
        (1, return (Core.Layout.identity ~array:"x" ~extents ~elem_bytes:8));
        (2, Test_core.gen_layout ~cols:2 extents);
        ( 1,
          map2
            (fun p q ->
              Core.Layout.identity ~array:"x" ~extents:[| n + p; n + q |]
                ~elem_bytes:8)
            (int_range 0 5) (int_range 1 5) );
      ]
  in
  let gen =
    let* p = gen_program in
    let n = List.assoc "N" p.Ast.params in
    let* layouts = flatten_l (List.map (fun _ -> gen_layout n) arrays) in
    let* threads = int_range 1 5 in
    let* excluded = oneofl [ "none"; "A0"; "A1" ] in
    return (p, List.combine arrays layouts, threads, excluded)
  in
  let print (p, layouts, threads, excluded) =
    Printf.sprintf "%s\n%s\nthreads=%d exclude=%s" (Ast.program_to_string p)
      (String.concat "\n"
         (List.map (fun (a, l) -> a ^ ": " ^ Test_core.print_layout l) layouts))
      threads excluded
  in
  QCheck.Test.make ~name:"stepped loops = naive at every cap and layout" ~count:1000
    (QCheck.make ~print gen)
    (fun (p, layouts, threads, excluded) ->
      let base a = id a * 1_000_003 in
      let staged a = Core.Layout.addr_map ~base:(base a) ~scale:8 (List.assoc a layouts) in
      let naive a v = base a + (8 * Naive_layout.offset (List.assoc a layouts) v) in
      let sites = Lang.Sites.of_program p in
      let site_of = Lang.Sites.id_of_ref sites in
      let array_of = Array.map (fun s -> s.Lang.Sites.array) (Lang.Sites.sites sites) in
      let run f = match f () with v -> Ok v | exception e -> Error e in
      let want = run (fun () -> Naive_interp.trace_gen ~threads ~addr_of:naive ~site_of p) in
      let got =
        run (fun () -> Lang.Interp.trace_tagged ~threads ~addr_of:staged ~site_of p)
      in
      let same_full =
        match (want, got) with
        | Ok w, Ok g -> w = g
        | Error e, Error e' -> e = e'
        | _ -> false
      in
      let per_iteration =
        List.length (List.filter (fun a -> a <> excluded) (Array.to_list array_of))
      in
      let capped cap =
        match want with
        | Error _ -> true
        | Ok w ->
          let calls = Hashtbl.create 4 in
          let addr_of a =
            Hashtbl.replace calls a (1 + Option.value ~default:0 (Hashtbl.find_opt calls a));
            staged a
          in
          let got =
            Lang.Interp.trace_capped ~threads ~cap ~exclude:(String.equal excluded) ~addr_of p
          in
          let kept =
            List.map
              (fun (ph, ss) ->
                Array.mapi
                  (fun t s ->
                    List.filter
                      (fun (_, site) -> array_of.(site) <> excluded)
                      (List.combine (Array.to_list s) (Array.to_list ss.(t))))
                  ph)
              w
          in
          let head l = List.filteri (fun i _ -> i < cap) l in
          let resolved = Hashtbl.create 8 in
          List.iter
            (Array.iter (fun l -> List.iter (fun (_, site) -> Hashtbl.replace resolved site ()) (head l)))
            kept;
          let want_calls a =
            Hashtbl.fold (fun site () n -> if array_of.(site) = a then n + 1 else n) resolved 0
          in
          got
          = List.map
              (fun ph ->
                ( Array.map (fun l -> Array.of_list (List.map fst (head l))) ph,
                  Array.map List.length ph ))
              kept
          && List.for_all
               (fun a -> Option.value ~default:0 (Hashtbl.find_opt calls a) = want_calls a)
               arrays
      in
      (* on one thread the evaluation order is each stream's order: the
         raising access is the [k]-th the naive walk addresses *)
      let raises_at_the_same_access () =
        let count = ref 0 in
        let counted a v =
          incr count;
          naive a v
        in
        match Naive_interp.trace_gen ~threads:1 ~addr_of:counted p with
        | _ -> true
        | exception e ->
          let k = !count - 1 in
          let capped cap =
            run (fun () -> Lang.Interp.trace_capped ~threads:1 ~cap ~addr_of:staged p)
          in
          Result.is_ok (capped k)
          && (match capped (k + 1) with Error e' -> e = e' | Ok _ -> false)
      in
      same_full
      && List.for_all capped [ 0; 1; 7; (3 * per_iteration) + 1; max_int ]
      && raises_at_the_same_access ())

(* A reference with no subscripts under a map of no columns (a
   zero-dimensional array, which the checker rejects but the interpreter
   still traces) has a form of constants only: stepped, in a loop
   beside a 1-D reference, it must address like the naive walk. *)
let test_rank_zero_stepped () =
  let layouts =
    [
      ("S", Core.Layout.identity ~array:"S" ~extents:[||] ~elem_bytes:8);
      ("A", Core.Layout.identity ~array:"A" ~extents:[| 8 |] ~elem_bytes:8);
    ]
  in
  let base a = if a = "S" then 1000 else 2000 in
  let p =
    {
      Ast.params = [];
      decls = [];
      nests =
        [
          Ast.Loop
            {
              Ast.index = "i";
              lo = Ast.Int 0;
              hi = Ast.Int 7;
              parallel = true;
              body =
                [
                  Ast.Assign
                    ( Ast.mk_ref ~array:"S" ~subs:[] (),
                      Ast.Load (Ast.mk_ref ~array:"A" ~subs:[ Ast.Var "i" ] ()) );
                ];
              loop_span = Lang.Span.dummy;
            };
        ];
    }
  in
  let want =
    Naive_interp.trace_gen ~threads:2
      ~addr_of:(fun a v ->
        base a + (8 * Naive_layout.offset (List.assoc a layouts) v))
      p
  in
  let got =
    Lang.Interp.trace ~threads:2
      ~addr_of:(fun a ->
        Core.Layout.addr_map ~base:(base a) ~scale:8 (List.assoc a layouts))
      p
  in
  Alcotest.(check bool) "stepped = naive" true (List.map fst want = got)

(* A constant operand is folded into its operator's closure, and a chain
   of positive constant divisors into one division; the failure points
   and values must not move: a zero divisor raises after the left
   operand's accesses, truncation composes on negative operands, and an
   unbound name fails (I001) only when evaluated. *)
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
  let staged ~addr_of p =
    ignore
      (Lang.Interp.trace ~threads:2
         ~addr_of:(fun a -> Lang.Interp.Fn (addr_of a))
         p)
  in
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
        [ "I002"; "B[0]" ] );
      ( "B[i] mod 0",
        loop ~hi:3 (Ast.Mod (b_i, Ast.Int 0)),
        [ "I002"; "B[0]" ] );
      ( "i / 0",
        loop ~hi:3 (Ast.Div (Ast.Var "i", Ast.Int 0)),
        [ "I002" ] );
      ( "i / 2, i mod 2",
        loop ~hi:1
          (Ast.Add
             ( Ast.Div (Ast.Var "i", Ast.Int 2),
               Ast.Mul (Ast.Int 4, Ast.Mod (Ast.Var "i", Ast.Int 2)) )),
        [ "ok"; "A[0]"; "A[4]" ] );
      ( "(B[i] / 2) / 0",
        loop ~hi:3 (Ast.Div (Ast.Div (b_i, Ast.Int 2), Ast.Int 0)),
        [ "I002"; "B[0]" ] );
      ( "(B[i] / 2) mod 0",
        loop ~hi:3 (Ast.Mod (Ast.Div (b_i, Ast.Int 2), Ast.Int 0)),
        [ "I002"; "B[0]" ] );
      ( "(((i - 9) / 2) / 3) mod 4",
        loop ~hi:3
          (Ast.Mod
             ( Ast.Div
                 (Ast.Div (Ast.Sub (Ast.Var "i", Ast.Int 9), Ast.Int 2), Ast.Int 3),
               Ast.Int 4 )),
        [ "ok"; "A[-1]"; "A[-1]"; "A[-1]"; "A[-1]" ] );
      ( "((i + 5) / 3) / 2",
        loop ~hi:3
          (Ast.Div (Ast.Div (Ast.Add (Ast.Var "i", Ast.Int 5), Ast.Int 3), Ast.Int 2)),
        [ "ok"; "A[0]"; "A[1]"; "A[1]"; "A[1]" ] );
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
        (prop_fuzz_kernels :: prop_capped :: prop_capped_chains
       :: prop_composed_addresses :: prop_stepped_loops
        :: List.map prop_named named_cases)
      @ [
          Alcotest.test_case "constant operands keep the failure points" `Quick
            test_constant_operand_failures;
          Alcotest.test_case "rank-zero reference in a stepped loop" `Quick
            test_rank_zero_stepped;
        ] );
  ]
