(* Fuzzing the whole pipeline with randomly generated affine kernels:
   every generated program must parse/print round-trip, produce injective
   layouts under the pass, and conserve accesses through the simulator. *)

module Ast = Lang.Ast
module Gen = QCheck.Gen

(* --- random affine kernel generator --- *)

(* Subscript templates over the iterators (i outer, j inner); the last
   two are non-affine ([/] and [%]), which the analysis treats like an
   indexed reference. *)
let subscript_choices_2d =
  [
    (fun () -> (Ast.Var "i", Ast.Var "j"));
    (fun () -> (Ast.Var "j", Ast.Var "i"));
    (fun () -> (Ast.Add (Ast.Var "i", Ast.Int 1), Ast.Var "j"));
    (fun () -> (Ast.Var "i", Ast.Sub (Ast.Var "j", Ast.Int 1)));
    (fun () -> (Ast.Var "i", Ast.Add (Ast.Var "j", Ast.Int 2)));
    (fun () -> (Ast.Div (Ast.Var "i", Ast.Int 2), Ast.Var "j"));
    (fun () -> (Ast.Var "i", Ast.Mod (Ast.Var "j", Ast.Int 4)));
  ]

type kernel = { src : string; n : int }

(* A strip-mined chain over an affine [e] — [((e/k1)/k2)%k3] as the pass
   emits it, or a shorter [/]/[%] chain — with positive literal divisors;
   rarely a division by the parameter [R] instead, which is not a
   literal.  [e] may be negative, and [K*i] with a large [K] spans more
   values than a chain table holds. *)
let gen_chain it other =
  let open Gen in
  let v = Ast.Var it and k = int_range 1 9 in
  let* e =
    frequency
      [
        (3, return v);
        (2, map (fun c -> Ast.Add (v, Ast.Int c)) (int_range (-3) 3));
        (1, return (Ast.Add (Ast.Mul (Ast.Var "R", v), Ast.Var other)));
        (1, return (Ast.Sub (Ast.Sub (Ast.Var "N", Ast.Int 1), v)));
        (1, map (fun c -> Ast.Add (Ast.Neg v, Ast.Int c)) (int_range (-3) 3));
        (1, map (fun c -> Ast.Mul (Ast.Int c, v)) (int_range 1700 5000));
      ]
  in
  let* k1 = k and* k2 = k and* k3 = k in
  frequency
    [
      (4, return (Ast.Mod (Ast.Div (Ast.Div (e, Ast.Int k1), Ast.Int k2), Ast.Int k3)));
      (1, return (Ast.Mod (Ast.Div (e, Ast.Int k1), Ast.Int k2)));
      (1, return (Ast.Div (Ast.Mod (e, Ast.Int k1), Ast.Int k2)));
      (1, return (Ast.Mod (e, Ast.Int k1)));
      (1, return (Ast.Mod (Ast.Div (e, Ast.Var "R"), Ast.Int k1)));
    ]

(* The wide subscript grammar, one dimension over iterator [it] with
   [other] the other iterator: constant offsets, parameter products
   ([R*i+j], [R*i+k]), negated iterators ([N-1-i], [-i+k]), and offsets
   large enough to leave the array; [i/2] and the {!gen_chain} chains
   keep non-affine forms in the mix. *)
let gen_wide_sub it other =
  let open Gen in
  let v = Ast.Var it and k = int_range (-3) 3 in
  frequency
    [
      (2, return v);
      (3, map (fun c -> Ast.Add (v, Ast.Int c)) k);
      (2, return (Ast.Add (Ast.Mul (Ast.Var "R", v), Ast.Var other)));
      (2, map (fun c -> Ast.Add (Ast.Mul (Ast.Var "R", v), Ast.Int c)) k);
      (2, return (Ast.Sub (Ast.Sub (Ast.Var "N", Ast.Int 1), v)));
      (1, map (fun c -> Ast.Add (Ast.Neg v, Ast.Int c)) k);
      (1, map (fun c -> Ast.Sub (v, Ast.Int c)) (int_range 4 40));
      (1, return (Ast.Div (v, Ast.Int 2)));
      (2, gen_chain it other);
    ]

(* One statement per array, [A[s] = B[r] + 1], optionally widened with
   the shapes the trace generator must order exactly: a second load in
   the right operand of the [+], an [if] with loads on both sides of its
   condition, and a reference subscripted through an index array.  With
   [wide], subscripts come from {!gen_wide_sub}, the loop bounds and [N]
   may be odd, and the loops may start below zero.  With [hostile], a
   parameter [D], the extents and the loop bounds may divide, or take
   [%], by 0 or by a negative literal, and the inner bound may divide by
   [D]; such text need not analyze. *)
let gen_kernel_of ?(hostile = false) ~wide () : kernel Gen.t =
  let open Gen in
  let divided =
    if hostile then
      frequency
        [
          (2, return (fun e -> e));
          ( 3,
            map2
              (fun op d e -> Printf.sprintf "(%s) %s %d" e op d)
              (oneofl [ "/"; "%" ])
              (oneofl [ 0; 0; -1; -3; 2 ]) );
        ]
    else return (fun e -> e)
  in
  let* n_arrays = int_range 1 3 in
  let* n =
    if wide then int_range 8 40 else map (fun k -> 8 * k) (int_range 4 8)
  in
  let* r = int_range 2 3 in
  let* lo = if wide then int_range (-4) 3 else return 2 in
  let* hi_gap = if wide then int_range 1 4 else return 3 in
  (* one subscript choice per load until they run out, then (i, j) *)
  let* sub_choices =
    list_size (int_range n_arrays ((3 * n_arrays) + 5)) (int_range 0 6)
  in
  let* wide_subs =
    list_size
      (int_range n_arrays ((3 * n_arrays) + 5))
      (pair (gen_wide_sub "i" "j") (gen_wide_sub "j" "i"))
  in
  let* par_inner = bool in
  let* two_loads = bool in
  let* guarded = bool in
  let* indexed = bool in
  let arrays = List.init n_arrays (fun i -> Printf.sprintf "A%d" i) in
  let buf = Buffer.create 256 in
  let* d_param = divided and* extent = divided and* outer_hi = divided in
  let* inner_hi =
    if hostile then oneof [ divided; return (fun e -> e ^ " / D") ] else divided
  in
  Buffer.add_string buf (Printf.sprintf "param N = %d;\n" n);
  if wide then Buffer.add_string buf (Printf.sprintf "param R = %d;\n" r);
  if hostile then Buffer.add_string buf (Printf.sprintf "param D = %s;\n" (d_param "N"));
  List.iter
    (fun a -> Buffer.add_string buf (Printf.sprintf "array %s[%s][N];\n" a (extent "N")))
    arrays;
  if indexed then Buffer.add_string buf "index IX[N][N];\n";
  let outer, inner = if par_inner then ("for", "parfor") else ("parfor", "for") in
  let hi f = f (Printf.sprintf "N-%d" hi_gap) in
  Buffer.add_string buf
    (Printf.sprintf "%s i = %d to %s {\n  %s j = %d to %s {\n" outer lo
       (hi outer_hi) inner lo (hi inner_hi));
  let choice = ref sub_choices and wide_choice = ref wide_subs in
  let next_sub () =
    if wide then
      match !wide_choice with
      | [] -> (Ast.Var "i", Ast.Var "j")
      | c :: rest ->
        wide_choice := rest;
        c
    else
      match !choice with
      | [] -> (Ast.Var "i", Ast.Var "j")
      | c :: rest ->
        choice := rest;
        (List.nth subscript_choices_2d c) ()
  in
  let load a =
    let s1, s2 = next_sub () in
    Format.asprintf "%s[%a][%a]" a Ast.pp_expr s1 Ast.pp_expr s2
  in
  List.iteri
    (fun k a ->
      let lhs = load a in
      let rhs = load (List.nth arrays ((k + 1) mod n_arrays)) in
      let rhs =
        if two_loads then
          rhs ^ " + " ^ load (List.nth arrays ((k + 2) mod n_arrays))
        else rhs ^ " + 1"
      in
      Buffer.add_string buf (Printf.sprintf "    %s = %s;\n" lhs rhs))
    arrays;
  if guarded then
    Buffer.add_string buf
      (Printf.sprintf
         "    if (%s < %s) {\n      %s = 1;\n    } else {\n      %s = 2;\n    }\n"
         (load (List.hd arrays))
         (load (List.nth arrays (n_arrays - 1)))
         (load (List.hd arrays))
         (load (List.nth arrays (n_arrays - 1))));
  if indexed then
    Buffer.add_string buf
      (Printf.sprintf "    A0[IX[i][j]][j] = %s + 1;\n"
         (load (List.hd arrays)));
  Buffer.add_string buf "  }\n}\n";
  return { src = Buffer.contents buf; n }

let gen_kernel = gen_kernel_of ~wide:false ()

let gen_kernel_wide = gen_kernel_of ~wide:true ()

let arb_kernel = QCheck.make ~print:(fun k -> k.src) gen_kernel

(* --- properties --- *)

let parse src =
  match Lang.Parser.parse_result src with
  | Ok p -> p
  | Error _ -> failwith "parse failed"

let prop_roundtrip =
  QCheck.Test.make ~name:"random kernels print/parse round-trip" ~count:100
    arb_kernel
    (fun k ->
      let p = parse k.src in
      let printed = Ast.program_to_string p in
      String.equal printed (Ast.program_to_string (parse printed)))

let prop_layouts_injective =
  QCheck.Test.make ~name:"pass layouts stay injective on random kernels"
    ~count:40 arb_kernel
    (fun k ->
      let analysis = Lang.Analysis.analyze (parse k.src) in
      let ccfg = Sim.Config.customize_config (Sim.Config.scaled ()) in
      let report = Core.Transform.run ccfg analysis in
      List.for_all
        (fun (d : Core.Transform.decision) ->
          let layout = d.Core.Transform.layout in
          let seen = Hashtbl.create 1024 in
          let ok = ref true in
          let size = Core.Layout.size_elems layout in
          (* sample the data space on a grid to keep the check cheap *)
          let step = max 1 (k.n / 16) in
          let x = ref 0 in
          while !x < k.n do
            let y = ref 0 in
            while !y < k.n do
              let off = Core.Layout.offset_of_index layout [| !x; !y |] in
              if off < 0 || off >= size || Hashtbl.mem seen off then ok := false;
              Hashtbl.replace seen off ();
              y := !y + step
            done;
            x := !x + step
          done;
          !ok)
        report.Core.Transform.decisions)

let prop_simulation_conserves =
  QCheck.Test.make ~name:"simulation conserves accesses on random kernels"
    ~count:10 arb_kernel
    (fun k ->
      let p = parse k.src in
      let cfg = Sim.Config.scaled () in
      let check optimized =
        let r = Sim.Runner.run cfg ~optimized p in
        let s = r.Sim.Engine.stats in
        ((Sim.Stats.total_accesses) s)
        = ((Sim.Stats.l1_hits) s) + ((Sim.Stats.l2_hits) s) + ((Sim.Stats.offchip_accesses) s)
        && ((Sim.Stats.finish_time) s) > 0
      in
      check false && check true)

let prop_trace_counts_match =
  QCheck.Test.make ~name:"trace length is layout-independent" ~count:20
    arb_kernel
    (fun k ->
      let p = parse k.src in
      let count addr_of =
        let phases = Lang.Interp.trace ~threads:8 ~addr_of p in
        List.fold_left
          (fun a ph -> a + Array.fold_left (fun a s -> a + Array.length s) 0 ph)
          0 phases
      in
      count (fun _ -> Lang.Interp.Fn (fun v -> v.(0)))
      = count (fun _ -> Lang.Interp.Fn (fun v -> (v.(0) * 131) + v.(1))))

(* --- mutation fuzz of the JSON input formats --- *)

module Json = Obs.Json

let read_dir dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".json")
  |> List.sort compare
  |> List.map (fun f ->
         match Json.of_file (Filename.concat dir f) with
         | Ok j -> j
         | Error e -> failwith e)

(* Valid documents of each decoder: the committed examples, every
   platform preset, a manifest with every status, the metrics and
   attribution snapshots of one small attributed run, that run's
   simulate --stats-json document with and without its attribution (read
   by report and by occ --calibrate) and a serve --stats-json document
   (read by report). *)
let json_seeds =
  lazy
    (let decoder f j = Result.map ignore (f j) in
     let spec = decoder Sweep.Spec.of_json
     and scenario = decoder Serve.Scenario.of_json
     and platform = decoder Core.Platform.of_json
     and manifest = decoder Sweep.Manifest.of_json
     and metrics = decoder Obs.Metrics.snapshot_of_json
     and attr = decoder Obs.Attr.of_json
     and report = decoder (fun j -> Obs.Report.build j)
     and pressure = decoder Core.Mapping_select.bank_pressure_of_stats in
     let presets =
       List.map
         (fun name ->
           match Core.Platform.of_spec name with
           | Ok p -> Core.Platform.to_json p
           | Error e -> failwith e)
         Core.Platform.preset_names
     in
     let ledger =
       let entry id status =
         { Sweep.Manifest.id; key = id ^ "-key"; status; attempts = 1; wall_ms = 2.5 }
       in
       Sweep.Manifest.to_json
         {
           Sweep.Manifest.sweep = "fuzz";
           code_version = "v";
           entries =
             [|
               entry "a" Sweep.Manifest.Ok; entry "b" Sweep.Manifest.Cached;
               entry "c" (Sweep.Manifest.Failed "boom"); entry "d" Sweep.Manifest.Pending;
             |];
         }
     in
     let cfg, r, cube = Test_attr.run_attributed () in
     let stats = Sweep.Exec.result_json ~app:"fuzz" cfg r
     and attributed = Sweep.Exec.result_json ~attr:cube ~app:"fuzz" cfg r in
     let served =
       match Serve.Server.run (Serve.Scenario.smoke ()) with
       | Ok run -> Serve.Server.result_json run
       | Error e -> failwith e
     in
     List.map (fun j -> (spec, j)) (read_dir "../examples/sweeps")
     @ List.map (fun j -> (scenario, j)) (read_dir "../examples/serve")
     @ List.map (fun j -> (platform, j)) presets
     @ [
         (manifest, ledger);
         ( metrics,
           Obs.Metrics.to_json
             (Obs.Metrics.snapshot (Sim.Stats.registry r.Sim.Engine.stats)) );
         (attr, Obs.Attr.to_json (Obs.Attr.snapshot cube));
         (report, stats);
         (report, attributed);
         (pressure, stats);
         (pressure, attributed);
         (report, served);
       ])

(* the same value under another JSON type *)
let retype : Json.t -> Json.t = function
  | Json.Int _ -> Json.String "7"
  | Json.Float _ | Json.String _ -> Json.Int 7
  | Json.Bool _ -> Json.Null
  | Json.Null -> Json.Bool true
  | Json.List l -> Json.Obj (List.mapi (fun i v -> (string_of_int i, v)) l)
  | Json.Obj fields -> Json.List (List.map snd fields)

(* Applies one mutation to the [target]-th (mod their count) object
   member or list element, in preorder: 0 drops it, 1 renames its key (a
   list element is retyped instead), 2 retypes its value. *)
let mutate kind target doc =
  let rec count = function
    | Json.Obj fields -> List.fold_left (fun n (_, v) -> n + 1 + count v) 0 fields
    | Json.List l -> List.fold_left (fun n v -> n + 1 + count v) 0 l
    | _ -> 0
  in
  let target = target mod max 1 (count doc) in
  let n = ref (-1) in
  let rec go = function
    | Json.Obj fields ->
      Json.Obj
        (List.filter_map
           (fun (k, v) ->
             incr n;
             if !n <> target then Some (k, go v)
             else
               match kind with
               | 0 -> None
               | 1 -> Some (k ^ "x", v)
               | _ -> Some (k, retype v))
           fields)
    | Json.List l ->
      Json.List
        (List.filter_map
           (fun v ->
             incr n;
             if !n <> target then Some (go v)
             else if kind = 0 then None
             else Some (retype v))
           l)
    | v -> v
  in
  go doc

(* Replaces the [target]-th (mod their count) number, in preorder, with
   an extreme: -1, 0, max_int or 1e308 by [extreme]. *)
let renumber extreme target doc =
  let rec count = function
    | Json.Int _ | Json.Float _ -> 1
    | Json.Obj fields -> List.fold_left (fun n (_, v) -> n + count v) 0 fields
    | Json.List l -> List.fold_left (fun n v -> n + count v) 0 l
    | _ -> 0
  in
  let target = target mod max 1 (count doc) in
  let n = ref (-1) in
  let rec go = function
    | (Json.Int _ | Json.Float _) as v ->
      incr n;
      if !n <> target then v
      else List.nth [ Json.Int (-1); Json.Int 0; Json.Int max_int; Json.Float 1e308 ] extreme
    | Json.Obj fields -> Json.Obj (List.map (fun (k, v) -> (k, go v)) fields)
    | Json.List l -> Json.List (List.map go l)
    | v -> v
  in
  go doc

(* Every mutant decodes to [Ok] or a one-line [Error]; none raises.  A
   fourth mutation cuts the valid text at a random byte, and the last
   four set one number to an extreme. *)
(* Zero and negative divisors in parameters, extents and loop bounds are
   located diagnostics (S009), never an exception. *)
let prop_hostile_constants =
  QCheck.Test.make ~name:"divisors in constants never raise in parse or analysis"
    ~count:300
    (QCheck.make ~print:(fun k -> k.src)
       (Gen.oneof
          [
            gen_kernel_of ~hostile:true ~wide:false ();
            gen_kernel_of ~hostile:true ~wide:true ();
          ]))
    (fun k ->
      match
        Result.bind (Lang.Parser.parse_result k.src) Lang.Analysis.analyze_result
      with
      | Ok _ -> true
      | Error ds -> ds <> []
      | exception e ->
        QCheck.Test.fail_reportf "%s raised %s" k.src (Printexc.to_string e))

let prop_json_mutants =
  QCheck.Test.make ~name:"JSON input decoders survive mutation" ~count:1000
    QCheck.(quad small_nat (int_bound 7) (int_bound 100_000) (int_bound 100_000))
    (fun (seed, kind, target, cut) ->
      let seeds = Lazy.force json_seeds in
      let decode, doc = List.nth seeds (seed mod List.length seeds) in
      let text =
        if kind = 3 then
          let s = Json.to_string doc in
          String.sub s 0 (cut mod (String.length s + 1))
        else if kind >= 4 then Json.to_string (renumber (kind - 4) target doc)
        else Json.to_string (mutate kind target doc)
      in
      match Result.bind (Json.of_string text) decode with
      | Ok () -> true
      | Error e -> not (String.contains e '\n')
      | exception ex ->
        QCheck.Test.fail_reportf "%s raised %s" text (Printexc.to_string ex))

let qsuite = List.map QCheck_alcotest.to_alcotest

let suite =
  [
    ( "fuzz",
      qsuite
        [
          prop_roundtrip;
          prop_layouts_injective;
          prop_simulation_conserves;
          prop_trace_counts_match;
          prop_hostile_constants;
          prop_json_mutants;
        ] );
  ]
