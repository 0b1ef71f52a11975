(* Tests for the paper's contribution: cluster/L2-to-MC machinery, the
   Data-to-Core solver, layout customization, indexed-access
   approximation, mapping selection and the Algorithm 1 driver. *)

module Vec = Affine.Vec
module Matrix = Affine.Matrix
module Access = Affine.Access
module Cluster = Core.Cluster
module Layout = Core.Layout
module Data_to_core = Core.Data_to_core
module Customize = Core.Customize
module Indexed = Core.Indexed
module Transform = Core.Transform
module Mapping_select = Core.Mapping_select

let topo8 = Noc.Topology.make ~width:8 ~height:8 ()

let ok = function Ok v -> v | Error e -> failwith e

let m1 = ok (Cluster.m1 ~width:8 ~height:8)

let m2 = ok (Cluster.m2 ~width:8 ~height:8)

let corner_sites =
  [| Noc.Coord.make 0 0; Noc.Coord.make 7 0; Noc.Coord.make 0 7; Noc.Coord.make 7 7 |]

let placement_for cluster =
  let centroids =
    Array.init (Cluster.num_mcs cluster) (fun m ->
        Cluster.centroid_of_cluster cluster (Cluster.cluster_of_mc cluster m))
  in
  ok (Noc.Placement.assign_result topo8 ~name:"corners" ~sites:corner_sites ~centroids)

let p1 = placement_for m1

let cfg_private =
  {
    Customize.cluster = m1;
    topo = topo8;
    placement = p1;
    l2 = Customize.Private_l2;
    p_elems = 32;
    elem_bytes = 8;
  }

let cfg_shared = { cfg_private with Customize.l2 = Customize.Shared_l2 }

(* --- Cluster --- *)

let test_cluster_validity () =
  Alcotest.(check int) "M1 clusters" 4 (Cluster.num_clusters m1);
  Alcotest.(check int) "M1 MCs" 4 (Cluster.num_mcs m1);
  Alcotest.(check int) "M1 cores/cluster" 16 (Cluster.cores_per_cluster m1);
  Alcotest.(check int) "M2 clusters" 2 (Cluster.num_clusters m2);
  Alcotest.(check int) "M2 MCs" 4 (Cluster.num_mcs m2);
  Alcotest.(check (list int)) "M2 cluster 1 gets MCs 2,3" [ 2; 3 ]
    (Cluster.mcs_of_cluster m2 1);
  match Cluster.make_result ~name:"bad" ~width:8 ~height:8 ~cx:3 ~cy:2 ~k:1 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "uneven tiling must be a value error"

let test_thread_node_bijection () =
  let seen = Hashtbl.create 64 in
  for t = 0 to 63 do
    let n = Cluster.node_of_thread m1 topo8 t in
    Alcotest.(check bool) "in range" true (n >= 0 && n < 64);
    Alcotest.(check bool) "fresh" false (Hashtbl.mem seen n);
    Hashtbl.replace seen n ();
    Alcotest.(check int) "inverse" t (Cluster.thread_of_node m1 topo8 n)
  done

let test_thread_cluster_order () =
  (* the R(r_v) enumeration: every group of ny=4 consecutive threads
     shares a cluster, clusters rotate along Y then X, and each cluster
     receives exactly cores_per_cluster threads *)
  let counts = Array.make 4 0 in
  for t = 0 to 63 do
    let cl = Cluster.cluster_of_node m1 topo8 (Cluster.node_of_thread m1 topo8 t) in
    counts.(cl) <- counts.(cl) + 1;
    let cl0 =
      Cluster.cluster_of_node m1 topo8 (Cluster.node_of_thread m1 topo8 (t / 4 * 4))
    in
    Alcotest.(check int) "groups of ny stay together" cl0 cl
  done;
  Array.iter (fun n -> Alcotest.(check int) "16 threads per cluster" 16 n) counts;
  Alcotest.(check int) "thread 0 in cluster 0" 0
    (Cluster.cluster_of_node m1 topo8 (Cluster.node_of_thread m1 topo8 0));
  Alcotest.(check int) "thread 4 rotates to cluster 1" 1
    (Cluster.cluster_of_node m1 topo8 (Cluster.node_of_thread m1 topo8 4))

let test_placement_alignment () =
  (* MC j must be at the corner of cluster j *)
  for j = 0 to 3 do
    let mc_node = Noc.Placement.mc_node p1 j in
    Alcotest.(check int) "controller in its own cluster" j
      (Cluster.cluster_of_node m1 topo8 mc_node)
  done

let test_with_mcs () =
  let c8 = ok (Cluster.with_mcs_result ~width:8 ~height:8 ~mcs:8) in
  Alcotest.(check int) "8 clusters" 8 (Cluster.num_clusters c8);
  Alcotest.(check int) "8 cores each" 8 (Cluster.cores_per_cluster c8);
  let c16 = ok (Cluster.with_mcs_result ~width:8 ~height:8 ~mcs:16) in
  Alcotest.(check int) "16 clusters of 4" 4 (Cluster.cores_per_cluster c16)

(* the divisor walk stops at the mesh width, so a controller count
   with no even tiling is an error however large it is *)
let test_with_mcs_no_tiling () =
  List.iter
    (fun mcs ->
      match Cluster.with_mcs_result ~width:8 ~height:8 ~mcs with
      | Ok c -> Alcotest.failf "%d controllers tiled as %s" mcs c.Cluster.name
      | Error _ -> ())
    [ 3; 5; 128; max_int ];
  let c2 = ok (Cluster.with_mcs_result ~width:8 ~height:8 ~mcs:2) in
  Alcotest.(check int) "2 clusters of 32" 32 (Cluster.cores_per_cluster c2)

(* --- Data_to_core --- *)

let antidiag = Matrix.of_rows [ Vec.of_list [ 0; 1 ]; Vec.of_list [ 1; 0 ] ]

(* [gᵥ] for one reference of weight 1, through the multiple-references
   procedure *)
let solve_single access ~u ~v =
  Option.map
    (fun s -> s.Data_to_core.g)
    (Data_to_core.solve ~refs:[ { Data_to_core.access; u; weight = 1 } ] ~v)

let test_solve_single_fig9 () =
  (* Z[j][i] under parallel i (u=0): g = (0,1), U antidiagonal *)
  let access = Access.make antidiag (Vec.zero 2) in
  (match solve_single access ~u:0 ~v:0 with
  | Some g -> Alcotest.(check (list int)) "g" [ 0; 1 ] (Array.to_list g)
  | None -> Alcotest.fail "expected a solution");
  (* row-major friendly reference A[i][j]: g = e0, U = I *)
  let access = Access.make (Matrix.identity 2) (Vec.zero 2) in
  match solve_single access ~u:0 ~v:0 with
  | Some g -> Alcotest.(check (list int)) "identity g" [ 1; 0 ] (Array.to_list g)
  | None -> Alcotest.fail "expected a solution"

let test_solve_single_unsolvable () =
  (* X[j] under parallel i in a 2-deep nest: B = (1) has no nontrivial
     solution for a 1-D array *)
  let access = Access.make (Matrix.of_rows [ Vec.of_list [ 0; 1 ] ]) (Vec.zero 1) in
  Alcotest.(check (option (list int))) "no solution" None
    (Option.map Array.to_list (solve_single access ~u:0 ~v:0))

let test_solve_depth1 () =
  (* X[i], parallel i, depth 1: no constraints, unit vector solution *)
  let access = Access.make (Matrix.identity 1) (Vec.zero 1) in
  match solve_single access ~u:0 ~v:0 with
  | Some g -> Alcotest.(check (list int)) "unit" [ 1 ] (Array.to_list g)
  | None -> Alcotest.fail "depth-1 parallel reference must be solvable"

let test_weighted_majority () =
  (* conflicting references: the heavier group wins (Section 5.2) *)
  let ref_rowwise u w =
    { Data_to_core.access = Access.make (Matrix.identity 2) (Vec.zero 2); u; weight = w }
  in
  let ref_transposed u w =
    { Data_to_core.access = Access.make antidiag (Vec.zero 2); u; weight = w }
  in
  (match Data_to_core.solve ~refs:[ ref_rowwise 0 100; ref_transposed 0 10 ] ~v:0 with
  | Some sol ->
    Alcotest.(check (list int)) "heavy row-wise wins" [ 1; 0 ] (Array.to_list sol.Data_to_core.g);
    Alcotest.(check int) "satisfied weight" 100 sol.Data_to_core.satisfied_weight;
    Alcotest.(check int) "total weight" 110 sol.Data_to_core.total_weight
  | None -> Alcotest.fail "expected a solution");
  match Data_to_core.solve ~refs:[ ref_rowwise 0 10; ref_transposed 0 100 ] ~v:0 with
  | Some sol ->
    Alcotest.(check (list int)) "heavy transposed wins" [ 0; 1 ]
      (Array.to_list sol.Data_to_core.g)
  | None -> Alcotest.fail "expected a solution"

let test_satisfies () =
  let acc = Access.make antidiag (Vec.zero 2) in
  Alcotest.(check bool) "g=(0,1) satisfies the Fig9 system" true
    (Data_to_core.satisfies (Vec.of_list [ 0; 1 ]) acc ~u:0);
  Alcotest.(check bool) "g=(1,0) does not" false
    (Data_to_core.satisfies (Vec.of_list [ 1; 0 ]) acc ~u:0)

(* --- Layout / Customize --- *)

let check_bijective layout extents =
  let seen = Hashtbl.create 4096 in
  let dup = ref 0 and out_of_range = ref 0 in
  let size = Layout.size_elems layout in
  let rec walk v d =
    if d = Array.length extents then begin
      let off = Layout.offset_of_index layout (Array.of_list (List.rev v)) in
      if off < 0 || off >= size then incr out_of_range;
      if Hashtbl.mem seen off then incr dup;
      Hashtbl.replace seen off ()
    end
    else
      for x = 0 to extents.(d) - 1 do
        walk (x :: v) (d + 1)
      done
  in
  walk [] 0;
  Alcotest.(check int) "no duplicate offsets" 0 !dup;
  Alcotest.(check int) "offsets in range" 0 !out_of_range

let test_identity_layout () =
  let l = Layout.identity ~array:"A" ~extents:[| 6; 10 |] ~elem_bytes:8 in
  Alcotest.(check int) "row-major offset" 25
    (Layout.offset_of_index l (Vec.of_list [ 2; 5 ]));
  Alcotest.(check int) "size" 60 (Layout.size_elems l);
  Alcotest.(check int) "bytes" 480 (Layout.size_bytes l)

(* A layout's offsets through its [addr_map] tables, staged once as the
   trace generator stages them *)
let offset_fn l = Lang.Interp.apply (Layout.addr_map l)

(* [offset_fn] tables [offset_of_index]'s arithmetic: one staged
   function, reused across many indices, must agree with the plain
   evaluation in [Naive_layout], on every layout the pass picks for the
   suite. *)
let test_offset_fn_reuse () =
  let ccfg = Sim.Config.customize_config (Sim.Config.scaled ()) in
  List.iter
    (fun app ->
      let analysis = Lang.Analysis.analyze (Workloads.App.program app) in
      List.iter
        (fun (d : Transform.decision) ->
          let l = d.Transform.layout in
          let f = offset_fn l in
          for k = 0 to 63 do
            let a =
              Array.mapi
                (fun i e -> k * ((2 * i) + 3) * 7919 mod e)
                l.Layout.orig_extents
            in
            Alcotest.(check int)
              (app.Workloads.App.name ^ " " ^ l.Layout.array)
              (Naive_layout.offset l a) (f a)
          done)
        (Transform.run ccfg analysis).Transform.decisions)
    Workloads.Suite.all

(* Random layouts over [cols]-dimensional arrays of [extents]: [U] with
   negative coefficients (or the identity, which skips [a']), shifts that
   drive operands negative, power-of-two, other, unit and negative
   divisors and, with [faults], zero divisors and [Perm] tables that an
   operand can overrun. *)
let gen_layout ?(faults = true) ~cols extents =
  let open QCheck.Gen in
  let divisor =
    oneofl
      ([ 1; 2; 4; 8; 16; 32; 256; 512; 3; 5; 7; -4 ]
      @ if faults then [ 0 ] else [])
  in
  let rec dim_expr rows depth =
    if depth = 0 then map (fun i -> Layout.D i) (int_bound (rows - 1))
    else
      frequency
        ([
           (2, map (fun i -> Layout.D i) (int_bound (rows - 1)));
           (3, map2 (fun e k -> Layout.Div (e, k)) (dim_expr rows (depth - 1)) divisor);
           (3, map2 (fun e k -> Layout.Mod (e, k)) (dim_expr rows (depth - 1)) divisor);
         ]
        @
        if faults then
          [
            ( 1,
              map2
                (fun e t -> Layout.Perm (e, t))
                (dim_expr rows (depth - 1))
                (array_size (int_range 1 8) (int_range 0 7)) );
          ]
        else [])
  in
  int_range 1 3 >>= fun rows ->
  bool >>= fun identity ->
  let rows = if identity then cols else rows in
  (if identity then return (Matrix.identity cols)
   else array_repeat rows (array_repeat cols (int_range (-3) 3)))
  >>= fun u ->
  (if identity then return (Vec.zero rows)
   else array_repeat rows (int_range (-20) 20))
  >>= fun a_shift ->
  list_size (int_range 1 4)
    (map2
       (fun expr extent -> { Layout.expr; extent })
       (dim_expr rows 3) (int_range 1 10))
  >>= fun out ->
  return
    (Layout.make ~array:"x" ~u ~a_shift ~out:(Array.of_list out)
       ~orig_extents:extents ~elem_bytes:8 ~p_elems:1 ())

let print_layout l =
  let ints v = String.concat "," (Array.to_list (Array.map string_of_int v)) in
  Format.asprintf "%a@.shift %s@.extents %s" Layout.pp l
    (ints l.Layout.a_shift) (ints l.Layout.orig_extents)

(* The tabled [offset_fn] against [Naive_layout] on random layouts over
   random extents (small ones push a component's range past the table
   cap), on indices inside and outside the array and now and then of the
   wrong rank.  Offsets must be equal, and where the oracle raises the
   staged function must raise the same exception. *)
let prop_offset_fn_matches_naive =
  let open QCheck.Gen in
  let case =
    int_range 1 3 >>= fun cols ->
    array_repeat cols (int_range 1 10) >>= fun extents ->
    gen_layout ~cols extents >>= fun l ->
    list_size (int_range 1 20)
      (frequency
         [
           (12, array_repeat cols (int_range (-10) 40));
           (1, array_size (int_range 0 4) (int_range 0 9));
         ])
    >>= fun idxs -> return (l, idxs)
  in
  let print (l, idxs) =
    Format.asprintf "%s@.indices %s" (print_layout l)
      (String.concat " "
         (List.map
            (fun a -> String.concat "," (Array.to_list (Array.map string_of_int a)))
            idxs))
  in
  QCheck.Test.make ~name:"staged offset_fn equals the naive evaluation"
    ~count:2000 (QCheck.make ~print case) (fun (l, idxs) ->
      let f = offset_fn l in
      let run g a = match g a with v -> Ok v | exception e -> Error e in
      List.for_all
        (fun a ->
          let want = run (Naive_layout.offset l) a in
          run f a = want && run (Layout.offset_of_index l) a = want)
        idxs)

let test_private_layout_bijective () =
  let u = Matrix.identity 2 in
  let layout = Customize.customize cfg_private ~array:"A" ~extents:[| 128; 128 |] ~u ~v:0 in
  check_bijective layout [| 128; 128 |]

let test_private_layout_mc_rotation () =
  (* the defining property: an element owned by thread t lands on a line
     whose controller serves t's cluster *)
  let u = Matrix.identity 2 in
  let extents = [| 128; 128 |] in
  let layout = Customize.customize cfg_private ~array:"A" ~extents ~u ~v:0 in
  let b = 2 (* 128 rows / 64 threads *) in
  let errors = ref 0 in
  for x = 0 to 127 do
    for y = 0 to 127 do
      let off = Layout.offset_of_index layout (Vec.of_list [ x; y ]) in
      let line = off * 8 / 256 in
      let mc = line mod 4 in
      let owner = x / b in
      let cl = Cluster.cluster_of_node m1 topo8 (Cluster.node_of_thread m1 topo8 owner) in
      if not (List.mem mc (Cluster.mcs_of_cluster m1 cl)) then incr errors
    done
  done;
  Alcotest.(check int) "every element on its cluster's controller" 0 !errors

let test_private_layout_m2_rotation () =
  (* under M2 (k=2) each cluster's data covers exactly its two MCs *)
  let cfg = { cfg_private with Customize.cluster = m2; placement = placement_for m2 } in
  let layout = Customize.customize cfg ~array:"A" ~extents:[| 128; 128 |] ~u:(Matrix.identity 2) ~v:0 in
  check_bijective layout [| 128; 128 |];
  let b = 2 in
  let errors = ref 0 in
  let mcs_seen = Array.make 4 0 in
  for x = 0 to 127 do
    for y = 0 to 127 do
      let off = Layout.offset_of_index layout (Vec.of_list [ x; y ]) in
      let mc = off * 8 / 256 mod 4 in
      mcs_seen.(mc) <- mcs_seen.(mc) + 1;
      let owner = x / b in
      let cl = Cluster.cluster_of_node m2 topo8 (Cluster.node_of_thread m2 topo8 owner) in
      if not (List.mem mc (Cluster.mcs_of_cluster m2 cl)) then incr errors
    done
  done;
  Alcotest.(check int) "M2: data on the cluster's two controllers" 0 !errors;
  Array.iter (fun n -> Alcotest.(check bool) "all controllers used" true (n > 0)) mcs_seen

let test_private_layout_transposed () =
  (* with U antidiagonal (Fig 9) ownership follows the second subscript *)
  let layout = Customize.customize cfg_private ~array:"Z" ~extents:[| 128; 128 |] ~u:antidiag ~v:0 in
  check_bijective layout [| 128; 128 |];
  let errors = ref 0 in
  for x = 0 to 127 do
    for y = 0 to 127 do
      let off = Layout.offset_of_index layout (Vec.of_list [ x; y ]) in
      let mc = off * 8 / 256 mod 4 in
      let owner = y / 2 in
      let cl = Cluster.cluster_of_node m1 topo8 (Cluster.node_of_thread m1 topo8 owner) in
      if not (List.mem mc (Cluster.mcs_of_cluster m1 cl)) then incr errors
    done
  done;
  Alcotest.(check int) "transposed ownership localized" 0 !errors

let test_1d_layout () =
  let layout =
    Customize.customize cfg_private ~array:"X" ~extents:[| 4096 |] ~u:(Matrix.identity 1) ~v:0
  in
  check_bijective layout [| 4096 |];
  let errors = ref 0 in
  for x = 0 to 4095 do
    let off = Layout.offset_of_index layout (Vec.of_list [ x ]) in
    let mc = off * 8 / 256 mod 4 in
    let owner = x / 64 in
    let cl = Cluster.cluster_of_node m1 topo8 (Cluster.node_of_thread m1 topo8 owner) in
    if not (List.mem mc (Cluster.mcs_of_cluster m1 cl)) then incr errors
  done;
  Alcotest.(check int) "1-D localization" 0 !errors

let test_shared_layout () =
  let layout =
    Customize.customize cfg_shared ~array:"A" ~extents:[| 128; 128 |] ~u:(Matrix.identity 2) ~v:0
  in
  check_bijective layout [| 128; 128 |];
  (* home-bank locality: most elements are homed at (or adjacent to) the
     node of their owning thread; every mapped controller is allowed *)
  let bad_mc = ref 0 and total = ref 0 and home_dist = ref 0 in
  for x = 0 to 127 do
    for y = 0 to 127 do
      incr total;
      let off = Layout.offset_of_index layout (Vec.of_list [ x; y ]) in
      let home = off / 32 mod 64 in
      let mc = off * 8 / 256 mod 4 in
      let owner = x / 2 in
      let owner_node = Cluster.node_of_thread m1 topo8 owner in
      home_dist := !home_dist + Noc.Topology.distance topo8 home owner_node;
      let allowed = Customize.allowed_mcs cfg_shared ~home_thread:owner in
      if not allowed.(mc) then incr bad_mc
    done
  done;
  Alcotest.(check int) "mapped controller always allowed" 0 !bad_mc;
  let avg = float_of_int !home_dist /. float_of_int !total in
  Alcotest.(check bool) "average home distance below one hop" true (avg < 1.0)

let test_allowed_mcs () =
  (* corner placement: the diagonal controller is not allowed *)
  let allowed = Customize.allowed_mcs cfg_shared ~home_thread:0 in
  Alcotest.(check bool) "own controller allowed" true allowed.(0);
  (* cluster 0 is NW; its diagonal is cluster 3's SE controller *)
  Alcotest.(check bool) "diagonal excluded" false allowed.(3);
  Alcotest.(check int) "three of four allowed" 3
    (Array.fold_left (fun a b -> if b then a + 1 else a) 0 allowed)

let test_padding () =
  (* extents that do not divide evenly get padded, never truncated *)
  let layout = Customize.customize cfg_private ~array:"A" ~extents:[| 100; 100 |] ~u:(Matrix.identity 2) ~v:0 in
  Alcotest.(check bool) "padded size at least original" true
    (Layout.size_elems layout >= 100 * 100);
  check_bijective layout [| 100; 100 |]

let test_transformed_subscripts () =
  let layout = Customize.customize cfg_private ~array:"Z" ~extents:[| 64; 64 |] ~u:antidiag ~v:0 in
  let subs = [ Lang.Ast.Var "j"; Lang.Ast.Var "i" ] in
  let out = Layout.transformed_subscripts layout subs in
  Alcotest.(check int) "one subscript per output dim" (Array.length layout.Layout.out)
    (List.length out);
  (* the printed form contains the strip-mined i and j expressions *)
  let printed =
    String.concat "," (List.map (fun e -> Format.asprintf "%a" Lang.Ast.pp_expr e) out)
  in
  Alcotest.(check bool) "mentions i" true
    (Astring.String.is_infix ~affix:"i" printed)

let test_page_granularity_layout () =
  (* page interleaving: p = 512 elements; every virtual page of the
     transformed array must belong entirely to one cluster, and pages
     rotate over clusters in enumeration order *)
  let cfg = { cfg_private with Customize.p_elems = 512 } in
  let extents = [| 128; 128 |] in
  let layout = Customize.customize cfg ~array:"A" ~extents ~u:(Matrix.identity 2) ~v:0 in
  check_bijective layout extents;
  let b = 2 in
  let errors = ref 0 in
  for x = 0 to 127 do
    for y = 0 to 127 do
      let off = Layout.offset_of_index layout (Vec.of_list [ x; y ]) in
      let page = off / 512 in
      let owner = x / b in
      let cl = Cluster.cluster_of_node m1 topo8 (Cluster.node_of_thread m1 topo8 owner) in
      if page mod 4 <> cl then incr errors
    done
  done;
  Alcotest.(check int) "pages cluster-aligned" 0 !errors

let test_1d_small_block_layout () =
  (* the minimd case: per-thread block smaller than the interleaving
     unit; blocks must still map to their own thread's cluster, padding
     each block up to a full unit *)
  let cfg = { cfg_private with Customize.p_elems = 512 } in
  let extents = [| 16384 |] in
  let layout =
    Customize.customize cfg ~array:"X" ~extents ~u:(Matrix.identity 1) ~v:0
  in
  check_bijective layout extents;
  Alcotest.(check bool) "padded (one unit per block)" true
    (Layout.size_elems layout >= 64 * 512);
  let errors = ref 0 in
  let b0 = 16384 / 64 in
  for x = 0 to 16383 do
    let off = Layout.offset_of_index layout (Vec.of_list [ x ]) in
    let page = off / 512 in
    let owner = x / b0 in
    let cl = Cluster.cluster_of_node m1 topo8 (Cluster.node_of_thread m1 topo8 owner) in
    if page mod 4 <> cl then incr errors
  done;
  Alcotest.(check int) "small blocks cluster-aligned" 0 !errors

(* --- Indexed --- *)

let test_indexed_exact_fit () =
  (* samples from an exactly affine map are fitted with zero inaccuracy *)
  let samples =
    List.concat_map
      (fun i -> List.map (fun j -> (Vec.of_list [ i; j ], Vec.of_list [ (2 * i) + 1; j ])) [ 0; 3; 7 ])
      [ 0; 1; 5; 9 ]
  in
  match Indexed.approximate ~samples with
  | Some (access, inacc) ->
    Alcotest.(check (float 1e-9)) "exact" 0.0 inacc;
    Alcotest.(check (list int)) "offset" [ 1; 0 ] (Array.to_list access.Access.offset)
  | None -> Alcotest.fail "expected a fit"

let test_indexed_banded_fit () =
  (* banded sparse pattern with clamped edges: small inaccuracy *)
  let n = 100 in
  let samples =
    List.concat_map
      (fun i ->
        List.map
          (fun z -> (Vec.of_list [ i; z ], Vec.of_list [ max 0 (min (n - 1) (i + z - 3)) ]))
          [ 0; 1; 2; 3; 4; 5; 6 ])
      (List.init 25 (fun k -> k * 4))
  in
  match Indexed.approximate ~samples with
  | Some (_, inacc) ->
    Alcotest.(check bool) "below threshold" true (inacc <= Indexed.default_threshold);
    Alcotest.(check bool) "not exact (edge clamps)" true (inacc > 0.)
  | None -> Alcotest.fail "expected a fit"

let test_indexed_random_rejected () =
  (* a pseudo-random pattern fits badly *)
  let samples =
    List.init 200 (fun i -> (Vec.of_list [ i ], Vec.of_list [ (i * 7919) mod 200 ]))
  in
  match Indexed.approximate ~samples with
  | Some (_, inacc) ->
    Alcotest.(check bool) "above threshold" true (inacc > Indexed.default_threshold)
  | None -> ()

let test_indexed_empty () =
  Alcotest.(check bool) "no samples" true (Indexed.approximate ~samples:[] = None)

(* --- Transform (Algorithm 1) --- *)

let parse src =
  match Lang.Parser.parse_result src with
  | Ok p -> p
  | Error _ -> Alcotest.fail "parse failed"

let analyze src = Lang.Analysis.analyze (parse src)

let test_transform_fig9 () =
  let report =
    Transform.run cfg_private
      (analyze
         {|
param N = 128;
array Z[N][N];
parfor i = 2 to N-2 { for j = 2 to N-2 { Z[j][i] = Z[j-1][i] + Z[j][i] + Z[j+1][i]; } }
|})
  in
  Alcotest.(check (float 0.01)) "100% arrays" 100.0 report.Transform.pct_arrays_optimized;
  Alcotest.(check (float 0.01)) "100% refs" 100.0 report.Transform.pct_refs_satisfied;
  let layout = Transform.layout_of report "Z" in
  Alcotest.(check bool) "U is the antidiagonal" true
    (Matrix.equal layout.Layout.u antidiag)

let test_transform_keeps () =
  let report =
    Transform.run cfg_private
      (analyze
         {|
param N = 64;
array A[N];
array B[N][N];
index IDX[N];
for i = 0 to N-1 { A[i] = 1; }
parfor i = 0 to N-1 { for j = 0 to N-1 { B[i][j] = B[i][j] + A[IDX[j]]; } }
|})
  in
  let decision name =
    List.find
      (fun d -> String.equal d.Transform.info.Lang.Analysis.decl.Lang.Ast.name name)
      report.Transform.decisions
  in
  Alcotest.(check bool) "B optimized" true (decision "B").Transform.optimized;
  (* A: only a sequential reference and an unprofiled indexed one *)
  Alcotest.(check bool) "A kept" false (decision "A").Transform.optimized;
  Alcotest.(check bool) "IDX kept (index array)" false (decision "IDX").Transform.optimized;
  match (decision "IDX").Transform.kept with
  | Some Transform.Index_array -> ()
  | _ -> Alcotest.fail "index array reason"

let test_transform_rewrite () =
  let program =
    parse
      {|
param N = 128;
array Z[N][N];
parfor i = 2 to N-2 { for j = 2 to N-2 { Z[j][i] = Z[j-1][i] + Z[j][i] + Z[j+1][i]; } }
|}
  in
  let report = Transform.run cfg_private (Lang.Analysis.analyze program) in
  let p' = Transform.rewrite_program report program in
  (* the rewritten program must still parse and type-check *)
  let printed = Lang.Ast.program_to_string p' in
  let reparsed = parse printed in
  Alcotest.(check int) "declarations preserved" 1 (List.length reparsed.Lang.Ast.decls);
  (* the declaration gained strip-mined dimensions *)
  let d = List.hd reparsed.Lang.Ast.decls in
  Alcotest.(check bool) "more dimensions than original" true
    (List.length d.Lang.Ast.extents > 2)

let test_transform_profile_path () =
  let src =
    {|
param N = 256;
array VALS[N];
array X[N];
index COLS[N];
parfor i = 0 to N-1 { VALS[i] = VALS[i] + X[COLS[i]]; }
|}
  in
  let profile_good _ =
    List.init 200 (fun i -> (Vec.of_list [ i ], Vec.of_list [ min 255 (i + 1) ]))
  in
  let profile_bad _ =
    List.init 200 (fun i -> (Vec.of_list [ i ], Vec.of_list [ (i * 7919) mod 256 ]))
  in
  let report = Transform.run ~profile:profile_good cfg_private (analyze src) in
  let x_decision r =
    List.find
      (fun d -> String.equal d.Transform.info.Lang.Analysis.decl.Lang.Ast.name "X")
      r.Transform.decisions
  in
  Alcotest.(check bool) "good profile: X optimized" true (x_decision report).Transform.optimized;
  let report = Transform.run ~profile:profile_bad cfg_private (analyze src) in
  (match (x_decision report).Transform.kept with
  | Some (Transform.Bad_approximation f) ->
    Alcotest.(check bool) "inaccuracy recorded" true (f > 0.3)
  | _ -> Alcotest.fail "expected Bad_approximation");
  let report = Transform.run cfg_private (analyze src) in
  match (x_decision report).Transform.kept with
  | Some Transform.No_parallel_reference -> ()
  | _ -> Alcotest.fail "no profile means the indexed ref is dropped"

(* --- Mapping selection --- *)

let test_mapping_metrics () =
  let p2 = placement_for m2 in
  let mm1 = Mapping_select.evaluate topo8 m1 p1 in
  let mm2 = Mapping_select.evaluate topo8 m2 p2 in
  Alcotest.(check bool) "M1 has shorter distance" true
    (mm1.Mapping_select.avg_distance < mm2.Mapping_select.avg_distance);
  Alcotest.(check int) "M1 k" 1 mm1.Mapping_select.mcs_per_cluster;
  Alcotest.(check int) "M2 k" 2 mm2.Mapping_select.mcs_per_cluster

let choose_name candidates pressure =
  match Mapping_select.choose_opt topo8 ~candidates ~bank_pressure:pressure with
  | Some (c, _) -> c.Cluster.name
  | None -> Alcotest.fail "empty candidate list"

let test_mapping_choice () =
  let p2 = placement_for m2 in
  let candidates = [ (m1, p1); (m2, p2) ] in
  (* moderate bank pressure (the stencils): locality wins, M1 *)
  Alcotest.(check string) "M1 at moderate pressure" "M1"
    (choose_name candidates 3.5);
  (* heavy pressure (fma3d, minighost): parallelism wins, M2 *)
  Alcotest.(check string) "M2 at high pressure" "M2"
    (choose_name candidates 7.0);
  Alcotest.(check bool) "empty candidates -> None" true
    (Mapping_select.choose_opt topo8 ~candidates:[] ~bank_pressure:1.0 = None)

let platform_candidates spec =
  let p = ok (Core.Platform.of_spec spec) in
  List.map (fun q -> (q.Core.Platform.cluster, q.Core.Platform.placement))
    (Core.Platform.candidates p)

let test_mapping_choice_8mc () =
  (* the mesh8x8-mc8 candidate set adds the Fig. 27 8-MC configuration;
     it overtakes M1 once the queueing term dominates (crossover at
     bank pressure 4/3 under the cost model's constants) *)
  let candidates = platform_candidates "mesh8x8-mc8" in
  Alcotest.(check int) "three candidates" 3 (List.length candidates);
  Alcotest.(check string) "light pressure keeps M1" "M1"
    (choose_name candidates 0.5);
  Alcotest.(check string) "8 MCs win at moderate pressure" "M1x8"
    (choose_name candidates 2.0)

let test_mapping_choice_16mc () =
  (* 16 controllers only pay off under very heavy pressure (crossover vs
     the 8-MC configuration at bank pressure 15) *)
  let candidates = platform_candidates "mesh8x8-mc16" in
  Alcotest.(check int) "four candidates" 4 (List.length candidates);
  Alcotest.(check string) "8 MCs below the crossover" "M1x8"
    (choose_name candidates 10.0);
  Alcotest.(check string) "16 MCs at extreme pressure" "M1x16"
    (choose_name candidates 20.0)

let test_score_sorted_and_invariant () =
  let candidates = platform_candidates "mesh8x8-mc16" in
  let scored = Mapping_select.score topo8 ~candidates ~bank_pressure:2.0 in
  let costs = List.map (fun s -> s.Mapping_select.cost) scored in
  Alcotest.(check bool) "costs ascending" true
    (List.sort compare costs = costs);
  (* permutation invariance: reversing the candidate list must not change
     the scored order *)
  let scored' =
    Mapping_select.score topo8 ~candidates:(List.rev candidates)
      ~bank_pressure:2.0
  in
  Alcotest.(check (list string)) "order invariant under permutation"
    (List.map (fun s -> s.Mapping_select.cluster.Cluster.name) scored)
    (List.map (fun s -> s.Mapping_select.cluster.Cluster.name) scored')

let suite =
  [
    ( "core.cluster",
      [
        Alcotest.test_case "validity" `Quick test_cluster_validity;
        Alcotest.test_case "thread/node bijection" `Quick test_thread_node_bijection;
        Alcotest.test_case "cluster order" `Quick test_thread_cluster_order;
        Alcotest.test_case "placement alignment" `Quick test_placement_alignment;
        Alcotest.test_case "with_mcs" `Quick test_with_mcs;
        Alcotest.test_case "with_mcs: no even tiling" `Quick test_with_mcs_no_tiling;
      ] );
    ( "core.data_to_core",
      [
        Alcotest.test_case "fig9 solution" `Quick test_solve_single_fig9;
        Alcotest.test_case "unsolvable" `Quick test_solve_single_unsolvable;
        Alcotest.test_case "depth-1" `Quick test_solve_depth1;
        Alcotest.test_case "weighted majority" `Quick test_weighted_majority;
        Alcotest.test_case "satisfies" `Quick test_satisfies;
      ] );
    ( "core.layout",
      [
        Alcotest.test_case "identity" `Quick test_identity_layout;
        Alcotest.test_case "offset_fn reuse" `Quick test_offset_fn_reuse;
        Alcotest.test_case "private bijective" `Quick test_private_layout_bijective;
        Alcotest.test_case "private MC rotation" `Quick test_private_layout_mc_rotation;
        Alcotest.test_case "M2 rotation" `Quick test_private_layout_m2_rotation;
        Alcotest.test_case "transposed" `Quick test_private_layout_transposed;
        Alcotest.test_case "1-D arrays" `Quick test_1d_layout;
        Alcotest.test_case "shared L2" `Quick test_shared_layout;
        Alcotest.test_case "allowed MCs" `Quick test_allowed_mcs;
        Alcotest.test_case "padding" `Quick test_padding;
        Alcotest.test_case "page granularity" `Quick test_page_granularity_layout;
        Alcotest.test_case "1-D small blocks" `Quick test_1d_small_block_layout;
        Alcotest.test_case "subscript rewriting" `Quick test_transformed_subscripts;
        QCheck_alcotest.to_alcotest prop_offset_fn_matches_naive;
      ] );
    ( "core.indexed",
      [
        Alcotest.test_case "exact fit" `Quick test_indexed_exact_fit;
        Alcotest.test_case "banded fit" `Quick test_indexed_banded_fit;
        Alcotest.test_case "random rejected" `Quick test_indexed_random_rejected;
        Alcotest.test_case "empty" `Quick test_indexed_empty;
      ] );
    ( "core.transform",
      [
        Alcotest.test_case "fig9 end to end" `Quick test_transform_fig9;
        Alcotest.test_case "kept arrays" `Quick test_transform_keeps;
        Alcotest.test_case "rewrite round-trips" `Quick test_transform_rewrite;
        Alcotest.test_case "profile path" `Quick test_transform_profile_path;
      ] );
    ( "core.mapping_select",
      [
        Alcotest.test_case "metrics" `Quick test_mapping_metrics;
        Alcotest.test_case "choice" `Quick test_mapping_choice;
        Alcotest.test_case "8-MC crossover" `Quick test_mapping_choice_8mc;
        Alcotest.test_case "16-MC crossover" `Quick test_mapping_choice_16mc;
        Alcotest.test_case "score order" `Quick test_score_sorted_and_invariant;
      ] );
  ]
