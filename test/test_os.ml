(* Tests for the OS substrate: translation and page-allocation policies. *)

module Address_map = Dram.Address_map
module Page_alloc = Os_sim.Page_alloc

let line_map = Address_map.make ~interleaving:Address_map.Line_interleaved ~num_mcs:4 ()

let page_map = Address_map.make ~interleaving:Address_map.Page_interleaved ~num_mcs:4 ()

let test_translation_stable () =
  let pa = Page_alloc.create ~map:page_map ~policy:Page_alloc.Hardware_interleaved () in
  let p1 = Page_alloc.translate pa ~node:0 ~vaddr:12345 in
  let p2 = Page_alloc.translate pa ~node:9 ~vaddr:12345 in
  Alcotest.(check int) "same vaddr same paddr" p1 p2;
  Alcotest.(check int) "page offset preserved" (12345 mod 4096) (p1 mod 4096);
  let q = Page_alloc.translate pa ~node:0 ~vaddr:(12345 + 4096) in
  Alcotest.(check bool) "different page different frame" true (q / 4096 <> p1 / 4096);
  Alcotest.(check int) "two pages allocated" 2 (Page_alloc.pages_allocated pa)

let test_line_interleaved_mode () =
  (* under line interleaving the MC bits are inside the page offset *)
  let pa = Page_alloc.create ~map:line_map ~policy:Page_alloc.Hardware_interleaved () in
  let paddr = Page_alloc.translate pa ~node:3 ~vaddr:(4096 + 256) in
  Alcotest.(check int) "controller decided by the offset bits" 1
    (Address_map.mc_of_paddr line_map paddr)

let test_hardware_interleaved_rotation () =
  (* allocation-order rotation models sequential frame allocation *)
  let pa = Page_alloc.create ~map:page_map ~policy:Page_alloc.Hardware_interleaved () in
  let mcs =
    List.init 8 (fun i ->
        let paddr = Page_alloc.translate pa ~node:0 ~vaddr:(i * 4096) in
        Address_map.mc_of_paddr page_map paddr)
  in
  (* all four controllers are used *)
  Alcotest.(check int) "all controllers used" 4
    (List.length (List.sort_uniq compare mcs))

let test_first_touch () =
  let cluster_mc node = node / 16 in
  let pa = Page_alloc.create ~map:page_map ~policy:(Page_alloc.First_touch cluster_mc) () in
  let paddr = Page_alloc.translate pa ~node:20 ~vaddr:0 in
  Alcotest.(check int) "page on first toucher's controller" 1
    (Address_map.mc_of_paddr page_map paddr);
  (* later touches from other nodes do not move it *)
  let paddr2 = Page_alloc.translate pa ~node:55 ~vaddr:8 in
  Alcotest.(check int) "sticky placement" (paddr + 8) paddr2

let test_mc_aware () =
  let pa =
    Page_alloc.create ~map:page_map
      ~policy:
        (Page_alloc.Mc_aware
           { desired = (fun vpage -> Some ((vpage + 2) mod 4));
             fallback = (fun _ -> 0) })
      ()
  in
  for v = 0 to 7 do
    let paddr = Page_alloc.translate pa ~node:0 ~vaddr:(v * 4096) in
    Alcotest.(check int)
      (Printf.sprintf "page %d honored" v)
      ((v + 2) mod 4)
      (Address_map.mc_of_paddr page_map paddr)
  done;
  Alcotest.(check int) "no fallbacks" 0 (Page_alloc.fallback_allocations pa)

let test_mc_aware_fallback () =
  (* 2 frames per controller: the third page desiring MC0 must spill to an
     alternate controller instead of faulting (Section 5.3) *)
  let pa =
    Page_alloc.create ~map:page_map
      ~policy:
        (Page_alloc.Mc_aware
           { desired = (fun _ -> Some 0); fallback = (fun _ -> 0) })
      ~frames_per_mc:2 ()
  in
  let mcs =
    List.init 6 (fun v ->
        Address_map.mc_of_paddr page_map (Page_alloc.translate pa ~node:0 ~vaddr:(v * 4096)))
  in
  Alcotest.(check (list int)) "first two honored, rest spill" [ 0; 0; 1; 1; 2; 2 ] mcs;
  Alcotest.(check int) "fallbacks counted" 4 (Page_alloc.fallback_allocations pa)

let test_mc_aware_fallback_policy () =
  (* unhinted pages are placed by first touch (the hybrid of Section 6.4) *)
  let pa =
    Page_alloc.create ~map:page_map
      ~policy:
        (Page_alloc.Mc_aware
           { desired = (fun vpage -> if vpage < 2 then Some 3 else None);
             fallback = (fun node -> node / 16) })
      ()
  in
  let mc v node = Address_map.mc_of_paddr page_map (Page_alloc.translate pa ~node ~vaddr:(v * 4096)) in
  Alcotest.(check int) "hinted page honored" 3 (mc 0 0);
  Alcotest.(check int) "unhinted page by first touch" 2 (mc 5 40)

let test_free_region_reclaim () =
  (* a departing tenant's frames refill its controller: with MC0's two
     frames both taken, freeing one page lets the next allocation honor
     the desired controller again instead of spilling *)
  let pa =
    Page_alloc.create ~map:page_map
      ~policy:
        (Page_alloc.Mc_aware
           { desired = (fun _ -> Some 0); fallback = (fun _ -> 0) })
      ~frames_per_mc:2 ()
  in
  let mc v = Address_map.mc_of_paddr page_map (Page_alloc.translate pa ~node:0 ~vaddr:(v * 4096)) in
  Alcotest.(check int) "first page on MC0" 0 (mc 0);
  Alcotest.(check int) "second page on MC0" 0 (mc 1);
  Alcotest.(check int) "freed one page" 1
    (Page_alloc.free_region pa ~first_vpage:0 ~last_vpage:0);
  Alcotest.(check int) "one live page left" 1 (Page_alloc.pages_allocated pa);
  Alcotest.(check int) "reclaimed frame honors the hint again" 0 (mc 7);
  Alcotest.(check int) "no fallbacks along the way" 0
    (Page_alloc.fallback_allocations pa);
  Alcotest.(check int) "empty range frees nothing" 0
    (Page_alloc.free_region pa ~first_vpage:100 ~last_vpage:120)

let test_first_touch_full_falls_back () =
  (* a full controller under first touch must spill to a neighbor, not
     over-allocate past its frame budget *)
  let pa =
    Page_alloc.create ~map:page_map
      ~policy:(Page_alloc.First_touch (fun _ -> 0))
      ~frames_per_mc:2 ()
  in
  let mc v = Address_map.mc_of_paddr page_map (Page_alloc.translate pa ~node:0 ~vaddr:(v * 4096)) in
  Alcotest.(check (list int)) "budget enforced: third page spills" [ 0; 0; 1 ]
    (List.init 3 mc);
  Alcotest.(check int) "the spill is a counted fallback" 1
    (Page_alloc.fallback_allocations pa)

let test_per_owner_fallbacks () =
  (* fallbacks are charged to the owner tag that suffered them *)
  let pa =
    Page_alloc.create ~map:page_map
      ~policy:
        (Page_alloc.Mc_aware
           { desired = (fun _ -> Some 0); fallback = (fun _ -> 0) })
      ~frames_per_mc:2 ()
  in
  let alloc owner v =
    ignore (Page_alloc.translate_owned pa ~owner ~node:0 ~vaddr:(v * 4096))
  in
  alloc 7 0;
  alloc 7 1;
  (* MC0 is now full: owner 9's pages spill *)
  alloc 9 2;
  alloc 9 3;
  Alcotest.(check int) "owner 7 clean" 0
    (Page_alloc.fallback_allocations_of pa ~owner:7);
  Alcotest.(check int) "owner 9 charged twice" 2
    (Page_alloc.fallback_allocations_of pa ~owner:9);
  Alcotest.(check int) "global total agrees" 2
    (Page_alloc.fallback_allocations pa)

let test_line_mode_capacity_and_reuse () =
  (* line-interleaved mode is bounded by the same total budget and reuses
     reclaimed frames *)
  let pa =
    Page_alloc.create ~map:line_map ~policy:Page_alloc.Hardware_interleaved
      ~frames_per_mc:1 ()
  in
  let frame v = Page_alloc.translate pa ~node:0 ~vaddr:(v * 4096) / 4096 in
  let f0 = frame 0 in
  let f1 = frame 1 in
  ignore (frame 2);
  ignore (frame 3);
  Alcotest.(check bool) "capacity reached raises" true
    (match frame 4 with
    | _ -> false
    | exception Failure _ -> true);
  Alcotest.(check int) "freed two pages" 2
    (Page_alloc.free_region pa ~first_vpage:0 ~last_vpage:1);
  let reused = frame 9 in
  Alcotest.(check bool) "reclaimed frame reused" true
    (List.mem reused [ f0; f1 ])

let prop_translation_injective =
  QCheck.Test.make ~name:"distinct pages get distinct frames" ~count:100
    (QCheck.make
       QCheck.Gen.(list_size (int_range 1 50) (int_range 0 200)))
    (fun vpages ->
      let pa = Page_alloc.create ~map:page_map ~policy:Page_alloc.Hardware_interleaved () in
      let frames =
        List.map (fun v -> Page_alloc.translate pa ~node:0 ~vaddr:(v * 4096) / 4096)
          (List.sort_uniq compare vpages)
      in
      List.length frames = List.length (List.sort_uniq compare frames))

(* The radix page table and staged shifts against the hash-table
   allocator they replaced ([Naive_page_alloc]): the same random
   sequence of translations and frees under each policy, both
   interleavings, power-of-two and other page sizes and controller
   counts, must give equal paddrs (or the same exhaustion failure) and
   equal page, fallback and per-owner fallback counts after every step.
   Pages cluster around 0, leaf (1024-page) and middle (2^20-page)
   boundaries, page 2^19 (the middle level's top bit), 5·256 MB and
   4 GB; frees reuse frames; a budget of a few
   frames per controller forces spills and exhaustion. *)
type op = Translate of int * int * int | Free of int * int

let prop_radix_equals_naive =
  let open QCheck.Gen in
  let gen =
    let* interleaving =
      oneofl [ Address_map.Line_interleaved; Address_map.Page_interleaved ]
    in
    let* page_bytes = oneofl [ 4096; 4096; 1024; 3072 ] in
    let* num_mcs = oneofl [ 1; 2; 3; 4; 4; 6; 8 ] in
    let* policy = int_range 0 2 in
    let* frames_per_mc = oneof [ int_range 1 12; return (1 lsl 18) ] in
    let base =
      oneofl
        [
          0;
          1024 * page_bytes;
          (1 lsl 19) * page_bytes;
          (1 lsl 20) * page_bytes;
          5 lsl 28;
          1 lsl 32;
        ]
    in
    let vpage =
      let* b = base in
      let* d = int_range (-4) 40 in
      return (max 0 ((b / page_bytes) + d))
    in
    let op =
      frequency
        [
          ( 8,
            let* owner = int_range (-1) 2 in
            let* node = int_range 0 63 in
            let* v = vpage in
            let* off = int_range 0 (page_bytes - 1) in
            return (Translate (owner, node, (v * page_bytes) + off)) );
          ( 1,
            let* first = vpage in
            let* len = oneof [ int_range (-1) 50; int_range 900 2100 ] in
            return (Free (first - (len / 2), first + (len / 2))) );
        ]
    in
    let* ops = list_size (int_range 1 200) op in
    return (interleaving, page_bytes, num_mcs, policy, frames_per_mc, ops)
  in
  let print (i, pb, m, pol, f, ops) =
    Printf.sprintf "%s page=%d mcs=%d policy=%d frames=%d\n%s"
      (Address_map.interleaving_to_string i) pb m pol f
      (String.concat "\n"
         (List.map
            (function
              | Translate (o, n, v) -> Printf.sprintf "translate owner=%d node=%d vaddr=%d" o n v
              | Free (a, b) -> Printf.sprintf "free %d..%d" a b)
            ops))
  in
  QCheck.Test.make ~name:"radix page table = naive allocator" ~count:300
    (QCheck.make ~print gen)
    (fun (interleaving, page_bytes, num_mcs, policy, frames_per_mc, ops) ->
      let map =
        Address_map.make ~interleaving ~line_bytes:256 ~page_bytes ~num_mcs ()
      in
      let policy =
        match policy with
        | 0 -> Page_alloc.Hardware_interleaved
        | 1 -> Page_alloc.First_touch (fun node -> node mod num_mcs)
        | _ ->
          Page_alloc.Mc_aware
            {
              desired =
                (fun v -> if v mod 3 = 0 then None else Some (v * 7 mod num_mcs));
              fallback = (fun node -> (node + 1) mod num_mcs);
            }
      in
      let pa = Page_alloc.create ~map ~policy ~frames_per_mc () in
      let na = Naive_page_alloc.create ~map ~policy ~frames_per_mc () in
      let run f = match f () with v -> Ok v | exception e -> Error e in
      List.for_all
        (fun op ->
          let same =
            match op with
            | Translate (owner, node, vaddr) ->
              run (fun () -> Page_alloc.translate_owned pa ~owner ~node ~vaddr)
              = run (fun () -> Naive_page_alloc.translate_owned na ~owner ~node ~vaddr)
            | Free (first_vpage, last_vpage) ->
              Page_alloc.free_region pa ~first_vpage ~last_vpage
              = Naive_page_alloc.free_region na ~first_vpage ~last_vpage
          in
          same
          && Page_alloc.pages_allocated pa = Naive_page_alloc.pages_allocated na
          && Page_alloc.fallback_allocations pa
             = Naive_page_alloc.fallback_allocations na
          && List.for_all
               (fun owner ->
                 Page_alloc.fallback_allocations_of pa ~owner
                 = Naive_page_alloc.fallback_allocations_of na ~owner)
               [ 0; 1; 2 ])
        ops)

let test_negative_vaddr () =
  let pa = Page_alloc.create ~map:page_map ~policy:Page_alloc.Hardware_interleaved () in
  Alcotest.check_raises "negative vaddr"
    (Invalid_argument "Page_alloc.translate: negative vaddr") (fun () ->
      ignore (Page_alloc.translate pa ~node:0 ~vaddr:(-1)));
  Alcotest.(check int) "nothing mapped" 0 (Page_alloc.pages_allocated pa)

let qsuite = List.map QCheck_alcotest.to_alcotest

let suite =
  [
    ( "os.page_alloc",
      [
        Alcotest.test_case "translation stable" `Quick test_translation_stable;
        Alcotest.test_case "line-interleaved mode" `Quick test_line_interleaved_mode;
        Alcotest.test_case "hardware rotation" `Quick test_hardware_interleaved_rotation;
        Alcotest.test_case "first touch" `Quick test_first_touch;
        Alcotest.test_case "mc-aware" `Quick test_mc_aware;
        Alcotest.test_case "mc-aware fallback" `Quick test_mc_aware_fallback;
        Alcotest.test_case "mc-aware unhinted = first touch" `Quick
          test_mc_aware_fallback_policy;
        Alcotest.test_case "free_region reclaims frames" `Quick
          test_free_region_reclaim;
        Alcotest.test_case "first-touch budget fallback" `Quick
          test_first_touch_full_falls_back;
        Alcotest.test_case "per-owner fallback counters" `Quick
          test_per_owner_fallbacks;
        Alcotest.test_case "line-mode capacity and reuse" `Quick
          test_line_mode_capacity_and_reuse;
        Alcotest.test_case "negative vaddr" `Quick test_negative_vaddr;
      ]
      @ qsuite [ prop_translation_injective; prop_radix_equals_naive ] );
  ]
