(* Tests for the cache substrate: set-associative LRU caches and the L2
   tag directory. *)

module Sacache = Cache_sim.Sacache
module Directory = Cache_sim.Directory

let mk ?(hash = false) ?(size = 1024) ?(line = 64) ?(ways = 2) () =
  Sacache.create ~hash_sets:hash ~size_bytes:size ~line_bytes:line ~ways ()

let is_hit = function Sacache.Hit -> true | Sacache.Miss _ -> false

let test_geometry () =
  let c = mk () in
  Alcotest.(check int) "sets" 8 (Sacache.sets c);
  Alcotest.(check int) "line bytes" 64 (Sacache.line_bytes c);
  Alcotest.(check int) "line addr" 128 (Sacache.line_addr c 130);
  Alcotest.check_raises "bad line size" (Invalid_argument "Sacache.create")
    (fun () -> ignore (Sacache.create ~size_bytes:1024 ~line_bytes:48 ~ways:2 ()))

let test_hit_after_fill () =
  let c = mk () in
  Alcotest.(check bool) "cold miss" false (is_hit (Sacache.access c ~addr:0 ~write:false));
  Alcotest.(check bool) "then hit" true (is_hit (Sacache.access c ~addr:0 ~write:false));
  Alcotest.(check bool) "same line hit" true (is_hit (Sacache.access c ~addr:63 ~write:false));
  Alcotest.(check bool) "next line miss" false (is_hit (Sacache.access c ~addr:64 ~write:false))

let test_lru_eviction () =
  let c = mk () in
  (* 2-way set 0: lines 0, 512 (8 sets × 64B = 512B stride aliases) *)
  ignore (Sacache.access c ~addr:0 ~write:false);
  ignore (Sacache.access c ~addr:512 ~write:false);
  (* touch 0 so 512 becomes LRU *)
  ignore (Sacache.access c ~addr:0 ~write:false);
  (* a third line in set 0 must evict 512 *)
  (match Sacache.access c ~addr:1024 ~write:false with
  | Sacache.Miss { evicted = Some e; _ } -> Alcotest.(check int) "evicts LRU" 512 e
  | _ -> Alcotest.fail "expected an eviction");
  Alcotest.(check bool) "0 still resident" true (is_hit (Sacache.access c ~addr:0 ~write:false));
  Alcotest.(check bool) "512 gone" false (is_hit (Sacache.access c ~addr:512 ~write:false))

(* A hit allocates nothing: the minor words counted across many hits,
   reads and writes, in every way of the set, equal those counted across
   none. *)
let test_hit_allocates_nothing () =
  List.iter
    (fun hash ->
      let c = mk ~hash ~ways:4 () in
      let addrs = [| 0; 256; 512; 768 |] in
      Array.iter (fun addr -> ignore (Sacache.access c ~addr ~write:false)) addrs;
      let words n =
        let before = Gc.minor_words () in
        for k = 1 to n do
          ignore (Sacache.access c ~addr:addrs.(k land 3) ~write:(k land 4 = 0))
        done;
        Gc.minor_words () -. before
      in
      let none = words 0 in
      Alcotest.(check (float 0.)) "minor words across 10000 hits" none (words 10000);
      Alcotest.(check int) "all hits" 10000 (fst (Sacache.stats c)))
    [ false; true ]

let test_dirty_writeback () =
  (* direct-mapped: 16 sets, same-set stride 1024 *)
  let c = mk ~ways:1 () in
  ignore (Sacache.access c ~addr:0 ~write:true);
  (match Sacache.access c ~addr:1024 ~write:false with
  | Sacache.Miss { evicted = Some 0; evicted_dirty = true } -> ()
  | _ -> Alcotest.fail "dirty line must be written back");
  (* clean eviction *)
  match Sacache.access c ~addr:2048 ~write:false with
  | Sacache.Miss { evicted = Some 1024; evicted_dirty = false } -> ()
  | _ -> Alcotest.fail "clean line eviction"

let test_probe_invalidate () =
  let c = mk () in
  ignore (Sacache.access c ~addr:320 ~write:true);
  Alcotest.(check bool) "probe finds it" true (Sacache.probe c ~addr:320);
  Alcotest.(check bool) "invalidate reports dirty" true (Sacache.invalidate c ~addr:320);
  Alcotest.(check bool) "gone after invalidate" false (Sacache.probe c ~addr:320);
  Alcotest.(check bool) "invalidate missing is false" false (Sacache.invalidate c ~addr:320)

let test_stats_and_clear () =
  let c = mk () in
  ignore (Sacache.access c ~addr:0 ~write:false);
  ignore (Sacache.access c ~addr:0 ~write:false);
  Alcotest.(check (pair int int)) "1 hit 1 miss" (1, 1) (Sacache.stats c);
  Sacache.clear c;
  Alcotest.(check (pair int int)) "cleared" (0, 0) (Sacache.stats c);
  Alcotest.(check bool) "cold again" false (is_hit (Sacache.access c ~addr:0 ~write:false))

let test_hash_spreads_aliases () =
  (* addresses at stride sets*line alias to one set without hashing; the
     XOR fold must spread them so a working set of #sets lines survives *)
  let plain = mk ~ways:2 () and hashed = mk ~hash:true ~ways:2 () in
  let stride = 8 * 64 in
  let touch c =
    for i = 0 to 7 do
      ignore (Sacache.access c ~addr:(i * stride) ~write:false)
    done;
    (* second pass: count hits *)
    let hits = ref 0 in
    for i = 0 to 7 do
      if is_hit (Sacache.access c ~addr:(i * stride) ~write:false) then incr hits
    done;
    !hits
  in
  Alcotest.(check int) "plain cache thrashes" 0 (touch plain);
  Alcotest.(check bool) "hashed cache retains most" true (touch hashed >= 6)

let prop_lru_working_set =
  (* any working set of <= ways lines per set always hits after warmup *)
  QCheck.Test.make ~name:"working set of `ways` lines per set stays resident"
    ~count:100
    (QCheck.make QCheck.Gen.(int_range 0 1000))
    (fun base ->
      let c = mk () in
      let addrs = [ base * 64; (base * 64) + 4096 ] in
      List.iter (fun a -> ignore (Sacache.access c ~addr:a ~write:false)) addrs;
      List.for_all (fun a -> is_hit (Sacache.access c ~addr:a ~write:false)) addrs)

let test_rejects_non_pow2_sets () =
  (* 3 sets: 384 B of 64 B lines, 2 ways *)
  Alcotest.check_raises "3-set geometry" (Invalid_argument "Sacache.create")
    (fun () -> ignore (Sacache.create ~size_bytes:384 ~line_bytes:64 ~ways:2 ()));
  Alcotest.(check int) "4 sets accepted" 4
    (Sacache.sets (Sacache.create ~size_bytes:512 ~line_bytes:64 ~ways:2 ()))

type cache_op = Access of int * bool | Probe of int | Invalidate of int

(* The shift-and-mask cache against [Naive_sacache] (division set index,
   option lookups), driven by the same random operations on random
   power-of-two geometries with and without set hashing.  Addresses come
   from a pool a few times the cache's capacity, spread over high bits so
   the hash folds matter, which forces conflicts, LRU evictions and dirty
   write-backs. *)
let prop_sacache_matches_naive =
  let open QCheck.Gen in
  let geometry =
    oneofl [ 16; 32; 64; 128 ] >>= fun line ->
    oneofl [ 1; 2; 4; 16 ] >>= fun ways ->
    oneofl [ 1; 2; 8; 32; 64 ] >>= fun sets ->
    bool >>= fun hash -> return (line, ways, sets, hash)
  in
  let case =
    geometry >>= fun (line, ways, sets, hash) ->
    let lines = 3 * ways * sets in
    let addr =
      map2
        (fun l off -> ((l * 7919 mod (lines * 64)) * line) + off)
        (int_bound (lines - 1))
        (int_bound (line - 1))
    in
    list_size (int_range 1 400)
      (frequency
         [
           (8, map2 (fun a w -> Access (a, w)) addr bool);
           (1, map (fun a -> Probe a) addr);
           (1, map (fun a -> Invalidate a) addr);
         ])
    >>= fun ops -> return ((line, ways, sets, hash), ops)
  in
  let print ((line, ways, sets, hash), ops) =
    Printf.sprintf "line %d, %d ways, %d sets, hash %b: %s" line ways sets hash
      (String.concat "; "
         (List.map
            (function
              | Access (a, w) -> Printf.sprintf "%s %d" (if w then "W" else "R") a
              | Probe a -> Printf.sprintf "P %d" a
              | Invalidate a -> Printf.sprintf "I %d" a)
            ops))
  in
  QCheck.Test.make ~name:"shift-and-mask cache equals the division oracle"
    ~count:500 (QCheck.make ~print case)
    (fun ((line, ways, sets, hash), ops) ->
      let size_bytes = line * ways * sets in
      let c =
        Sacache.create ~hash_sets:hash ~size_bytes ~line_bytes:line ~ways ()
      and o =
        Naive_sacache.create ~hash_sets:hash ~size_bytes ~line_bytes:line ~ways ()
      in
      List.for_all
        (function
          | Access (addr, write) ->
            Sacache.access c ~addr ~write = Naive_sacache.access o ~addr ~write
          | Probe addr -> Sacache.probe c ~addr = Naive_sacache.probe o ~addr
          | Invalidate addr ->
            Sacache.invalidate c ~addr = Naive_sacache.invalidate o ~addr)
        ops)

(* --- directory --- *)

let test_directory_basic () =
  let d = Directory.create ~nodes:64 in
  Alcotest.(check (list int)) "empty" [] (Directory.holders d ~line:0x100);
  Directory.add_holder d ~line:0x100 ~node:5;
  Directory.add_holder d ~line:0x100 ~node:63;
  Alcotest.(check (list int)) "two holders" [ 5; 63 ] (Directory.holders d ~line:0x100);
  Directory.remove_holder d ~line:0x100 ~node:5;
  Alcotest.(check (list int)) "one left" [ 63 ] (Directory.holders d ~line:0x100);
  Directory.remove_holder d ~line:0x100 ~node:63;
  Alcotest.(check (list int)) "empty again" [] (Directory.holders d ~line:0x100)

let test_directory_closest () =
  let d = Directory.create ~nodes:64 in
  Directory.add_holder d ~line:7 ~node:10;
  Directory.add_holder d ~line:7 ~node:40;
  let dist_from x = Array.init 64 (fun n -> abs (n - x)) in
  Alcotest.(check int) "closest to 12" 10
    (Directory.closest_holder d ~line:7 ~excluding:(-1) ~distance:(dist_from 12));
  Alcotest.(check int) "closest to 39" 40
    (Directory.closest_holder d ~line:7 ~excluding:(-1) ~distance:(dist_from 39));
  (* the requester itself is never returned *)
  Alcotest.(check int) "excluding self" 40
    (Directory.closest_holder d ~line:7 ~excluding:10 ~distance:(dist_from 10));
  Directory.remove_holder d ~line:7 ~node:40;
  Alcotest.(check int) "no other holder" (-1)
    (Directory.closest_holder d ~line:7 ~excluding:10 ~distance:(dist_from 0))

let prop_directory_membership =
  QCheck.Test.make ~name:"add/remove holder tracks membership" ~count:300
    (QCheck.make
       QCheck.Gen.(list_size (int_range 0 30) (pair (int_range 0 63) bool)))
    (fun ops ->
      let d = Directory.create ~nodes:64 in
      let expected = Hashtbl.create 16 in
      List.iter
        (fun (node, add) ->
          if add then begin
            Directory.add_holder d ~line:1 ~node;
            Hashtbl.replace expected node ()
          end
          else begin
            Directory.remove_holder d ~line:1 ~node;
            Hashtbl.remove expected node
          end)
        ops;
      let want = List.sort compare (Hashtbl.fold (fun k () l -> k :: l) expected []) in
      Directory.holders d ~line:1 = want)

(* Machines past the old two-word limit of 124 nodes: holders in every
   word of the bitset, ascending order, ties and removal. *)
let test_directory_large nodes () =
  let d = Directory.create ~nodes in
  let held = [ 0; 61; 62; 63; 125; 126; nodes - 1 ] in
  List.iter (fun node -> Directory.add_holder d ~line:0x4000 ~node) held;
  Alcotest.(check (list int)) "ascending holders" held (Directory.holders d ~line:0x4000);
  (* every holder equally far: the lowest-numbered non-excluded one wins *)
  let flat = Array.make nodes 3 in
  Alcotest.(check int) "tie to lowest" 0
    (Directory.closest_holder d ~line:0x4000 ~excluding:(-1) ~distance:flat);
  Alcotest.(check int) "tie, requester excluded" 61
    (Directory.closest_holder d ~line:0x4000 ~excluding:0 ~distance:flat);
  let from_last = Array.init nodes (fun n -> nodes - 1 - n) in
  Alcotest.(check int) "highest node nearest" (nodes - 1)
    (Directory.closest_holder d ~line:0x4000 ~excluding:(-1) ~distance:from_last);
  Alcotest.(check int) "next highest when excluded" 126
    (Directory.closest_holder d ~line:0x4000 ~excluding:(nodes - 1)
       ~distance:from_last);
  Alcotest.check_raises "node out of range" (Invalid_argument "Directory.add_holder")
    (fun () -> Directory.add_holder d ~line:0x4000 ~node:nodes);
  List.iter (fun node -> Directory.remove_holder d ~line:0x4000 ~node) held;
  Alcotest.(check (list int)) "empty" [] (Directory.holders d ~line:0x4000);
  Alcotest.(check int) "no holder" (-1)
    (Directory.closest_holder d ~line:0x4000 ~excluding:(-1) ~distance:flat)

type dir_op =
  | Add of int * int
  | Remove of int * int
  | Closest of int * int * int array
  | Clear

(* The bitset directory against [Naive_directory] (two-word masks, holder
   lists, a fold for the closest holder) on up to 124 nodes.  Lines are
   line-aligned addresses; distances are drawn from a few values so ties
   are common; after every operation the holder lists of all lines agree. *)
let prop_directory_matches_naive =
  let open QCheck.Gen in
  let case =
    oneofl [ 1; 16; 62; 63; 64; 100; 124 ] >>= fun nodes ->
    let line = map (fun l -> l * 64) (int_bound 5) in
    let node = int_bound (nodes - 1) in
    list_size (int_range 1 200)
      (frequency
         [
           (6, map2 (fun l n -> Add (l, n)) line node);
           (3, map2 (fun l n -> Remove (l, n)) line node);
           ( 3,
             map3
               (fun l x dist -> Closest (l, x, dist))
               line (int_range (-1) (nodes - 1))
               (array_repeat nodes (int_bound 3)) );
           (1, return Clear);
         ])
    >>= fun ops -> return (nodes, ops)
  in
  let print (nodes, ops) =
    Printf.sprintf "%d nodes: %s" nodes
      (String.concat "; "
         (List.map
            (function
              | Add (l, n) -> Printf.sprintf "add %d %d" l n
              | Remove (l, n) -> Printf.sprintf "remove %d %d" l n
              | Closest (l, x, _) -> Printf.sprintf "closest %d excl %d" l x
              | Clear -> "clear")
            ops))
  in
  QCheck.Test.make ~name:"bitset directory equals the list oracle" ~count:500
    (QCheck.make ~print case) (fun (nodes, ops) ->
      let d = Directory.create ~nodes and o = Naive_directory.create ~nodes in
      List.for_all
        (fun op ->
          let same =
            match op with
            | Add (line, node) ->
              Directory.add_holder d ~line ~node;
              Naive_directory.add_holder o ~line ~node;
              true
            | Remove (line, node) ->
              Directory.remove_holder d ~line ~node;
              Naive_directory.remove_holder o ~line ~node;
              true
            | Closest (line, excluding, dist) ->
              Directory.closest_holder d ~line ~excluding ~distance:dist
              = Option.value ~default:(-1)
                  (Naive_directory.closest_holder o ~line ~excluding
                     ~distance:(fun n -> dist.(n)) ())
            | Clear ->
              Directory.clear d;
              Naive_directory.clear o;
              true
          in
          same
          && List.for_all
               (fun l ->
                 Directory.holders d ~line:(l * 64)
                 = Naive_directory.holders o ~line:(l * 64))
               [ 0; 1; 2; 3; 4; 5 ])
        ops)

let qsuite = List.map QCheck_alcotest.to_alcotest

(* The same oracle through what the six-line property never reaches:
   thousands of lines, so the open-addressed table grows and probe runs
   collide, lines that lose their last holder (deleted by shifting their
   probe run back), and lines added again after that.  Every line's
   holders and closest holder must agree after each phase. *)
let prop_directory_grows =
  let gen =
    QCheck.Gen.(triple (oneofl [ 1; 63; 100 ]) (oneofl [ 64; 700; 3000 ]) int)
  in
  QCheck.Test.make ~name:"flat directory equals the list oracle through growth and deletion"
    ~count:20
    (QCheck.make
       ~print:(fun (nodes, lines, seed) ->
         Printf.sprintf "%d nodes, %d lines, seed %d" nodes lines seed)
       gen)
    (fun (nodes, lines, seed) ->
      let st = Random.State.make [| seed |] in
      let d = Directory.create ~nodes and o = Naive_directory.create ~nodes in
      (* random line addresses: an arithmetic run of lines hashes almost
         without collisions *)
      let pool = Array.init lines (fun _ -> 64 * Random.State.bits st) in
      let line () = pool.(Random.State.int st lines) in
      let add line node =
        Directory.add_holder d ~line ~node;
        Naive_directory.add_holder o ~line ~node
      and remove line node =
        Directory.remove_holder d ~line ~node;
        Naive_directory.remove_holder o ~line ~node
      in
      let agree () =
        let dist = Array.init nodes (fun _ -> Random.State.int st 3) in
        List.for_all
          (fun line ->
            let excluding = Random.State.int st (nodes + 1) - 1 in
            Directory.holders d ~line = Naive_directory.holders o ~line
            && Directory.closest_holder d ~line ~excluding ~distance:dist
               = Option.value ~default:(-1)
                   (Naive_directory.closest_holder o ~line ~excluding
                      ~distance:(fun n -> dist.(n)) ()))
          (Array.to_list pool)
      in
      for _ = 1 to 3 * lines do
        let l = line () and n = Random.State.int st nodes in
        if Random.State.int st 4 = 0 then remove l n else add l n
      done;
      let grown = agree () in
      (* drain about half the lines completely *)
      Array.iter
        (fun l ->
          if Random.State.bool st then
            for n = 0 to nodes - 1 do
              remove l n
            done)
        pool;
      let drained = agree () in
      for _ = 1 to lines do
        add (line ()) (Random.State.int st nodes)
      done;
      grown && drained && agree ())

let suite =
  [
    ( "cache.sacache",
      [
        Alcotest.test_case "geometry" `Quick test_geometry;
        Alcotest.test_case "hit after fill" `Quick test_hit_after_fill;
        Alcotest.test_case "LRU eviction" `Quick test_lru_eviction;
        Alcotest.test_case "dirty writeback" `Quick test_dirty_writeback;
        Alcotest.test_case "a hit allocates nothing" `Quick test_hit_allocates_nothing;
        Alcotest.test_case "probe/invalidate" `Quick test_probe_invalidate;
        Alcotest.test_case "stats/clear" `Quick test_stats_and_clear;
        Alcotest.test_case "set hashing" `Quick test_hash_spreads_aliases;
        Alcotest.test_case "power-of-two sets" `Quick test_rejects_non_pow2_sets;
      ]
      @ qsuite [ prop_lru_working_set; prop_sacache_matches_naive ] );
    ( "cache.directory",
      [
        Alcotest.test_case "holders" `Quick test_directory_basic;
        Alcotest.test_case "closest holder" `Quick test_directory_closest;
        Alcotest.test_case "144 nodes" `Quick (test_directory_large 144);
        Alcotest.test_case "256 nodes" `Quick (test_directory_large 256);
      ]
      @ qsuite
          [ prop_directory_membership; prop_directory_matches_naive; prop_directory_grows ] );
  ]
