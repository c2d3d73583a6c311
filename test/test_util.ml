(* Tests for the utility substrate: PRNG, statistics/sampling, the paper's
   quicksort, and the operation counters. *)

open Mmdb_util

(* --- Rng --------------------------------------------------------------- *)

let test_rng_determinism () =
  let a = Rng.create ~seed:42 () and b = Rng.create ~seed:42 () in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done;
  let c = Rng.create ~seed:43 () in
  let differs = ref false in
  let a' = Rng.create ~seed:42 () in
  for _ = 1 to 20 do
    if Rng.int a' 1_000_000 <> Rng.int c 1_000_000 then differs := true
  done;
  Alcotest.(check bool) "different seeds differ" true !differs

let test_rng_bounds () =
  let rng = Rng.create ~seed:1 () in
  for _ = 1 to 1000 do
    let x = Rng.int rng 7 in
    if x < 0 || x >= 7 then Alcotest.failf "int out of bounds: %d" x;
    let y = Rng.int_in_range rng ~lo:(-3) ~hi:3 in
    if y < -3 || y > 3 then Alcotest.failf "range out of bounds: %d" y;
    let f = Rng.float rng 2.5 in
    if f < 0.0 || f >= 2.5 then Alcotest.failf "float out of bounds: %f" f
  done;
  Alcotest.check_raises "int 0 rejected"
    (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int rng 0))

let test_rng_copy_and_split () =
  let a = Rng.create ~seed:9 () in
  ignore (Rng.int a 10);
  let b = Rng.copy a in
  Alcotest.(check int) "copy continues identically" (Rng.int a 1000)
    (Rng.int b 1000);
  let c = Rng.split a in
  (* split advances the parent and the child produces a distinct stream *)
  let same = ref 0 in
  for _ = 1 to 20 do
    if Rng.int a 1000 = Rng.int c 1000 then incr same
  done;
  Alcotest.(check bool) "split stream is distinct" true (!same < 20)

let test_shuffle_is_permutation () =
  let rng = Rng.create ~seed:5 () in
  let a = Array.init 200 Fun.id in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check bool) "permutation" true (sorted = Array.init 200 Fun.id);
  Alcotest.(check bool) "actually shuffled" true (a <> Array.init 200 Fun.id)

let test_sample_without_replacement () =
  let rng = Rng.create ~seed:6 () in
  let s = Rng.sample_without_replacement rng ~k:50 ~n:100 in
  Alcotest.(check int) "k elements" 50 (Array.length s);
  let uniq = List.sort_uniq compare (Array.to_list s) in
  Alcotest.(check int) "distinct" 50 (List.length uniq);
  Array.iter (fun x -> if x < 0 || x >= 100 then Alcotest.fail "range") s;
  (* k = n is a full permutation *)
  let full = Rng.sample_without_replacement rng ~k:10 ~n:10 in
  Alcotest.(check int) "full draw distinct" 10
    (List.length (List.sort_uniq compare (Array.to_list full)));
  Alcotest.check_raises "k > n rejected"
    (Invalid_argument "Rng.sample_without_replacement") (fun () ->
      ignore (Rng.sample_without_replacement rng ~k:11 ~n:10))

let test_gaussian_moments () =
  let rng = Rng.create ~seed:7 () in
  let xs = Array.init 20_000 (fun _ -> Rng.gaussian rng) in
  let m = Stats.mean xs and s = Stats.stddev xs in
  if Float.abs m > 0.05 then Alcotest.failf "mean %f too far from 0" m;
  if Float.abs (s -. 1.0) > 0.05 then Alcotest.failf "stddev %f too far from 1" s

(* --- Stats ------------------------------------------------------------- *)

let test_truncated_normal_bounds () =
  let rng = Rng.create ~seed:8 () in
  for _ = 1 to 2000 do
    let x = Stats.truncated_normal rng ~mean:0.0 ~stddev:0.3 in
    if x < 0.0 || x > 1.0 then Alcotest.failf "outside [0,1]: %f" x
  done;
  Alcotest.check_raises "bad stddev"
    (Invalid_argument "Stats.truncated_normal: stddev <= 0") (fun () ->
      ignore (Stats.truncated_normal rng ~mean:0.0 ~stddev:0.0))

let test_duplicate_weights () =
  let rng = Rng.create ~seed:9 () in
  let w = Stats.duplicate_weights rng ~stddev:0.1 ~n_values:100 in
  Alcotest.(check int) "n weights" 100 (Array.length w);
  let total = Array.fold_left ( +. ) 0.0 w in
  if Float.abs (total -. 1.0) > 1e-9 then Alcotest.fail "not normalized";
  (* sorted descending *)
  for i = 1 to 99 do
    if w.(i) > w.(i - 1) +. 1e-12 then Alcotest.fail "not descending"
  done;
  (* skew: σ=0.1 concentrates far more mass on top decile than σ=0.8 *)
  let top_decile stddev =
    let rng = Rng.create ~seed:10 () in
    let w = Stats.duplicate_weights rng ~stddev ~n_values:100 in
    Array.fold_left ( +. ) 0.0 (Array.sub w 0 10)
  in
  Alcotest.(check bool) "skew ordering" true (top_decile 0.1 > 2.0 *. top_decile 0.8)

let test_apportion () =
  let counts = Stats.apportion [| 0.5; 0.3; 0.2 |] ~total:100 ~min_each:1 in
  Alcotest.(check int) "sums to total" 100 (Array.fold_left ( + ) 0 counts);
  Array.iter (fun c -> if c < 1 then Alcotest.fail "below minimum") counts;
  Alcotest.(check bool) "ordering respected" true
    (counts.(0) >= counts.(1) && counts.(1) >= counts.(2));
  (* degenerate: exact minimum *)
  let tight = Stats.apportion [| 0.9; 0.1 |] ~total:2 ~min_each:1 in
  Alcotest.(check (list int)) "tight fit" [ 1; 1 ] (Array.to_list tight);
  Alcotest.check_raises "total too small"
    (Invalid_argument "Stats.apportion: total too small") (fun () ->
      ignore (Stats.apportion [| 1.0 |] ~total:0 ~min_each:1))

let test_cumulative_share () =
  let curve = Stats.cumulative_share [| 70; 20; 10 |] in
  Alcotest.(check int) "three points" 3 (Array.length curve);
  let pv, pt = curve.(0) in
  Alcotest.(check bool) "first point" true
    (Float.abs (pv -. 33.33) < 0.5 && Float.abs (pt -. 70.0) < 0.01);
  let pv, pt = curve.(2) in
  Alcotest.(check bool) "last point reaches 100/100" true
    (Float.abs (pv -. 100.0) < 1e-9 && Float.abs (pt -. 100.0) < 1e-9);
  Alcotest.(check (array (pair (float 0.1) (float 0.1)))) "empty" [||]
    (Stats.cumulative_share [||])

let test_percentile () =
  let xs = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  Alcotest.(check (float 1e-9)) "median" 3.0 (Stats.percentile xs 50.0);
  Alcotest.(check (float 1e-9)) "min" 1.0 (Stats.percentile xs 0.0);
  Alcotest.(check (float 1e-9)) "max" 5.0 (Stats.percentile xs 100.0);
  Alcotest.(check (float 1e-9)) "interpolated" 1.2 (Stats.percentile xs 5.0);
  Alcotest.check_raises "empty input"
    (Invalid_argument "Stats.percentile: empty") (fun () ->
      ignore (Stats.percentile [||] 50.0))

(* --- Qsort -------------------------------------------------------------- *)

let test_qsort_basic () =
  let a = [| 5; 3; 9; 1; 4; 9; 0 |] in
  Qsort.sort ~cmp:compare a;
  Alcotest.(check (list int)) "sorted" [ 0; 1; 3; 4; 5; 9; 9 ] (Array.to_list a);
  Alcotest.(check bool) "is_sorted" true (Qsort.is_sorted ~cmp:compare a);
  let empty = [||] in
  Qsort.sort ~cmp:compare empty;
  let one = [| 42 |] in
  Qsort.sort ~cmp:compare one;
  Alcotest.(check (list int)) "singleton" [ 42 ] (Array.to_list one)

let test_insertion_sort_segment () =
  let a = [| 9; 5; 4; 3; 8; 0 |] in
  Qsort.insertion_sort ~lo:1 ~hi:4 ~cmp:compare a;
  Alcotest.(check (list int)) "only the segment sorted" [ 9; 3; 4; 5; 8; 0 ]
    (Array.to_list a)

let qsort_matches_stdlib =
  QCheck.Test.make ~count:200 ~name:"Qsort.sort ≡ List.sort"
    QCheck.(pair (list small_int) (int_range 1 30))
    (fun (xs, cutoff) ->
      let a = Array.of_list xs in
      Qsort.sort ~cutoff ~cmp:compare a;
      Array.to_list a = List.sort compare xs)

let test_qsort_counters () =
  (* O(n log n) comparisons, not O(n^2), on random input. *)
  let rng = Rng.create ~seed:11 () in
  let a = Array.init 10_000 (fun _ -> Rng.int rng 1_000_000) in
  Counters.reset ();
  let (), c = Counters.with_counters (fun () -> Qsort.sort ~cmp:compare a) in
  let n = 10_000.0 in
  let bound = 4.0 *. n *. (log n /. log 2.0) in
  if float_of_int c.Counters.comparisons > bound then
    Alcotest.failf "too many comparisons: %d" c.Counters.comparisons

(* --- Counters ------------------------------------------------------------ *)

let test_counters () =
  Counters.reset ();
  Counters.bump_comparisons ~n:3 ();
  Counters.bump_hash_calls ();
  let s = Counters.snapshot () in
  Alcotest.(check int) "comparisons" 3 s.Counters.comparisons;
  Alcotest.(check int) "hash calls" 1 s.Counters.hash_calls;
  (* diff *)
  Counters.bump_comparisons ();
  let s2 = Counters.snapshot () in
  Alcotest.(check int) "diff" 1 (Counters.diff s2 s).Counters.comparisons;
  (* disabled: no counting *)
  Counters.enabled := false;
  Counters.bump_comparisons ~n:100 ();
  let s3 = Counters.snapshot () in
  Counters.enabled := true;
  Alcotest.(check int) "disabled bumps ignored" s2.Counters.comparisons
    s3.Counters.comparisons;
  (* counting_cmp both counts and compares *)
  Counters.reset ();
  Alcotest.(check bool) "cmp result" true (Counters.counting_cmp compare 1 2 < 0);
  Alcotest.(check int) "one comparison" 1 (Counters.snapshot ()).Counters.comparisons

let test_with_counters_scoped () =
  Counters.reset ();
  Counters.bump_data_moves ~n:5 ();
  let r, c =
    Counters.with_counters (fun () ->
        Counters.bump_data_moves ~n:2 ();
        "result")
  in
  Alcotest.(check string) "result passthrough" "result" r;
  Alcotest.(check int) "only scoped moves" 2 c.Counters.data_moves

(* --- Domain_pool --------------------------------------------------------- *)

let test_pool_map_equivalence () =
  let input = Array.init 5_000 (fun i -> (i * 37) mod 1009) in
  let f x = (x * x) + 1 in
  let expect = Array.map f input in
  List.iter
    (fun size ->
      let pool = Domain_pool.create ~size () in
      let got = Domain_pool.parallel_map pool f input in
      Domain_pool.stop pool;
      Alcotest.(check bool)
        (Printf.sprintf "size %d matches sequential" size)
        true (got = expect))
    [ 1; 2; 8 ]

let test_pool_exception_propagation () =
  let pool = Domain_pool.create ~size:2 () in
  let input = Array.init 100 Fun.id in
  Alcotest.check_raises "task failure re-raised" (Failure "boom") (fun () ->
      ignore
        (Domain_pool.parallel_map pool
           (fun x -> if x = 63 then failwith "boom" else x)
           input));
  (* the pool is still usable after a failed map *)
  let ok = Domain_pool.parallel_map pool succ input in
  Alcotest.(check bool) "pool survives failure" true
    (ok = Array.map succ input);
  Domain_pool.stop pool

let test_pool_nested_fallback () =
  let pool = Domain_pool.create ~size:2 () in
  Alcotest.(check bool) "caller is not a worker" false (Domain_pool.in_worker ());
  let fut =
    Domain_pool.submit pool (fun () ->
        let inside = Domain_pool.in_worker () in
        (* nested parallel_map degrades to sequential instead of
           deadlocking against the workers we already occupy *)
        let nested =
          Domain_pool.parallel_map pool succ (Array.init 64 Fun.id)
        in
        (inside, nested))
  in
  let inside, nested = Domain_pool.await fut in
  Domain_pool.stop pool;
  Alcotest.(check bool) "worker flag set" true inside;
  Alcotest.(check bool) "nested result correct" true
    (nested = Array.init 64 succ)

let test_pool_chunks () =
  let check_cover n pieces =
    let ranges = Domain_pool.chunks ~n ~pieces in
    let covered = ref 0 in
    Array.iteri
      (fun i (lo, hi) ->
        if hi <= lo then Alcotest.failf "empty chunk %d" i;
        if i > 0 then begin
          let _, prev_hi = ranges.(i - 1) in
          Alcotest.(check int) "contiguous" prev_hi lo
        end;
        covered := !covered + (hi - lo))
      ranges;
    Alcotest.(check int) (Printf.sprintf "n=%d pieces=%d covers" n pieces) n
      !covered
  in
  check_cover 100 7;
  check_cover 7 100;
  check_cover 1 1;
  Alcotest.(check int) "n=0 is empty" 0
    (Array.length (Domain_pool.chunks ~n:0 ~pieces:4))

(* First use of the shared pool from many domains at once: every caller
   must get the one pool, and none may fail.  Only the first round can
   race creation; the later ones check the pool stays the same. *)
let test_pool_global_race () =
  for _ = 1 to 20 do
    let ready = Atomic.make 0 in
    let domains =
      Array.init 8 (fun _ ->
          Domain.spawn (fun () ->
              Atomic.incr ready;
              while Atomic.get ready < 8 do
                Domain.cpu_relax ()
              done;
              Domain_pool.global ()))
    in
    let pools = Array.map Domain.join domains in
    Array.iter
      (fun p ->
        Alcotest.(check bool) "one shared pool" true (p == Domain_pool.global ()))
      pools
  done

(* Fork/join must not force minor collections: OCaml's [Array.make] and
   [Array.init] collect the minor heap first when they build an array too
   large for it around a minor-heap value, and with pool workers alive
   that stops every domain.  [parallel_map] producing 100k fresh values
   may take the collections that filling a preallocated array with them
   takes, plus two (building each chunk with one [Array.init] forced
   eight more); [sort_parallel] allocates almost nothing, so it takes
   none (its scratch array, filled with the sorted [a.(0)], forced one
   when that was fresh). *)
let test_pool_no_forced_minor () =
  let minors f =
    Gc.full_major ();
    let m0 = (Gc.quick_stat ()).Gc.minor_collections in
    f ();
    (Gc.quick_stat ()).Gc.minor_collections - m0
  in
  let n = 100_000 in
  let input = Array.init n Fun.id in
  let plain = Array.make n None in
  let baseline =
    minors (fun () ->
        for i = 0 to n - 1 do
          plain.(i) <- Some i
        done)
  in
  let pool = Domain_pool.create ~size:2 () in
  let out = ref [||] in
  let m = minors (fun () -> out := Domain_pool.parallel_map pool Option.some input) in
  Alcotest.(check bool) "parallel_map result" true (!out = plain);
  Alcotest.(check bool)
    (Printf.sprintf "parallel_map: %d minor collections, preallocated array %d"
       m baseline)
    true (m <= baseline + 2);
  let a = Array.init n (fun i -> Some ((i * 7919) mod n)) in
  let m =
    minors (fun () ->
        a.(0) <- Some (Sys.opaque_identity (-1));
        Qsort.sort_parallel ~pool ~cmp:compare a)
  in
  Domain_pool.stop pool;
  Alcotest.(check bool) "sorted" true (Qsort.is_sorted ~cmp:compare a);
  Alcotest.(check int) "sort_parallel: minor collections" 0 m;
  (* Operators fed fresh tuples and entries.  With minor heaps too large
     for them to fill, every minor collection counted was forced: the
     hash join's partition growth filled with the routed tuple, and
     projection built its entry and key-pair arrays around an entry or a
     fresh pair, forcing one each. *)
  let open Mmdb_storage in
  let open Mmdb_core in
  let gc = Gc.get () in
  Gc.set { gc with Gc.minor_heap_size = 1 lsl 22 };
  let pool = Domain_pool.create ~size:2 () in
  Fun.protect
    ~finally:(fun () ->
      Domain_pool.stop pool;
      Gc.set gc)
    (fun () ->
      (* The end of a major cycle also empties the minor heaps, so the
         fewest of three runs counts; a forced collection shows in all. *)
      let forced name setup f =
        let run () =
          Gc.full_major ();
          let x = setup () in
          let m0 = (Gc.quick_stat ()).Gc.minor_collections in
          ignore (Sys.opaque_identity (f x));
          (Gc.quick_stat ()).Gc.minor_collections - m0
        in
        Alcotest.(check int)
          (name ^ ": minor collections")
          0
          (List.fold_left min max_int [ run (); run (); run () ])
      in
      let load name =
        Workload.load ~with_ttree:false ~name
          (Array.init 3000 (fun i -> i mod 700))
      in
      let side name = { Join.rel = load name; col = Workload.jcol } in
      forced "hash join"
        (fun () -> (side "R", side "S"))
        (fun (outer, inner) -> Join.hash_join ~outer ~inner ());
      List.iter
        (fun (name, pool, method_) ->
          forced name
            (fun () -> Temp_list.of_relation (load "R"))
            (fun tl ->
              let label =
                List.nth (Descriptor.labels (Temp_list.descriptor tl))
                  Workload.jcol
              in
              Project.run ?pool method_ tl [ label ]))
        [
          ("sort scan", None, Project.Sort_scan);
          ("sort scan, pool", Some pool, Project.Sort_scan);
          ("hashing, pool", Some pool, Project.Hashing);
        ];
      (* An index build sorted through an array filled with a fresh probe
         tuple, and a scan at batch size 1024 filled its batch and its
         survivor array with one: each fill forced one. *)
      forced "create_index"
        (fun () -> load "R")
        (fun rel ->
          Relation.create_index rel ~idx_name:"by_j"
            ~columns:[| Workload.jcol |] ~structure:Relation.T_tree
            ~unique:false);
      let size = Batch.size () in
      Batch.set_size 1024;
      Fun.protect
        ~finally:(fun () -> Batch.set_size size)
        (fun () ->
          forced "scan, batch 1024"
            (fun () -> load "R")
            (fun rel ->
              Select.select rel [ Select.Eq (Workload.jcol, Value.Int 7) ]));
      (* Index growth built its larger arrays around a stored element — the
         array index's and an overfull extendible bucket's doubling, the
         extendible directory's, the linear-hash directory's — as did a
         first bucket of more than 256 slots: with fresh elements, each
         forced one. *)
      let grow name (module I : Mmdb_index.Index_intf.S) ?node_size ~hash n =
        forced name
          (fun () ->
            I.create ?node_size ~duplicates:true
              ~cmp:(fun a b -> compare !a !b)
              ~hash ())
          (fun ix ->
            for i = n downto 1 do
              ignore (I.insert ix (ref i))
            done)
      in
      let key r = !r in
      grow "array index growth" (module Mmdb_index.Array_index) ~hash:key 1000;
      grow "extendible hash, one overfull bucket of 300"
        (module Mmdb_index.Extendible_hash)
        ~node_size:300
        ~hash:(fun _ -> 0)
        700;
      grow "extendible hash directory" (module Mmdb_index.Extendible_hash)
        ~node_size:1 ~hash:key 1000;
      grow "linear hash directory" (module Mmdb_index.Linear_hash) ~hash:key
        3000;
      grow "linear hash, buckets of 300" (module Mmdb_index.Linear_hash)
        ~node_size:300 ~hash:key 100)

(* --- Lru ----------------------------------------------------------------- *)

let test_lru_basic () =
  let c = Lru.create ~capacity:2 in
  Lru.add c "a" 1;
  Lru.add c "b" 2;
  Alcotest.(check (option int)) "find a" (Some 1) (Lru.find c "a");
  (* "a" is now most recent, so adding "c" evicts "b" *)
  Lru.add c "c" 3;
  Alcotest.(check (option int)) "b evicted" None (Lru.find c "b");
  Alcotest.(check (option int)) "a kept" (Some 1) (Lru.find c "a");
  Alcotest.(check (option int)) "c present" (Some 3) (Lru.find c "c");
  Alcotest.(check int) "length" 2 (Lru.length c);
  (* overwrite does not grow the cache *)
  Lru.add c "c" 30;
  Alcotest.(check (option int)) "overwrite" (Some 30) (Lru.find c "c");
  Alcotest.(check int) "length stable" 2 (Lru.length c);
  (* mem does not touch recency: "a" stays LRU and is evicted next *)
  Alcotest.(check (option int)) "refresh c" (Some 30) (Lru.find c "c");
  Alcotest.(check bool) "mem a" true (Lru.mem c "a");
  Lru.add c "d" 4;
  Alcotest.(check (option int)) "a evicted despite mem" None (Lru.find c "a");
  Lru.clear c;
  Alcotest.(check int) "cleared" 0 (Lru.length c);
  Alcotest.check_raises "capacity 0 rejected"
    (Invalid_argument "Lru.create: capacity <= 0") (fun () ->
      ignore (Lru.create ~capacity:0 : (string, int) Lru.t))

(* --- Counters across domains --------------------------------------------- *)

let test_counters_cross_domain_merge () =
  Counters.reset ();
  Counters.bump_comparisons ~n:5 ();
  let domains =
    List.init 3 (fun _ ->
        Domain.spawn (fun () ->
            Counters.bump_comparisons ~n:100 ();
            Counters.bump_data_moves ~n:7 ()))
  in
  List.iter Domain.join domains;
  let s = Counters.snapshot () in
  Alcotest.(check int) "comparisons summed across domains" 305
    s.Counters.comparisons;
  Alcotest.(check int) "data moves summed across domains" 21
    s.Counters.data_moves;
  (* local_snapshot sees only this domain's cell *)
  Alcotest.(check int) "local snapshot is per-domain" 5
    (Counters.local_snapshot ()).Counters.comparisons;
  (* absorb folds a snapshot into the calling domain *)
  Counters.absorb { Counters.zero with comparisons = 10 };
  Alcotest.(check int) "absorb adds" 315
    (Counters.snapshot ()).Counters.comparisons

(* --- Qsort.sort_parallel -------------------------------------------------- *)

let test_sort_parallel_equivalence () =
  let rng = Rng.create ~seed:12 () in
  let input = Array.init 10_000 (fun _ -> Rng.int rng 500) in
  let expect = Array.copy input in
  Qsort.sort ~cmp:compare expect;
  List.iter
    (fun size ->
      let pool = Domain_pool.create ~size () in
      let a = Array.copy input in
      Qsort.sort_parallel ~pool ~cmp:compare a;
      Domain_pool.stop pool;
      Alcotest.(check bool)
        (Printf.sprintf "size %d sorted like sequential" size)
        true (a = expect))
    [ 1; 2; 8 ];
  (* below the parallel threshold it must still sort *)
  let pool = Domain_pool.create ~size:4 () in
  let small = [| 3; 1; 2 |] in
  Qsort.sort_parallel ~pool ~cmp:compare small;
  Domain_pool.stop pool;
  Alcotest.(check (list int)) "small input" [ 1; 2; 3 ] (Array.to_list small)

(* --- Timing ---------------------------------------------------------------- *)

let test_timing () =
  let r, dt = Timing.time (fun () -> 21 * 2) in
  Alcotest.(check int) "result" 42 r;
  Alcotest.(check bool) "non-negative" true (dt >= 0.0);
  let r, dt = Timing.time_median ~repeats:5 (fun () -> "x") in
  Alcotest.(check string) "median result" "x" r;
  Alcotest.(check bool) "median non-negative" true (dt >= 0.0);
  Alcotest.check_raises "repeats 0"
    (Invalid_argument "Timing.time_median: repeats < 1") (fun () ->
      ignore (Timing.time_median ~repeats:0 (fun () -> ())))

(* --- Json ------------------------------------------------------------------ *)

let test_json_round_trip () =
  let doc =
    Json.Obj
      [
        ("null", Json.Null);
        ("true", Json.Bool true);
        ("int", Json.Int (-42));
        ("float", Json.Float 1.5);
        ("intish_float", Json.Float 3.0);
        ("str", Json.Str "he said \"hi\"\n\ttab");
        ("list", Json.List [ Json.Int 1; Json.Str "two"; Json.Null ]);
        ("nested", Json.Obj [ ("k", Json.List [] ) ]);
      ]
  in
  match Json.parse (Json.to_string doc) with
  | Error e -> Alcotest.failf "reparse failed: %s" e
  | Ok doc' ->
      Alcotest.(check bool) "round trip" true (doc = doc');
      (* integral floats keep their ".0" and re-parse as Float, ints as Int *)
      (match Json.member "intish_float" doc' with
      | Some (Json.Float 3.0) -> ()
      | _ -> Alcotest.fail "integral float decayed to Int");
      (match Json.member "int" doc' with
      | Some (Json.Int (-42)) -> ()
      | _ -> Alcotest.fail "int did not survive")

let test_json_parse () =
  (match Json.parse {| {"a": [1, 2.5, "xé"], "b": null} |} with
  | Ok
      (Json.Obj
         [
           ("a", Json.List [ Json.Int 1; Json.Float 2.5; Json.Str "x\xc3\xa9" ]);
           ("b", Json.Null);
         ]) ->
      ()
  | Ok j -> Alcotest.failf "unexpected parse: %s" (Json.to_string j)
  | Error e -> Alcotest.failf "parse failed: %s" e);
  (match Json.parse "{\"a\": 1} trailing" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing garbage accepted");
  (match Json.parse "[1, 2" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unterminated list accepted");
  match Json.parse (Json.to_string (Json.Float Float.nan)) with
  | Ok Json.Null -> ()
  | _ -> Alcotest.fail "NaN must render as null"

(* Every control character must escape on render and survive a reparse:
   the capture/slow-log JSONL carries raw SQL text, which can contain
   any byte below 0x20. *)
let test_json_control_chars () =
  let raw = String.init 32 Char.chr in
  let rendered = Json.to_string (Json.Str raw) in
  (* no raw control byte may appear inside the rendered output *)
  String.iter
    (fun c ->
      if Char.code c < 32 then
        Alcotest.failf "raw control byte %d in rendered JSON" (Char.code c))
    rendered;
  (match Json.parse rendered with
  | Ok (Json.Str s) -> Alcotest.(check string) "round trip" raw s
  | Ok j -> Alcotest.failf "unexpected reparse: %s" (Json.to_string j)
  | Error e -> Alcotest.failf "reparse failed: %s" e);
  (* the common three get their short escapes, the rest \u00XX *)
  let sub needle hay =
    let n = String.length needle and m = String.length hay in
    let rec go i = i + n <= m && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "newline short escape" true (sub "\\n" rendered);
  Alcotest.(check bool) "tab short escape" true (sub "\\t" rendered);
  Alcotest.(check bool) "NUL as \\u0000" true (sub "\\u0000" rendered);
  Alcotest.(check bool) "0x1f as \\u001f" true (sub "\\u001f" rendered)

(* --- Histogram ------------------------------------------------------------ *)

let test_histogram_percentiles () =
  let h = Histogram.create () in
  Alcotest.(check (option (float 0.0))) "empty percentile" None
    (Histogram.percentile h 50.0);
  for i = 1 to 1000 do
    Histogram.add h (float_of_int i /. 1000.0) (* 1ms .. 1s *)
  done;
  Alcotest.(check int) "count" 1000 (Histogram.count h);
  Alcotest.(check bool) "sum about 500.5" true
    (Float.abs (Histogram.sum h -. 500.5) < 1e-6);
  (match Histogram.max_sample h with
  | Some m -> Alcotest.(check (float 1e-9)) "exact max" 1.0 m
  | None -> Alcotest.fail "max of non-empty");
  (* bucketed percentile is within the ~26% bucket ratio of the truth *)
  List.iter
    (fun (p, truth) ->
      match Histogram.percentile h p with
      | None -> Alcotest.failf "p%.0f of non-empty" p
      | Some v ->
          if v < truth *. 0.99 || v > truth *. 1.27 then
            Alcotest.failf "p%.0f=%.4f not within bucket error of %.4f" p v
              truth)
    [ (50.0, 0.5); (90.0, 0.9); (99.0, 0.99) ];
  (* p100 is clamped to the exact max, not the bucket bound *)
  Alcotest.(check (option (float 1e-9))) "p100 exact" (Some 1.0)
    (Histogram.percentile h 100.0)

let test_histogram_merge () =
  let a = Histogram.create () and b = Histogram.create () in
  let one = Histogram.create () in
  for i = 1 to 500 do
    let v = float_of_int i /. 250.0 in
    Histogram.add (if i mod 2 = 0 then a else b) v;
    Histogram.add one v
  done;
  let m = Histogram.merge a b in
  Alcotest.(check int) "merged count" (Histogram.count one) (Histogram.count m);
  Alcotest.(check bool) "merged buckets equal" true
    (Histogram.buckets m = Histogram.buckets one);
  Alcotest.(check (option (float 1e-9))) "merged p99"
    (Histogram.percentile one 99.0) (Histogram.percentile m 99.0);
  (* out-of-range samples land in under/overflow but stay counted *)
  let x = Histogram.create () in
  Histogram.add x 1e-9;
  Histogram.add x 1e6;
  Alcotest.(check int) "extremes counted" 2 (Histogram.count x);
  Alcotest.(check (option (float 1.0))) "overflow max exact" (Some 1e6)
    (Histogram.percentile x 100.0)

(* Merging histograms with disjoint occupied buckets must concatenate
   them, and the empty histogram must be a unit of merge both ways. *)
let test_histogram_merge_disjoint_empty () =
  let lo = Histogram.create () and hi = Histogram.create () in
  for i = 1 to 100 do
    Histogram.add lo (float_of_int i *. 1e-5) (* 10µs .. 1ms *);
    Histogram.add hi (float_of_int i *. 0.1) (* 100ms .. 10s *)
  done;
  let m = Histogram.merge lo hi in
  Alcotest.(check int) "disjoint merged count" 200 (Histogram.count m);
  Alcotest.(check int) "disjoint buckets concatenate"
    (List.length (Histogram.buckets lo) + List.length (Histogram.buckets hi))
    (List.length (Histogram.buckets m));
  (* the low half is entirely below the high half, so the median of the
     merge sits at the seam and p100 is the high half's max *)
  (match Histogram.percentile m 25.0 with
  | Some v -> Alcotest.(check bool) "p25 from the low half" true (v <= 2e-3)
  | None -> Alcotest.fail "p25 of non-empty");
  Alcotest.(check (option (float 1e-9))) "p100 from the high half"
    (Some 10.0) (Histogram.percentile m 100.0);
  (* empty as a unit, in both argument positions *)
  let e = Histogram.create () in
  let me = Histogram.merge m e and em = Histogram.merge e m in
  Alcotest.(check bool) "m + empty = m" true
    (Histogram.buckets me = Histogram.buckets m
    && Histogram.count me = Histogram.count m);
  Alcotest.(check bool) "empty + m = m" true
    (Histogram.buckets em = Histogram.buckets m);
  let ee = Histogram.merge e (Histogram.create ()) in
  Alcotest.(check int) "empty + empty count" 0 (Histogram.count ee);
  Alcotest.(check (option (float 0.0))) "empty + empty percentile" None
    (Histogram.percentile ee 50.0)

(* Regression: the empty histogram used to carry [max_s = neg_infinity],
   so any consumer that rendered the raw maximum of a never-hit
   histogram emitted a non-finite float.  The field now starts at 0 and
   emptiness is signalled by the count alone: the [None] guards must
   hold before the first sample and the exact max must take over right
   after it. *)
let test_histogram_empty_max () =
  let h = Histogram.create () in
  Alcotest.(check (option (float 0.0))) "empty max_sample" None
    (Histogram.max_sample h);
  Alcotest.(check (option (float 0.0))) "empty p100" None
    (Histogram.percentile h 100.0);
  (* merging empties must not manufacture a sample or a max *)
  let m = Histogram.merge h (Histogram.create ()) in
  Alcotest.(check (option (float 0.0))) "merged-empty max_sample" None
    (Histogram.max_sample m);
  (* the first real sample becomes the exact max, however small *)
  Histogram.add h 1e-9;
  Alcotest.(check (option (float 1e-18))) "first sample is max" (Some 1e-9)
    (Histogram.max_sample h)

(* The Json non-finite policy the histogram fix leans on: NaN and the
   infinities render as null — valid JSON — and round-trip to [Null],
   bare or nested in the shapes STATS serves. *)
let test_json_non_finite_policy () =
  List.iter
    (fun v ->
      Alcotest.(check string) "renders as null" "null"
        (Json.to_string (Json.Float v));
      match Json.parse (Json.to_string (Json.Float v)) with
      | Ok Json.Null -> ()
      | Ok j -> Alcotest.failf "unexpected reparse: %s" (Json.to_string j)
      | Error e -> Alcotest.failf "invalid JSON emitted: %s" e)
    [ Float.nan; Float.infinity; Float.neg_infinity ];
  let doc =
    Json.Obj
      [
        ("max_ms", Json.Float Float.neg_infinity);
        ("p99_ms", Json.List [ Json.Float Float.nan; Json.Float 2.5 ]);
      ]
  in
  match Json.parse (Json.to_string doc) with
  | Ok
      (Json.Obj
        [ ("max_ms", Json.Null); ("p99_ms", Json.List [ Json.Null; Json.Float 2.5 ]) ])
    -> ()
  | Ok j -> Alcotest.failf "unexpected reparse: %s" (Json.to_string j)
  | Error e -> Alcotest.failf "invalid JSON emitted: %s" e

(* Histogram is not synchronized by contract — its concurrent users
   (Metrics) serialize under their own mutex.  Hammer it the same way:
   many domains adding and reading under one mutex must never lose a
   sample. *)
let test_histogram_mutex_hammer () =
  let h = Histogram.create () in
  let m = Mutex.create () in
  let per_domain = 20_000 and n_domains = 4 in
  let worker d () =
    for i = 1 to per_domain do
      Mutex.lock m;
      Histogram.add h (float_of_int ((d * per_domain) + i) /. 1000.0);
      if i mod 1000 = 0 then ignore (Histogram.percentile h 99.0);
      Mutex.unlock m
    done
  in
  let domains = List.init n_domains (fun d -> Domain.spawn (worker d)) in
  List.iter Domain.join domains;
  Alcotest.(check int) "every add counted" (per_domain * n_domains)
    (Histogram.count h);
  match Histogram.percentile h 50.0 with
  | None -> Alcotest.fail "median of a non-empty histogram"
  | Some p ->
      Alcotest.(check bool) "median within inserted range" true
        (p >= 0.001 && p <= float_of_int (per_domain * n_domains) /. 1000.0)

(* --- Trace ----------------------------------------------------------------- *)

let test_trace_nesting () =
  Counters.reset ();
  let tr = Trace.create () in
  Alcotest.(check bool) "inactive before run" false (Trace.active ());
  Trace.offer_wait ~name:"queue.wait" 0.005;
  let result =
    Trace.run tr ~name:"query" (fun () ->
        Alcotest.(check bool) "active inside run" true (Trace.active ());
        (* a nested run suspends this trace, collects into its own, and
           restores the outer collector afterwards *)
        let inner = Trace.create () in
        Trace.run inner ~name:"inner-root" (fun () ->
            Trace.with_span "inner-child" (fun () ->
                Counters.bump_hash_calls ~n:2 ()));
        (match Trace.root inner with
        | Some r ->
            Alcotest.(check string) "nested root" "inner-root" r.Trace.sp_name;
            Alcotest.(check (list string)) "nested child" [ "inner-child" ]
              (List.map (fun c -> c.Trace.sp_name) r.Trace.sp_children)
        | None -> Alcotest.fail "nested run collected nothing");
        Alcotest.(check bool) "outer restored after nested run" true
          (Trace.active ());
        Trace.with_span "select" (fun () ->
            Trace.add_attr "relation" "Employee";
            Counters.bump_comparisons ~n:10 ();
            Trace.with_span "inner" (fun () ->
                Counters.bump_comparisons ~n:3 ()));
        Trace.with_span "project" (fun () -> Counters.bump_data_moves ~n:7 ());
        "done")
  in
  Alcotest.(check string) "result passthrough" "done" result;
  Alcotest.(check bool) "inactive after run" false (Trace.active ());
  match Trace.root tr with
  | None -> Alcotest.fail "no root collected"
  | Some root ->
      Alcotest.(check string) "root name" "query" root.Trace.sp_name;
      Alcotest.(check (list string)) "children in execution order"
        [ "queue.wait"; "select"; "project" ]
        (List.map (fun c -> c.Trace.sp_name) root.Trace.sp_children);
      let sel = List.nth root.Trace.sp_children 1 in
      Alcotest.(check (option string)) "attr recorded" (Some "Employee")
        (Trace.attr sel "relation");
      Alcotest.(check (list string)) "grandchild"
        [ "inner" ]
        (List.map (fun c -> c.Trace.sp_name) sel.Trace.sp_children);
      (* the stashed queue wait became a closed child with its elapsed *)
      let qw = List.hd root.Trace.sp_children in
      Alcotest.(check (float 1e-9)) "queue wait elapsed" 0.005
        qw.Trace.sp_elapsed;
      (* inclusive vs exclusive counters: select saw 13, owns 10 *)
      Alcotest.(check int) "select inclusive" 13
        sel.Trace.sp_counters.Counters.comparisons;
      Alcotest.(check int) "select exclusive" 10
        (Trace.exclusive_counters sel).Counters.comparisons;
      (* tiling identity: exclusive counters over the tree sum to the
         root's inclusive delta *)
      let summed =
        Trace.fold
          (fun acc ~depth:_ sp -> Counters.add acc (Trace.exclusive_counters sp))
          Counters.zero ~depth:0 root
      in
      Alcotest.(check bool) "tiling identity" true
        (summed = root.Trace.sp_counters);
      Alcotest.(check int) "depths via spans" 3
        (List.length (List.filter (fun (d, _) -> d = 1) (Trace.spans root)))

let test_trace_disabled_cheap () =
  (* The disabled path must not allocate: one DLS read and a branch. *)
  Alcotest.(check bool) "no trace installed" false (Trace.active ());
  let work () = 1 + 1 in
  (* warm up so any one-time DLS initialization is done *)
  ignore (Trace.with_span "warm" work);
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    ignore (Trace.with_span "bench" work)
  done;
  let after = Gc.minor_words () in
  let delta = after -. before in
  if delta > 64.0 then
    Alcotest.failf "disabled with_span allocated %.0f minor words / 10k calls"
      delta;
  (* add_attr / record / offer_wait-less run state are also no-ops *)
  Trace.add_attr "k" "v";
  Trace.record "orphan" ~elapsed:1.0;
  Alcotest.(check bool) "still inactive" false (Trace.active ())

(* --- Counters diff/absorb round trip -------------------------------------- *)

let test_counters_diff_absorb_round_trip () =
  Counters.reset ();
  Counters.bump_comparisons ~n:3 ();
  let before = Counters.snapshot () in
  (* work lands on other domains, as under a Domain_pool fan-out *)
  let domains =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            Counters.bump_comparisons ~n:25 ();
            Counters.bump_ptr_derefs ~n:4 ()))
  in
  List.iter Domain.join domains;
  let delta = Counters.diff (Counters.snapshot ()) before in
  Alcotest.(check int) "delta comparisons" 100 delta.Counters.comparisons;
  Alcotest.(check int) "delta derefs" 16 delta.Counters.ptr_derefs;
  (* absorbing the delta into this domain doubles the merged view:
     diff measured it, absorb re-applies it *)
  Counters.absorb delta;
  let doubled = Counters.diff (Counters.snapshot ()) before in
  Alcotest.(check bool) "absorb re-applies the diff" true
    (doubled = Counters.add delta delta);
  (* a diff of identical snapshots is zero *)
  let s = Counters.snapshot () in
  Alcotest.(check bool) "self diff is zero" true
    (Counters.diff s s = Counters.zero)

(* --- Timeseries ------------------------------------------------------------ *)

(* All clock reads are injected: the ring's behavior is a pure function
   of the [now] sequence, so these tests are deterministic. *)
let test_timeseries_window () =
  let t = Timeseries.create ~buckets:10 ~width:1.0 () in
  Alcotest.(check int) "capacity" 10 (Timeseries.capacity t);
  Alcotest.(check (float 1e-9)) "span" 10.0 (Timeseries.span t);
  (* one event per second for 5 s starting at t=100 *)
  for i = 0 to 4 do
    Timeseries.add ~now:(100.0 +. float_of_int i) t 2.0
  done;
  let now = 104.5 in
  Alcotest.(check (float 1e-9)) "full window sum" 10.0
    (Timeseries.sum ~now t ~window:10.0);
  Alcotest.(check (float 1e-9)) "3s window sum" 6.0
    (Timeseries.sum ~now t ~window:3.0);
  Alcotest.(check (float 1e-9)) "3s rate" 2.0
    (Timeseries.rate ~now t ~window:3.0);
  let pts = Timeseries.points ~now t ~window:10.0 in
  Alcotest.(check int) "five live buckets" 5 (List.length pts);
  (match pts with
  | (t0, v0) :: _ ->
      Alcotest.(check (float 1e-9)) "oldest bucket start" 100.0 t0;
      Alcotest.(check (float 1e-9)) "oldest bucket sum" 2.0 v0
  | [] -> Alcotest.fail "no points")

let test_timeseries_staleness () =
  let t = Timeseries.create ~buckets:10 ~width:1.0 () in
  Timeseries.add ~now:100.0 t 5.0;
  (* same slot, one full revolution later: the stale sum must not leak
     into the fresh bucket, nor into window sums *)
  Alcotest.(check (float 1e-9)) "visible while fresh" 5.0
    (Timeseries.sum ~now:100.5 t ~window:10.0);
  Alcotest.(check (float 1e-9)) "gone after wraparound" 0.0
    (Timeseries.sum ~now:110.5 t ~window:10.0);
  Timeseries.add ~now:110.0 t 1.0;
  Alcotest.(check (float 1e-9)) "fresh write resets the slot" 1.0
    (Timeseries.sum ~now:110.5 t ~window:10.0)

let test_timeseries_hist () =
  let h = Timeseries.create_hist ~buckets:10 ~width:1.0 () in
  (* 1 ms samples at t=100..102, a 1 s outlier at t=103 *)
  for i = 0 to 2 do
    Timeseries.observe ~now:(100.0 +. float_of_int i) h 0.001
  done;
  Timeseries.observe ~now:103.0 h 1.0;
  let all = Timeseries.merged ~now:103.5 h ~window:10.0 in
  Alcotest.(check int) "all samples merged" 4 (Histogram.count all);
  Alcotest.(check (option (float 1e-9))) "windowed max" (Some 1.0)
    (Histogram.percentile all 100.0);
  (* a 1 s window sees only the outlier *)
  let recent = Timeseries.merged ~now:103.5 h ~window:1.0 in
  Alcotest.(check int) "1s window count" 1 (Histogram.count recent);
  (* after a wraparound everything is stale *)
  let later = Timeseries.merged ~now:120.5 h ~window:10.0 in
  Alcotest.(check int) "stale slots excluded" 0 (Histogram.count later)

(* --- Timing.time_median contract ------------------------------------------- *)

let test_time_median_pairing () =
  (* The result must come from the median-timed run, not the last one:
     run 0 is slow, run 1 fast, run 2 in between -> run 2 is the median. *)
  let sleeps = [| 0.03; 0.001; 0.012 |] in
  let calls = ref 0 in
  let f () =
    let i = !calls in
    incr calls;
    Unix.sleepf sleeps.(i);
    i
  in
  let run, dt = Timing.time_median ~repeats:3 f in
  Alcotest.(check int) "f ran repeats times" 3 !calls;
  Alcotest.(check int) "median run's result" 2 run;
  Alcotest.(check bool) "paired time is that run's time" true
    (dt >= 0.005 && dt < 0.03)

let () =
  Alcotest.run "mmdb_util"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "copy and split" `Quick test_rng_copy_and_split;
          Alcotest.test_case "shuffle permutes" `Quick
            test_shuffle_is_permutation;
          Alcotest.test_case "sampling without replacement" `Quick
            test_sample_without_replacement;
          Alcotest.test_case "gaussian moments" `Quick test_gaussian_moments;
        ] );
      ( "stats",
        [
          Alcotest.test_case "truncated normal bounds" `Quick
            test_truncated_normal_bounds;
          Alcotest.test_case "duplicate weights" `Quick test_duplicate_weights;
          Alcotest.test_case "apportion" `Quick test_apportion;
          Alcotest.test_case "cumulative share" `Quick test_cumulative_share;
          Alcotest.test_case "percentile" `Quick test_percentile;
        ] );
      ( "qsort",
        [
          Alcotest.test_case "basics" `Quick test_qsort_basic;
          Alcotest.test_case "insertion sort segment" `Quick
            test_insertion_sort_segment;
          QCheck_alcotest.to_alcotest qsort_matches_stdlib;
          Alcotest.test_case "comparison counts" `Quick test_qsort_counters;
        ] );
      ( "counters",
        [
          Alcotest.test_case "bump/snapshot/diff/disable" `Quick test_counters;
          Alcotest.test_case "with_counters scoping" `Quick
            test_with_counters_scoped;
        ] );
      ( "domain_pool",
        [
          Alcotest.test_case "parallel_map equivalence" `Quick
            test_pool_map_equivalence;
          Alcotest.test_case "exception propagation" `Quick
            test_pool_exception_propagation;
          Alcotest.test_case "nested fallback" `Quick test_pool_nested_fallback;
          Alcotest.test_case "chunks cover the range" `Quick test_pool_chunks;
          Alcotest.test_case "global from 8 domains at once" `Quick
            test_pool_global_race;
          Alcotest.test_case "fork/join forces no minor collection" `Quick
            test_pool_no_forced_minor;
        ] );
      ("lru", [ Alcotest.test_case "basics and eviction" `Quick test_lru_basic ]);
      ( "counters_domains",
        [
          Alcotest.test_case "cross-domain merge" `Quick
            test_counters_cross_domain_merge;
        ] );
      ( "sort_parallel",
        [
          Alcotest.test_case "equivalence" `Quick test_sort_parallel_equivalence;
        ] );
      ( "timing",
        [
          Alcotest.test_case "time and median" `Quick test_timing;
          Alcotest.test_case "median pairs result with its run" `Quick
            test_time_median_pairing;
        ] );
      ( "timeseries",
        [
          Alcotest.test_case "window sums and rates" `Quick
            test_timeseries_window;
          Alcotest.test_case "stale slots evicted" `Quick
            test_timeseries_staleness;
          Alcotest.test_case "histogram ring windows" `Quick
            test_timeseries_hist;
        ] );
      ( "json",
        [
          Alcotest.test_case "round trip" `Quick test_json_round_trip;
          Alcotest.test_case "parse and reject" `Quick test_json_parse;
          Alcotest.test_case "control-character escapes" `Quick
            test_json_control_chars;
          Alcotest.test_case "non-finite policy" `Quick
            test_json_non_finite_policy;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "percentiles" `Quick test_histogram_percentiles;
          Alcotest.test_case "merge" `Quick test_histogram_merge;
          Alcotest.test_case "merge disjoint and empty" `Quick
            test_histogram_merge_disjoint_empty;
          Alcotest.test_case "empty max regression" `Quick
            test_histogram_empty_max;
          Alcotest.test_case "concurrent hammer (mutexed)" `Quick
            test_histogram_mutex_hammer;
        ] );
      ( "trace",
        [
          Alcotest.test_case "span nesting and counters" `Quick
            test_trace_nesting;
          Alcotest.test_case "disabled path allocates nothing" `Quick
            test_trace_disabled_cheap;
        ] );
      ( "counters_round_trip",
        [
          Alcotest.test_case "diff/absorb across domains" `Quick
            test_counters_diff_absorb_round_trip;
        ] );
    ]
