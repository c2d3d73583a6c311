(* Batched-execution suite (DESIGN.md "Batched execution").

   Batch size is the only execution-mode parameter of the operator
   kernels, and batch size 1 is the paper's tuple-at-a-time ablation.
   Every kernel bumps the §3.1 counters per logical operation, so the
   totals cannot depend on the batch size: each equivalence case runs at
   batch sizes {1, 16, 256} and pool sizes {1, 4} on randomized
   workloads and must hit literal counter totals exactly.  The literals
   were recorded from the separate tuple-at-a-time kernels this suite
   once compared against, with the paper's quicksort.  Result multisets
   are checked against independent references: [Join.nested_loops] for
   joins, a [Relation.iter] filter for scans.  MVCC paths are checked by
   multiset against the sequential snapshot answer, plus a visibility
   check with a concurrent writer.  The partitioned join is driven over
   a 50%%-hot-key build side and must produce the sequential answer
   while taking at least one role reversal. *)

open Mmdb_util
open Mmdb_storage
open Mmdb_core

let batch_sizes = [ 1; 16; 256 ]
let pool_sizes = [ 1; 4 ]

let multiset tl =
  List.sort compare (List.map Array.to_list (Temp_list.materialize tl))

let with_pool size f =
  let pool = Domain_pool.create ~size () in
  Fun.protect ~finally:(fun () -> Domain_pool.stop pool) (fun () -> f pool)

let with_batch ~size f =
  let saved = Batch.size () in
  Batch.set_size size;
  Fun.protect ~finally:(fun () -> Batch.set_size saved) f

let counted f =
  Counters.reset ();
  Counters.with_counters f

(* (comparisons, data moves, hash calls, pointer dereferences, node
   allocations) *)
let tally (c : Counters.snapshot) =
  ( c.Counters.comparisons,
    c.Counters.data_moves,
    c.Counters.hash_calls,
    c.Counters.ptr_derefs,
    c.Counters.node_allocs )

let tally_t = Alcotest.(pair (triple int int int) (pair int int))
let split (a, b, c, d, e) = ((a, b, c), (d, e))

let spec n dup = { Workload.cardinality = n; dup_pct = dup; dup_stddev = 0.8 }

let make_pair ?(n = 6_000) ?(dup = 40.0) ~seed () =
  let rng = Rng.create ~seed () in
  Workload.relation_pair ~with_ttree:false rng ~outer:(spec n dup)
    ~inner:(spec n dup) ~semijoin_sel:80.0 ()

(* --- batch production ---------------------------------------------------- *)

let test_iter_batches () =
  let rng = Rng.create ~seed:7 () in
  let r = Workload.load ~name:"B" (Workload.column rng ~spec:(spec 1_000 30.0)) in
  (* the scalar reference order and key column values *)
  let expect = ref [] in
  Relation.iter r (fun t -> expect := Tuple.get t Workload.jcol :: !expect);
  let expect = List.rev !expect in
  let st0 = Batch.stats () in
  let got = ref [] in
  Relation.iter_batches ~key_col:Workload.jcol ~size:64 r (fun b ->
      Alcotest.(check bool) "batch within capacity" true (b.Batch.n <= 64);
      for i = 0 to b.Batch.n - 1 do
        (* key slice matches the tuple it is extracted from *)
        Alcotest.(check bool) "key slice consistent" true
          (Value.equal b.Batch.keys.(i) (Tuple.get b.Batch.tuples.(i) Workload.jcol));
        got := b.Batch.keys.(i) :: !got
      done);
  let got = List.rev !got in
  Alcotest.(check int) "every tuple batched once" (List.length expect)
    (List.length got);
  Alcotest.(check bool) "scan order preserved" true (got = expect);
  let st1 = Batch.stats () in
  Alcotest.(check bool) "batch production counted" true
    (st1.Batch.st_batches - st0.Batch.st_batches >= 1_000 / 64
    && st1.Batch.st_rows - st0.Batch.st_rows = 1_000)

let test_bulk_appends () =
  let r, _ = make_pair ~n:500 ~seed:8 () in
  let desc = Descriptor.of_schema (Relation.schema r) in
  let tuples = ref [] in
  Relation.iter r (fun t -> tuples := t :: !tuples);
  let tuples = Array.of_list (List.rev !tuples) in
  let n = Array.length tuples in
  (* reference: one append per tuple *)
  let one = Temp_list.create desc in
  Array.iter (fun t -> Temp_list.append one [| t |]) tuples;
  (* bulk single-source append *)
  let bulk = Temp_list.create desc in
  Temp_list.append_n bulk tuples n;
  Alcotest.(check int) "append_n length" n (Temp_list.length bulk);
  Alcotest.(check bool) "append_n contents" true
    (Temp_list.materialize bulk = Temp_list.materialize one);
  (* bulk entry append *)
  let entries = Array.map (fun t -> [| t |]) tuples in
  let many = Temp_list.create desc in
  Temp_list.append_many many entries n;
  Alcotest.(check bool) "append_many contents" true
    (Temp_list.materialize many = Temp_list.materialize one);
  (* bulk appends charge the per-query tuple budget identically *)
  let used_one =
    Temp_list.with_budget ~limit:(2 * n) (fun () ->
        let t = Temp_list.create desc in
        Array.iter (fun tu -> Temp_list.append t [| tu |]) tuples;
        Option.get (Temp_list.budget_used ()))
  in
  let used_bulk =
    Temp_list.with_budget ~limit:(2 * n) (fun () ->
        let t = Temp_list.create desc in
        Temp_list.append_n t tuples n;
        Option.get (Temp_list.budget_used ()))
  in
  Alcotest.(check int) "budget charges match" used_one used_bulk;
  (* and still enforce the quota *)
  let tripped =
    try
      Temp_list.with_budget ~limit:(n / 2) (fun () ->
          let t = Temp_list.create desc in
          Temp_list.append_n t tuples n;
          false)
    with Temp_list.Quota_exceeded _ -> true
  in
  Alcotest.(check bool) "bulk append trips the quota" true tripped

(* --- one kernel at every batch size --------------------------------------- *)

(* Expected totals per (case, pool size), as [tally] orders them. *)
let expected =
  [
    (("scan", 1), (0, 0, 0, 9064, 0));
    (("scan", 4), (0, 0, 0, 9064, 0));
    (("scan-eq", 1), (0, 0, 0, 6000, 0));
    (("scan-eq", 4), (0, 0, 0, 6000, 0));
    (("hash join", 1), (20459, 6000, 12000, 58918, 6000));
    (("hash join", 4), (44689, 6000, 12000, 113378, 6000));
    (("hash join build outer", 1), (20459, 6000, 12000, 58918, 6000));
    (("hash join build outer", 4), (44689, 6000, 12000, 113378, 6000));
    (("filtered hash join", 1), (5218, 3000, 4500, 19436, 3000));
    (("filtered hash join", 4), (10736, 3000, 4500, 33472, 3000));
    (("filtered hash join build outer", 1), (5218, 1500, 4500, 20936, 1500));
    (("filtered hash join build outer", 4), (10736, 3000, 4500, 33472, 3000));
    (("sort merge", 1), (193343, 80777, 0, 373722, 0));
    (("sort merge", 4), (187905, 95039, 0, 362846, 0));
    (("project Sort Scan", 1), (179101, 38870, 0, 6000, 0));
    (("project Sort Scan", 4), (173705, 47205, 0, 6000, 0));
    (("project Hash", 1), (4200, 0, 6000, 6000, 0));
    (("project Hash", 4), (4200, 0, 6000, 6000, 0));
    (("aggregate", 1), (0, 0, 1800, 12000, 0));
    (("aggregate", 4), (0, 0, 1800, 12000, 0));
  ]

(* Run [f] at every batch size and pool size: the counter totals must
   equal the recorded literals and [rows] of the result must equal
   [reference]. *)
let check_case ~name ~rows ~reference f =
  Alcotest.(check bool) (name ^ ": reference non-empty") true (reference <> []);
  List.iter
    (fun pool_size ->
      let want = List.assoc (name, pool_size) expected in
      List.iter
        (fun bs ->
          let out, c =
            with_batch ~size:bs (fun () ->
                with_pool pool_size (fun pool -> counted (fun () -> f pool)))
          in
          let label = Printf.sprintf "%s (batch %d, pool %d)" name bs pool_size in
          Alcotest.(check bool) (label ^ ": same multiset") true
            (rows out = reference);
          Alcotest.check tally_t (label ^ ": counters") (split want)
            (split (tally c)))
        batch_sizes)
    pool_sizes

(* The scan reference: a primary-index walk filtered tuple at a time. *)
let scan_reference rel predicates =
  let tl = Temp_list.create (Descriptor.of_schema (Relation.schema rel)) in
  Relation.iter rel (fun t ->
      if List.for_all (Select.matches t) predicates then Temp_list.append tl [| t |]);
  multiset tl

let test_scan_equivalence () =
  let r1, _ = make_pair ~seed:201 () in
  let predicates =
    [
      Select.Between (Workload.jcol, Value.Int 0, Value.Int 500_000_000);
      Select.Filter
        (fun tup ->
          match Tuple.get tup Workload.seq_col with
          | Value.Int s -> s mod 3 <> 0
          | _ -> false);
    ]
  in
  let scan predicates =
    check_case ~rows:multiset ~reference:(scan_reference r1 predicates)
      (fun pool -> Select.run ~pool r1 ~path:Select.Sequential_scan ~predicates)
  in
  scan ~name:"scan" predicates;
  (* an Eq head exercises the key-slice fast path *)
  let some_key =
    let k = ref Value.Null in
    Relation.iter r1 (fun t -> if !k = Value.Null then k := Tuple.get t Workload.jcol);
    !k
  in
  scan ~name:"scan-eq" [ Select.Eq (Workload.jcol, some_key) ]

let join_sides ?n ?dup ~seed () =
  let r1, r2 = make_pair ?n ?dup ~seed () in
  ({ Join.rel = r1; col = Workload.jcol }, { Join.rel = r2; col = Workload.jcol })

let test_hash_join_equivalence () =
  let outer, inner = join_sides ~seed:202 () in
  let reference = multiset (Join.nested_loops ~outer ~inner ()) in
  let _, rv0 = Join.skew_stats () in
  check_case ~name:"hash join" ~rows:multiset ~reference (fun pool ->
      Join.hash_join ~pool ~outer ~inner ());
  check_case ~name:"hash join build outer" ~rows:multiset ~reference (fun pool ->
      Join.hash_join ~pool ~build_outer:true ~outer ~inner ());
  (* near-uniform keys must never trip role reversal *)
  let _, rv1 = Join.skew_stats () in
  Alcotest.(check int) "no role reversals on uniform keys" rv0 rv1

let test_hash_join_filter_equivalence () =
  let outer, inner = join_sides ~n:3_000 ~seed:203 () in
  let outer_filter t =
    match Tuple.get t Workload.seq_col with
    | Value.Int s -> s mod 2 = 0
    | _ -> false
  in
  let reference = multiset (Join.nested_loops ~outer_filter ~outer ~inner ()) in
  check_case ~name:"filtered hash join" ~rows:multiset ~reference (fun pool ->
      Join.hash_join ~pool ~outer_filter ~outer ~inner ());
  check_case ~name:"filtered hash join build outer" ~rows:multiset ~reference
    (fun pool -> Join.hash_join ~pool ~build_outer:true ~outer_filter ~outer ~inner ())

let test_sort_merge_equivalence () =
  let outer, inner = join_sides ~seed:204 () in
  let reference = multiset (Join.nested_loops ~outer ~inner ()) in
  check_case ~name:"sort merge" ~rows:multiset ~reference (fun pool ->
      Join.sort_merge ~pool ~outer ~inner ())

let test_project_aggregate_equivalence () =
  let r1, _ = make_pair ~seed:205 ~dup:70.0 () in
  let input = Temp_list.of_relation r1 in
  let labels = Descriptor.labels (Temp_list.descriptor input) in
  let jcol_label = List.nth labels Workload.jcol in
  (* reference: the join column's values, counted per value *)
  let counts = Hashtbl.create 64 in
  Relation.iter r1 (fun t ->
      let k = Tuple.get t Workload.jcol in
      Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k)));
  let distinct = List.sort compare (Hashtbl.fold (fun k _ acc -> [ k ] :: acc) counts []) in
  List.iter
    (fun method_ ->
      check_case
        ~name:("project " ^ Project.method_name method_)
        ~rows:multiset ~reference:distinct
        (fun pool -> Project.run ~pool method_ input [ jcol_label ]))
    [ Project.Sort_scan; Project.Hashing ];
  let groups =
    List.sort compare
      (Hashtbl.fold (fun k n acc -> [ k; Value.Int n; k ] :: acc) counts [])
  in
  check_case ~name:"aggregate"
    ~rows:(fun r -> List.sort compare (List.map Array.to_list r.Aggregate.rows))
    ~reference:groups
    (fun _ ->
      Aggregate.group input ~by:[ jcol_label ]
        ~aggs:[ Aggregate.Count; Aggregate.Min jcol_label ])

(* --- the tally contract ------------------------------------------------ *)

(* The kernels count in a per-call tally and publish it once per call:
   with counting off they publish nothing at all. *)
let test_counting_off () =
  let outer, inner = join_sides ~n:3_000 ~seed:206 () in
  let input = Temp_list.of_relation outer.Join.rel in
  let labels = Descriptor.labels (Temp_list.descriptor input) in
  let jcol_label = List.nth labels Workload.jcol in
  let kernels =
    [
      ( "scan",
        fun pool ->
          ignore
            (Select.run ~pool outer.Join.rel ~path:Select.Sequential_scan
               ~predicates:
                 [
                   Select.Between (Workload.jcol, Value.Int 0, Value.Int max_int);
                 ]) );
      ("hash join", fun pool -> ignore (Join.hash_join ~pool ~outer ~inner ()));
      ("sort merge", fun pool -> ignore (Join.sort_merge ~pool ~outer ~inner ()));
      ( "project Sort Scan",
        fun pool ->
          ignore (Project.run ~pool Project.Sort_scan input [ jcol_label ]) );
      ( "project Hash",
        fun pool ->
          ignore (Project.run ~pool Project.Hashing input [ jcol_label ]) );
      ( "aggregate",
        fun _ ->
          ignore
            (Aggregate.group input ~by:[ jcol_label ]
               ~aggs:[ Aggregate.Count; Aggregate.Min jcol_label ]) );
    ]
  in
  List.iter
    (fun pool_size ->
      with_pool pool_size @@ fun pool ->
      List.iter
        (fun (name, run) ->
          let (), c =
            Fun.protect
              ~finally:(fun () -> Counters.enabled := true)
              (fun () ->
                Counters.enabled := false;
                counted (fun () -> run pool))
          in
          Alcotest.check tally_t
            (Printf.sprintf "%s publishes nothing (pool %d)" name pool_size)
            (split (0, 0, 0, 0, 0))
            (split (tally c)))
        kernels)
    pool_sizes

(* A join stopped by the tuple budget still publishes what it counted
   before the raise.  Matches flush into the result 4,096 at a time,
   and only the calling domain is budgeted: a limit of 1 stops the
   first flush, a limit of 4,096 the second.  Where the kernel emits on
   the calling domain (the sort-merge join's merge, the hash join at
   pool 1), the later stop must have published more comparisons — the
   tally between the two flushes — and neither more than a full run. *)
let test_quota_stop_publishes () =
  let outer, inner = join_sides ~n:8_000 ~dup:60.0 ~seed:207 () in
  let le (a, b, c, d, e) (a', b', c', d', e') =
    a <= a' && b <= b' && c <= c' && d <= d' && e <= e'
  in
  let case name ~caller_emits join =
    List.iter
      (fun pool_size ->
        with_pool pool_size @@ fun pool ->
        let label = Printf.sprintf "%s (pool %d)" name pool_size in
        let out, full = counted (fun () -> join pool) in
        Alcotest.(check bool)
          (Printf.sprintf "%s: more than two flushes of output (%d)" label
             (Temp_list.length out))
          true
          (Temp_list.length out > 2 * 4096);
        let stopped limit =
          let (), c =
            counted (fun () ->
                match Temp_list.with_budget ~limit (fun () -> join pool) with
                | _ -> Alcotest.failf "%s: limit %d not exceeded" label limit
                | exception Temp_list.Quota_exceeded _ -> ())
          in
          tally c
        in
        let first = stopped 1 and second = stopped 4096 in
        let cmps (c, _, _, _, _) = c in
        Alcotest.(check bool) (label ^ ": the stopped run counted") true
          (cmps first > 0);
        Alcotest.(check bool) (label ^ ": no more than a full run") true
          (le first (tally full) && le second (tally full));
        if caller_emits pool_size then
          Alcotest.(check bool)
            (Printf.sprintf "%s: the later stop counted more (%d < %d)" label
               (cmps first) (cmps second))
            true
            (cmps first < cmps second))
      pool_sizes
  in
  case "sort merge" ~caller_emits:(fun _ -> true) (fun pool ->
      Join.sort_merge ~pool ~outer ~inner ());
  case "hash join" ~caller_emits:(fun size -> size = 1) (fun pool ->
      Join.hash_join ~pool ~outer ~inner ())

(* --- MVCC x domains: the PR 6 regression fix ----------------------------- *)

let with_mvcc f =
  let was = Version_store.enabled () in
  Version_store.set_enabled true;
  Fun.protect ~finally:(fun () -> Version_store.set_enabled was) f

let on_writer_domain f = Domain.join (Domain.spawn f)

let test_mvcc_batched_scan () =
  with_mvcc @@ fun () ->
  let r1, _ = make_pair ~seed:301 () in
  let predicates =
    [ Select.Between (Workload.jcol, Value.Int 0, Value.Int 500_000_000) ]
  in
  Version_store.with_snapshot (fun _ ->
      (* sequential snapshot reference, tuple at a time *)
      let reference =
        with_batch ~size:1 (fun () ->
            multiset (Select.run r1 ~path:Select.Sequential_scan ~predicates))
      in
      Alcotest.(check bool) "reference non-empty" true
        (List.length reference > 0);
      List.iter
        (fun bs ->
          with_batch ~size:bs (fun () ->
              with_pool 4 (fun pool ->
                  let rows =
                    multiset
                      (Select.run ~pool r1 ~path:Select.Sequential_scan
                         ~predicates)
                  in
                  Alcotest.(check bool)
                    (Printf.sprintf "batched parallel snapshot scan (batch %d)"
                       bs)
                    true (rows = reference))))
        batch_sizes)

(* The batched parallel scan must honour visibility: a concurrent writer
   publishing after the snapshot is taken stays invisible to it. *)
let test_mvcc_batched_scan_visibility () =
  with_mvcc @@ fun () ->
  let rng = Rng.create ~seed:302 () in
  let r = Workload.load ~name:"V" (Workload.column rng ~spec:(spec 2_000 0.0)) in
  let all = [ Select.Between (Workload.seq_col, Value.Int 0, Value.Int max_int) ] in
  with_batch ~size:256 @@ fun () ->
  with_pool 4 @@ fun pool ->
  Version_store.with_snapshot (fun _ ->
      let before =
        multiset (Select.run ~pool r ~path:Select.Sequential_scan ~predicates:all)
      in
      Alcotest.(check int) "snapshot sees the full load" 2_000
        (List.length before);
      on_writer_domain (fun () ->
          Version_store.with_write (fun () ->
              for i = 0 to 99 do
                match
                  Relation.insert r
                    [| Value.Int (10_000 + i); Value.Int (10_000 + i) |]
                with
                | Ok _ -> ()
                | Error e -> Alcotest.fail e
              done));
      let after =
        multiset (Select.run ~pool r ~path:Select.Sequential_scan ~predicates:all)
      in
      Alcotest.(check bool) "post-snapshot inserts invisible" true
        (after = before));
  (* outside the snapshot the new rows appear *)
  let now =
    multiset (Select.run ~pool r ~path:Select.Sequential_scan ~predicates:all)
  in
  Alcotest.(check int) "fresh scan sees the inserts" 2_100 (List.length now)

let test_mvcc_batched_join () =
  with_mvcc @@ fun () ->
  let r1, r2 = make_pair ~seed:303 () in
  let outer = { Join.rel = r1; col = Workload.jcol } in
  let inner = { Join.rel = r2; col = Workload.jcol } in
  Version_store.with_snapshot (fun _ ->
      (* sequential snapshot reference, tuple at a time *)
      let reference =
        with_batch ~size:1 (fun () ->
            multiset (Join.run Join.Hash_join ~outer ~inner))
      in
      Alcotest.(check bool) "reference non-empty" true
        (List.length reference > 0);
      List.iter
        (fun bs ->
          with_batch ~size:bs (fun () ->
              with_pool 4 (fun pool ->
                  let rows =
                    multiset (Join.run ~pool Join.Hash_join ~outer ~inner)
                  in
                  Alcotest.(check bool)
                    (Printf.sprintf
                       "batched partitioned join under snapshot (batch %d)" bs)
                    true (rows = reference))))
        batch_sizes)

(* Parallel DISTINCT must read the caller's snapshot: key extraction
   runs on pool workers, which have no snapshot installed, so the keys
   are read through a reader taken on the calling domain.  A writer
   sets every join-column value to 7 after the snapshot was taken; the
   snapshot's DISTINCT still sees 4,000 distinct values. *)
let test_mvcc_parallel_distinct () =
  with_mvcc @@ fun () ->
  let rng = Rng.create ~seed:304 () in
  let r = Workload.load ~name:"D" (Workload.column rng ~spec:(spec 4_000 0.0)) in
  let label =
    List.nth
      (Descriptor.labels (Descriptor.of_schema (Relation.schema r)))
      Workload.jcol
  in
  Version_store.with_snapshot (fun _ ->
      let input = Temp_list.of_relation r in
      on_writer_domain (fun () ->
          let live = ref [] in
          Relation.iter r (fun t -> live := t :: !live);
          Version_store.with_write (fun () ->
              List.iter
                (fun t ->
                  match Relation.update_field r t Workload.jcol (Value.Int 7) with
                  | Ok () -> ()
                  | Error e -> Alcotest.fail e)
                !live));
      List.iter
        (fun method_ ->
          List.iter
            (fun pool_size ->
              let n =
                with_pool pool_size (fun pool ->
                    Temp_list.length (Project.run ~pool method_ input [ label ]))
              in
              Alcotest.(check int)
                (Printf.sprintf "%s DISTINCT at the snapshot (pool %d)"
                   (Project.method_name method_) pool_size)
                4_000 n)
            pool_sizes)
        [ Project.Sort_scan; Project.Hashing ]);
  let now = Temp_list.of_relation r in
  Alcotest.(check int) "after the snapshot, one value" 1
    (Temp_list.length (Project.run Project.Hashing now [ label ]))

(* --- skew robustness ----------------------------------------------------- *)

let load_col ~name col = Workload.load ~name col

let test_skewed_join () =
  (* inner: one hot key carrying 50% of the build side; outer: a few hot
     probes plus uniform probes over the inner's distinct tail *)
  let hot = 42 in
  let inner_col =
    Array.init 6_000 (fun i -> if i < 3_000 then hot else 1_000_000 + i)
  in
  let outer_col =
    Array.init 6_000 (fun i ->
        if i < 10 then hot else 1_000_000 + 3_000 + (i mod 3_000))
  in
  let r_inner = load_col ~name:"SkewInner" inner_col in
  let r_outer = load_col ~name:"SkewOuter" outer_col in
  let outer = { Join.rel = r_outer; col = Workload.jcol } in
  let inner = { Join.rel = r_inner; col = Workload.jcol } in
  let reference = with_batch ~size:1 (fun () -> multiset (Join.hash_join ~outer ~inner ())) in
  Alcotest.(check int) "hot pairs plus uniform matches"
    ((10 * 3_000) + 6_000 - 10)
    (List.length reference);
  with_batch ~size:256 @@ fun () ->
  with_pool 4 @@ fun pool ->
  let _, rv0 = Join.skew_stats () in
  let rows = multiset (Join.hash_join ~pool ~outer ~inner ()) in
  let _, rv1 = Join.skew_stats () in
  Alcotest.(check bool) "skewed join answer matches sequential" true
    (rows = reference);
  (* the hot partition exceeds its working-set bound and the probe side
     is smaller: the join must have reversed roles at least once *)
  Alcotest.(check bool)
    (Printf.sprintf "role reversals taken (%d)" (rv1 - rv0))
    true
    (rv1 - rv0 >= 1)

(* --- EXPLAIN ----------------------------------------------------------------- *)

let test_explain_execution_line () =
  let rng = Rng.create ~seed:11 () in
  let db = Db.create () in
  (match Db.add db (Workload.load ~name:"X" (Workload.column rng ~spec:(spec 100 0.0))) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let line size =
    with_batch ~size (fun () ->
        let text = Fmt.str "%a" Optimizer.pp_plan (Optimizer.plan db (Query.from "X")) in
        List.find_opt
          (fun l -> String.length l >= 10 && String.sub l 0 10 = "execution:")
          (String.split_on_char '\n' text))
  in
  Alcotest.(check (option string)) "batch size 1"
    (Some "execution: batch size 1 (tuple-at-a-time)") (line 1);
  Alcotest.(check (option string)) "batch size 256"
    (Some "execution: batch size 256") (line 256)

let () =
  Alcotest.run "mmdb_batch"
    [
      ( "batch",
        [
          Alcotest.test_case "iter_batches coverage" `Quick test_iter_batches;
          Alcotest.test_case "bulk appends" `Quick test_bulk_appends;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "scan" `Quick test_scan_equivalence;
          Alcotest.test_case "hash join" `Quick test_hash_join_equivalence;
          Alcotest.test_case "filtered hash join" `Quick
            test_hash_join_filter_equivalence;
          Alcotest.test_case "sort merge" `Quick test_sort_merge_equivalence;
          Alcotest.test_case "project + aggregate" `Quick
            test_project_aggregate_equivalence;
        ] );
      ( "tally",
        [
          Alcotest.test_case "counting off publishes nothing" `Quick
            test_counting_off;
          Alcotest.test_case "a quota stop publishes its counts" `Quick
            test_quota_stop_publishes;
        ] );
      ( "mvcc",
        [
          Alcotest.test_case "batched parallel snapshot scan" `Quick
            test_mvcc_batched_scan;
          Alcotest.test_case "snapshot visibility under parallel scan" `Quick
            test_mvcc_batched_scan_visibility;
          Alcotest.test_case "batched partitioned join under snapshot" `Quick
            test_mvcc_batched_join;
          Alcotest.test_case "parallel DISTINCT under snapshot" `Quick
            test_mvcc_parallel_distinct;
        ] );
      ( "skew",
        [ Alcotest.test_case "hot-key join" `Quick test_skewed_join ] );
      ( "explain",
        [
          Alcotest.test_case "execution line names the batch size" `Quick
            test_explain_execution_line;
        ] );
    ]
