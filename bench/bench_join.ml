(* Join experiments: Graphs 4-10, plus the Graph 3 duplicate-distribution
   curves that parameterize them, and the §2.1 precomputed-join comparison.

   Each point generates fresh R1/R2 relations (with pre-existing T Tree
   indexes on the join columns, since Tree Join / Tree Merge are only
   evaluated against pre-existing indices) and times each join method on
   the same relations.  As in the paper, the Hash Join time includes
   building the hash table; the merge joins' index-build times are
   excluded (Tree Merge "is only a viable alternative if the indices
   already exist"); Sort Merge includes building and sorting its arrays. *)

open Mmdb_util
open Mmdb_core

let methods = [ Join.Hash_join; Join.Tree_join; Join.Sort_merge; Join.Tree_merge ]

let time_methods cfg r1 r2 =
  let outer = { Join.rel = r1; col = Workload.jcol } in
  let inner = { Join.rel = r2; col = Workload.jcol } in
  List.map
    (fun m ->
      let _, dt = Bench_util.time cfg (fun () -> ignore (Join.run m ~outer ~inner)) in
      dt)
    methods

let method_columns = List.map Join.method_name methods

let run_sweep cfg ~title ~points ~label_of ~relations_of ~expect =
  Bench_util.header title;
  let rows =
    List.map
      (fun point ->
        let r1, r2 = relations_of point in
        Bench_util.row_of_floats (label_of point) (time_methods cfg r1 r2))
      points
  in
  Bench_util.table ~columns:("" :: method_columns) rows;
  Bench_util.note "%s" expect

(* --- Graph 3: duplicate distributions ------------------------------------- *)

let graph3 cfg =
  Bench_util.header
    "G3 / Graph 3 — Distribution of duplicate values (cumulative % tuples at % values)";
  let n = Bench_util.scaled cfg 20_000 in
  let deciles = [ 10.0; 20.0; 30.0; 40.0; 50.0; 60.0; 70.0; 80.0; 90.0; 100.0 ] in
  let rows =
    List.map
      (fun stddev ->
        let rng = Rng.create ~seed:cfg.Bench_util.seed () in
        let col =
          Workload.column rng
            ~spec:{ Workload.cardinality = n; dup_pct = 90.0; dup_stddev = stddev }
        in
        let counts = Hashtbl.create 1024 in
        Array.iter
          (fun v ->
            Hashtbl.replace counts v
              (1 + Option.value ~default:0 (Hashtbl.find_opt counts v)))
          col;
        let arr = Array.of_seq (Hashtbl.to_seq_values counts) in
        let curve = Stats.cumulative_share arr in
        let at pct =
          (* last point whose %values <= pct *)
          let best = ref 0.0 in
          Array.iter (fun (pv, pt) -> if pv <= pct +. 1e-9 then best := pt) curve;
          !best
        in
        Printf.sprintf "stddev %.1f" stddev
        :: List.map (fun d -> Printf.sprintf "%.0f%%" (at d)) deciles)
      [ 0.1; 0.4; 0.8 ]
  in
  Bench_util.table
    ~columns:("" :: List.map (fun d -> Printf.sprintf "%.0f%%" d) deciles)
    rows;
  Bench_util.note
    "paper: stddev 0.1 reaches ~65%% of tuples with 10%% of values; 0.8 is near the diagonal"

(* --- Graphs 4-9 ------------------------------------------------------------- *)

let pair cfg ~seed_off ~n1 ~n2 ~dup ~stddev ~sel =
  let rng = Rng.create ~seed:(cfg.Bench_util.seed + seed_off) () in
  Workload.relation_pair rng
    ~outer:{ Workload.cardinality = n1; dup_pct = dup; dup_stddev = stddev }
    ~inner:{ Workload.cardinality = n2; dup_pct = dup; dup_stddev = stddev }
    ~semijoin_sel:sel ()

let graph4 cfg =
  let base = Bench_util.scaled cfg 30_000 in
  run_sweep cfg
    ~title:"G4 / Graph 4 — Join Test 1: vary cardinality (|R1| = |R2|, 0% dup, sel 100%)"
    ~points:[ base / 4; base / 2; 3 * base / 4; base ]
    ~label_of:(fun n -> Printf.sprintf "|R|=%d" n)
    ~relations_of:(fun n ->
      pair cfg ~seed_off:n ~n1:n ~n2:n ~dup:0.0 ~stddev:0.8 ~sel:100.0)
    ~expect:"expect: Tree Merge < Hash Join < Tree Join < Sort Merge"

let graph5 cfg =
  let n1 = Bench_util.scaled cfg 30_000 in
  run_sweep cfg
    ~title:"G5 / Graph 5 — Join Test 2: vary inner cardinality (|R1| = 30,000)"
    ~points:[ 1; 25; 50; 75; 100 ]
    ~label_of:(fun pct -> Printf.sprintf "|R2|=%d%%" pct)
    ~relations_of:(fun pct ->
      let n2 = max 1 (n1 * pct / 100) in
      pair cfg ~seed_off:pct ~n1 ~n2 ~dup:0.0 ~stddev:0.8 ~sel:100.0)
    ~expect:"expect: same ordering as Test 1 across the sweep"

let graph6 cfg =
  let n2 = Bench_util.scaled cfg 30_000 in
  run_sweep cfg
    ~title:"G6 / Graph 6 — Join Test 3: vary outer cardinality (|R2| = 30,000)"
    ~points:[ 1; 10; 25; 50; 60; 75; 100 ]
    ~label_of:(fun pct -> Printf.sprintf "|R1|=%d%%" pct)
    ~relations_of:(fun pct ->
      let n1 = max 1 (n2 * pct / 100) in
      pair cfg ~seed_off:pct ~n1 ~n2 ~dup:0.0 ~stddev:0.8 ~sel:100.0)
    ~expect:
      "expect: Tree Join wins for small |R1| (a lookup beats building the hash table); Hash Join retakes it around 60%"

(* Skewed duplicates explode the join output quadratically (the paper's
   Graph 7 reaches 10^4 seconds); the skewed sweep stops at 90%, the
   uniform one probes the paper's ~97% crossover. *)
let skewed_dup_points = [ 0; 25; 50; 75; 90; 95; 97 ]
let uniform_dup_points = [ 0; 25; 50; 75; 90; 97; 99 ]

let graph7 cfg =
  let n = Bench_util.scaled cfg 20_000 in
  run_sweep cfg
    ~title:"G7 / Graph 7 — Join Test 4: vary duplicates, skewed (stddev 0.1, |R|=20,000, sel 100%)"
    ~points:skewed_dup_points
    ~label_of:(fun d -> Printf.sprintf "dup=%d%%" d)
    ~relations_of:(fun d ->
      pair cfg ~seed_off:d ~n1:n ~n2:n ~dup:(float_of_int d) ~stddev:0.1
        ~sel:100.0)
    ~expect:
      "expect: output explodes with skewed duplicates; Sort Merge overtakes the index joins around 40-80%"

let graph8 cfg =
  let n = Bench_util.scaled cfg 20_000 in
  run_sweep cfg
    ~title:"G8 / Graph 8 — Join Test 5: vary duplicates, uniform (stddev 0.8)"
    ~points:uniform_dup_points
    ~label_of:(fun d -> Printf.sprintf "dup=%d%%" d)
    ~relations_of:(fun d ->
      pair cfg ~seed_off:(d + 7) ~n1:n ~n2:n ~dup:(float_of_int d) ~stddev:0.8
        ~sel:100.0)
    ~expect:
      "expect: Tree Merge stays best until very high duplicate percentages (~97% in the paper)"

let graph9 cfg =
  let n = Bench_util.scaled cfg 30_000 in
  run_sweep cfg
    ~title:"G9 / Graph 9 — Join Test 6: vary semijoin selectivity (|R|=30,000, dup 50% uniform)"
    ~points:[ 1; 25; 50; 75; 100 ]
    ~label_of:(fun s -> Printf.sprintf "sel=%d%%" s)
    ~relations_of:(fun s ->
      pair cfg ~seed_off:(s + 13) ~n1:n ~n2:n ~dup:50.0 ~stddev:0.8
        ~sel:(float_of_int s))
    ~expect:
      "expect: all methods cheapen at low selectivity; Tree Join most sensitive; Sort Merge least (sorting dominates)"

(* --- Graph 10: nested loops ------------------------------------------------- *)

let graph10 cfg =
  Bench_util.header "G10 / Graph 10 — Nested Loops join (|R1| = |R2|)";
  let sizes =
    List.map (fun n -> Bench_util.scaled cfg n) [ 1_000; 2_000; 5_000; 10_000; 20_000 ]
  in
  let rows =
    List.map
      (fun n ->
        let r1, r2 = pair cfg ~seed_off:n ~n1:n ~n2:n ~dup:0.0 ~stddev:0.8 ~sel:100.0 in
        let outer = { Join.rel = r1; col = Workload.jcol } in
        let inner = { Join.rel = r2; col = Workload.jcol } in
        let _, nl =
          Bench_util.time cfg (fun () ->
              ignore (Join.nested_loops ~outer ~inner ()))
        in
        let _, hash =
          Bench_util.time cfg (fun () ->
              ignore (Join.hash_join ~outer ~inner ()))
        in
        [ Printf.sprintf "|R|=%d" n; Printf.sprintf "%.4f" nl;
          Printf.sprintf "%.4f" hash;
          Printf.sprintf "%.0fx" (nl /. Float.max 1e-9 hash) ])
      sizes
  in
  Bench_util.table ~columns:[ ""; "Nested Loops"; "Hash Join"; "ratio" ] rows;
  Bench_util.note
    "expect: quadratic growth, orders of magnitude above Hash Join — never a practical method"

(* --- §2.1: precomputed join vs the others ----------------------------------- *)

let precomputed cfg =
  Bench_util.header
    "Q1/Q2 / §2.1 — Precomputed (pointer) join vs computed joins";
  let n = Bench_util.scaled cfg 30_000 in
  let n_depts = max 4 (n / 100) in
  let db = Db.create () in
  let dept_schema =
    Mmdb_storage.Schema.make ~name:"Department"
      [
        Mmdb_storage.Schema.col ~ty:Mmdb_storage.Schema.T_string "Name";
        Mmdb_storage.Schema.col ~ty:Mmdb_storage.Schema.T_int "Id";
      ]
  in
  let dept = Result.get_ok (Db.create_relation db ~schema:dept_schema ~primary_key:"Id") in
  for i = 0 to n_depts - 1 do
    ignore
      (Db.insert db ~rel:"Department"
         [| Mmdb_storage.Value.Str (Printf.sprintf "D%d" i); Mmdb_storage.Value.Int i |]
       |> Result.get_ok)
  done;
  let emp_schema =
    Mmdb_storage.Schema.make ~name:"Employee"
      [
        Mmdb_storage.Schema.col ~ty:Mmdb_storage.Schema.T_int "Id";
        Mmdb_storage.Schema.col ~ty:Mmdb_storage.Schema.T_int "DeptId";
        Mmdb_storage.Schema.col ~ty:(Mmdb_storage.Schema.T_ref "Department") "Dept";
      ]
  in
  let emp = Result.get_ok (Db.create_relation db ~schema:emp_schema ~primary_key:"Id") in
  let rng = Rng.create ~seed:cfg.Bench_util.seed () in
  for i = 0 to n - 1 do
    let d = Rng.int rng n_depts in
    ignore
      (Db.insert db ~rel:"Employee"
         [| Mmdb_storage.Value.Int i; Mmdb_storage.Value.Int d; Mmdb_storage.Value.Int d |]
       |> Result.get_ok)
  done;
  (* tree indexes on the data join columns for the computed joins *)
  ignore
    (Mmdb_storage.Relation.create_index emp ~idx_name:"deptid_tree"
       ~columns:[| 1 |] ~structure:Mmdb_storage.Relation.T_tree);
  let outer = { Join.rel = emp; col = 1 } in
  let inner = { Join.rel = dept; col = 1 } in
  let _, t_pre =
    Bench_util.time cfg (fun () ->
        ignore
          (Join.precomputed ~outer:emp ~ref_col:2
             ~inner_schema:(Mmdb_storage.Relation.schema dept) ()))
  in
  let _, t_hash =
    Bench_util.time cfg (fun () -> ignore (Join.hash_join ~outer ~inner ()))
  in
  let _, t_tree =
    Bench_util.time cfg (fun () -> ignore (Join.tree_join ~outer ~inner ()))
  in
  Bench_util.table ~columns:[ "method"; "seconds" ]
    [
      [ "Precomputed (follow pointers)"; Printf.sprintf "%.4f" t_pre ];
      [ "Hash Join"; Printf.sprintf "%.4f" t_hash ];
      [ "Tree Join"; Printf.sprintf "%.4f" t_tree ];
    ];
  Bench_util.note
    "expect: precomputed beats every computed method — 'the joining tuples have already been paired'"

(* --- batched execution: ns/row, skew robustness ---------------------------- *)

(* The batched-execution study (DESIGN.md "Batched execution"):
   per-operator ns/row at batch size 256 vs batch size 1 (the
   tuple-at-a-time ablation), and the partitioned join on a
   50%-hot-key build side vs uniform keys.  Counters are compiled out
   while timing (Bench_util.time), as in §3.1, so the measured deltas are
   pure memory/dispatch behaviour. *)
let batched cfg =
  Bench_util.header "JOIN — batched execution: ns/row, skew-robust partitioning";
  let n = Bench_util.scaled cfg 30_000 in
  let rng = Rng.create ~seed:(cfg.Bench_util.seed + 77) () in
  let r1, r2 =
    Workload.relation_pair ~with_ttree:false rng
      ~outer:{ Workload.cardinality = n; dup_pct = 40.0; dup_stddev = 0.8 }
      ~inner:{ Workload.cardinality = n; dup_pct = 40.0; dup_stddev = 0.8 }
      ~semijoin_sel:100.0 ()
  in
  let outer = { Join.rel = r1; col = Workload.jcol } in
  let inner = { Join.rel = r2; col = Workload.jcol } in
  (* ~5% selectivity (keys are uniform in [0, 1e9)): the timing isolates
     predicate evaluation; at high selectivity both modes drown in
     identical result-materialization allocations *)
  let scan_hi = Mmdb_storage.Value.Int 50_000_000 in
  let with_batch size f =
    let saved = Mmdb_storage.Batch.size () in
    Mmdb_storage.Batch.set_size size;
    Fun.protect ~finally:(fun () -> Mmdb_storage.Batch.set_size saved) f
  in
  (* 1. batch size 256 vs 1 per operator, sequential *)
  let ops =
    [
      (* a single selective scan finishes in well under a millisecond —
         too short to time stably — so one sample is 8 scans *)
      ( "scan_select",
        8 * n,
        fun () ->
          for _ = 1 to 8 do
            ignore
              (Select.run r1 ~path:Select.Sequential_scan
                 ~predicates:
                   [
                     Select.Between
                       (Workload.jcol, Mmdb_storage.Value.Int 0, scan_hi);
                   ])
          done );
      ("hash_join", 2 * n, fun () -> ignore (Join.hash_join ~outer ~inner ()));
      ("sort_merge", 2 * n, fun () -> ignore (Join.sort_merge ~outer ~inner ()));
    ]
  in
  let ns_per_row rows dt = dt *. 1e9 /. float_of_int (max 1 rows) in
  let op_rows =
    List.map
      (fun (op, rows, f) ->
        let _, t_one = with_batch 1 (fun () -> Bench_util.time cfg f) in
        let _, t_batched = with_batch 256 (fun () -> Bench_util.time cfg f) in
        let speedup = if t_batched > 0.0 then t_one /. t_batched else 0.0 in
        List.iter
          (fun (size, dt) ->
            Bench_util.emit cfg ~exp:"join"
              [
                ("section", `Str "batch");
                ("op", `Str op);
                ("batch_size", `Int size);
                ("cardinality", `Int n);
                ("seconds", `Float dt);
                ("ns_per_row", `Float (ns_per_row rows dt));
              ])
          [ (1, t_one); (256, t_batched) ];
        Bench_util.emit cfg ~exp:"join"
          [
            ("section", `Str "batch_speedup");
            ("op", `Str op);
            ("cardinality", `Int n);
            ("speedup", `Float speedup);
          ];
        [
          op;
          Printf.sprintf "%.1f" (ns_per_row rows t_one);
          Printf.sprintf "%.1f" (ns_per_row rows t_batched);
          Printf.sprintf "%.2fx" speedup;
        ])
      ops
  in
  Bench_util.table
    ~columns:[ "op"; "batch 1 ns/row"; "batch 256 ns/row"; "speedup" ]
    op_rows;
  Bench_util.note
    "expect: batch 256 >= 1.3x rows/sec over batch 1 on scan_select (enforced by scripts/bench_baseline.sh)";
  (* 2. skew robustness: partitioned join, hot key = 50% of the build side *)
  let hot = 424_242 in
  let skew_inner_col =
    Array.init n (fun i -> if i land 1 = 0 then hot else 1_000_000_000 + i)
  in
  (* the probe side draws only from the non-hot tail so both workloads
     emit ~n output rows — the ratio then isolates partitioning cost
     under skew rather than result-volume difference; emission through a
     hot probe is covered by test_batch's skew suite *)
  let skew_outer_col =
    Array.init n (fun i -> 1_000_000_000 + 1 + (2 * (i mod (n / 2))))
  in
  let rs_inner = Workload.load ~name:"SkewInner" skew_inner_col in
  let rs_outer = Workload.load ~name:"SkewOuter" skew_outer_col in
  let uni_inner_col = Array.init n (fun i -> 2_000_000_000 + i) in
  let uni_outer_col = Array.init n (fun i -> 2_000_000_000 + (i mod n)) in
  let ru_inner = Workload.load ~name:"UniInner" uni_inner_col in
  let ru_outer = Workload.load ~name:"UniOuter" uni_outer_col in
  let pool = Domain_pool.create ~size:4 () in
  let time_pair ~o ~i =
    Bench_util.time cfg (fun () ->
        ignore
          (Join.hash_join ~pool
             ~outer:{ Join.rel = o; col = Workload.jcol }
             ~inner:{ Join.rel = i; col = Workload.jcol }
             ()))
  in
  let _, rv0 = Join.skew_stats () in
  let _, t_uniform = with_batch 256 (fun () -> time_pair ~o:ru_outer ~i:ru_inner) in
  let _, t_skew = with_batch 256 (fun () -> time_pair ~o:rs_outer ~i:rs_inner) in
  let _, rv1 = Join.skew_stats () in
  Domain_pool.stop pool;
  let ratio = if t_uniform > 0.0 then t_skew /. t_uniform else 0.0 in
  Bench_util.emit cfg ~exp:"join"
    [
      ("section", `Str "skew");
      ("op", `Str "partitioned_hash_join");
      ("cardinality", `Int n);
      ("uniform_seconds", `Float t_uniform);
      ("skew_seconds", `Float t_skew);
      ("skew_ratio", `Float ratio);
      ("role_reversals", `Int (rv1 - rv0));
    ];
  Bench_util.table
    ~columns:[ "workload"; "seconds" ]
    [
      [ "uniform keys"; Printf.sprintf "%.4f" t_uniform ];
      [ "hot key (50% of build)"; Printf.sprintf "%.4f" t_skew ];
      [ "ratio"; Printf.sprintf "%.2fx" ratio ];
    ];
  Bench_util.note
    "expect: skewed within 2x of uniform (role reversal builds on the probe side); role reversals=%d"
    (rv1 - rv0)
