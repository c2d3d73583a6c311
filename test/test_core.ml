(* Tests for the query-processing core: workload generation, selection
   access paths, all join algorithms (pairwise equivalence on random
   workloads), projection methods, the §4 optimizer rules, and end-to-end
   query execution. *)

open Mmdb_util
open Mmdb_storage
open Mmdb_core

(* --- workload generation (§3.3.1, Graph 3) ------------------------------ *)

let test_workload_cardinality () =
  let rng = Rng.create ~seed:1 () in
  let col = Workload.column rng ~spec:{ cardinality = 500; dup_pct = 0.0; dup_stddev = 0.8 } in
  Alcotest.(check int) "length" 500 (Array.length col);
  let uniq = List.sort_uniq compare (Array.to_list col) in
  Alcotest.(check int) "no duplicates at 0%" 500 (List.length uniq)

let test_workload_duplicates () =
  let rng = Rng.create ~seed:2 () in
  let col =
    Workload.column rng ~spec:{ cardinality = 1000; dup_pct = 60.0; dup_stddev = 0.8 }
  in
  let uniq = List.length (List.sort_uniq compare (Array.to_list col)) in
  Alcotest.(check int) "unique values at 60% dups" 400 uniq

let test_workload_skew_shapes () =
  (* Graph 3: with σ=0.1 a small share of values covers most tuples; with
     σ=0.8 the distribution is near-uniform. *)
  let share_of_top_10pct stddev =
    let rng = Rng.create ~seed:3 () in
    let col =
      Workload.column rng
        ~spec:{ cardinality = 5000; dup_pct = 90.0; dup_stddev = stddev }
    in
    let counts = Hashtbl.create 64 in
    Array.iter
      (fun v ->
        Hashtbl.replace counts v (1 + Option.value ~default:0 (Hashtbl.find_opt counts v)))
      col;
    let sorted =
      Hashtbl.fold (fun _ c acc -> c :: acc) counts []
      |> List.sort (fun a b -> compare b a)
    in
    let n_vals = List.length sorted in
    let top = List.filteri (fun i _ -> i < max 1 (n_vals / 10)) sorted in
    float_of_int (List.fold_left ( + ) 0 top) /. 5000.0
  in
  let skewed = share_of_top_10pct 0.1 and uniform = share_of_top_10pct 0.8 in
  if skewed <= uniform then
    Alcotest.failf "skewed top-decile share %.2f <= uniform %.2f" skewed uniform;
  if skewed < 0.2 then Alcotest.failf "skew too weak: %.2f" skewed

let test_workload_semijoin_selectivity () =
  let rng = Rng.create ~seed:4 () in
  let check sel =
    let c1, c2 =
      Workload.column_pair rng
        ~outer:{ cardinality = 1000; dup_pct = 0.0; dup_stddev = 0.8 }
        ~inner:{ cardinality = 1000; dup_pct = 0.0; dup_stddev = 0.8 }
        ~semijoin_sel:sel
    in
    let s1 = Hashtbl.create 1024 in
    Array.iter (fun v -> Hashtbl.replace s1 v ()) c1;
    let matching = Array.fold_left (fun acc v -> if Hashtbl.mem s1 v then acc + 1 else acc) 0 c2 in
    float_of_int matching /. float_of_int (Array.length c2) *. 100.0
  in
  let m100 = check 100.0 and m50 = check 50.0 and m0 = check 0.0 in
  Alcotest.(check bool) "sel 100 ~ all match" true (m100 > 99.0);
  Alcotest.(check bool) "sel 50 ~ half match" true (m50 > 40.0 && m50 < 60.0);
  Alcotest.(check bool) "sel 0 ~ none match" true (m0 < 1.0)

let test_workload_load () =
  let rng = Rng.create ~seed:5 () in
  let col = Workload.column rng ~spec:(Workload.uniform_spec ~cardinality:200) in
  let rel = Workload.load ~with_ttree:true ~name:"R" col in
  Alcotest.(check int) "count" 200 (Relation.count rel);
  Alcotest.(check bool) "validates" true (Relation.validate rel = Ok ());
  Alcotest.(check bool) "has tree index on jcol" true
    (Relation.find_index_on ~ordered:true rel ~columns:[| Workload.jcol |] <> None)

(* --- selection (§3.2, §4) ------------------------------------------------ *)

let mk_indexed_relation () =
  let rng = Rng.create ~seed:6 () in
  let col = Array.init 300 (fun i -> i * 2) in
  Rng.shuffle rng col;
  let rel = Workload.load ~with_ttree:true ~name:"S" col in
  (match
     Relation.create_index rel ~idx_name:"jcol_hash" ~columns:[| Workload.jcol |]
       ~structure:Relation.Mod_linear_hash
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  rel

let test_select_paths_agree () =
  let rel = mk_indexed_relation () in
  let pred = Select.Eq (Workload.jcol, Value.Int 100) in
  let count path =
    Temp_list.length (Select.run rel ~path ~predicates:[ pred ])
  in
  Alcotest.(check int) "hash path" 1 (count (Select.Hash_lookup "jcol_hash"));
  Alcotest.(check int) "tree path" 1 (count (Select.Tree_lookup "jcol_tree"));
  Alcotest.(check int) "scan path" 1 (count Select.Sequential_scan);
  let missing = Select.Eq (Workload.jcol, Value.Int 101) in
  Alcotest.(check int) "miss via hash" 0
    (Temp_list.length
       (Select.run rel ~path:(Select.Hash_lookup "jcol_hash") ~predicates:[ missing ]))

let test_select_best_path_ordering () =
  let rel = mk_indexed_relation () in
  (* hash > tree for exact match *)
  (match Select.best_path rel (Select.Eq (Workload.jcol, Value.Int 2)) with
  | Select.Hash_lookup _ -> ()
  | p -> Alcotest.failf "expected hash lookup, got %a" Select.pp_path p);
  (* range can only use the tree *)
  (match
     Select.best_path rel (Select.Between (Workload.jcol, Value.Int 0, Value.Int 10))
   with
  | Select.Tree_lookup _ -> ()
  | p -> Alcotest.failf "expected tree lookup, got %a" Select.pp_path p);
  (* unindexed column: scan *)
  (match Select.best_path rel (Select.Filter (fun _ -> true)) with
  | Select.Sequential_scan -> ()
  | p -> Alcotest.failf "expected scan, got %a" Select.pp_path p)

let test_select_range_and_residual () =
  let rel = mk_indexed_relation () in
  let out =
    Select.select rel
      [
        Select.Between (Workload.jcol, Value.Int 10, Value.Int 30);
        Select.Filter
          (fun t ->
            match Tuple.get t Workload.jcol with
            | Value.Int v -> v mod 4 = 0
            | _ -> false);
      ]
  in
  (* evens in [10,30] divisible by 4: 12,16,20,24,28 *)
  Alcotest.(check int) "range + residual" 5 (Temp_list.length out)

(* --- joins (§3.3) --------------------------------------------------------- *)

let pairs tl =
  let acc = ref [] in
  Temp_list.iter tl (fun e ->
      let v t = match Tuple.get t Workload.seq_col with Value.Int i -> i | _ -> -1 in
      acc := (v e.(0), v e.(1)) :: !acc);
  List.sort compare !acc

let reference_join c1 c2 =
  (* brute-force expected result on the raw columns *)
  let acc = ref [] in
  Array.iteri
    (fun i v1 ->
      Array.iteri (fun j v2 -> if v1 = v2 then acc := (i, j) :: !acc) c2)
    c1;
  List.sort compare !acc

let test_join_methods_agree_simple () =
  let rng = Rng.create ~seed:7 () in
  let c1, c2 =
    Workload.column_pair rng
      ~outer:{ cardinality = 120; dup_pct = 40.0; dup_stddev = 0.4 }
      ~inner:{ cardinality = 80; dup_pct = 30.0; dup_stddev = 0.4 }
      ~semijoin_sel:70.0
  in
  let r1 = Workload.load ~with_ttree:true ~name:"R1" c1 in
  let r2 = Workload.load ~with_ttree:true ~name:"R2" c2 in
  let outer = { Join.rel = r1; col = Workload.jcol } in
  let inner = { Join.rel = r2; col = Workload.jcol } in
  let expected = reference_join c1 c2 in
  List.iter
    (fun m ->
      let got = pairs (Join.run m ~outer ~inner) in
      if got <> expected then
        Alcotest.failf "%s disagrees with reference join" (Join.method_name m))
    Join.all_methods

let join_equivalence_property =
  QCheck.Test.make ~count:25 ~name:"all join methods produce the same multiset"
    QCheck.(
      triple (int_range 0 60) (int_range 0 60) (int_range 0 100))
    (fun (n1, n2, sel) ->
      let rng = Rng.create ~seed:(n1 + (61 * n2) + (61 * 61 * sel)) () in
      let c1, c2 =
        if n1 = 0 || n2 = 0 then
          ( Array.init n1 (fun i -> i),
            Array.init n2 (fun i -> i) )
        else
          Workload.column_pair rng
            ~outer:{ cardinality = n1; dup_pct = 50.0; dup_stddev = 0.3 }
            ~inner:{ cardinality = n2; dup_pct = 50.0; dup_stddev = 0.3 }
            ~semijoin_sel:(float_of_int sel)
      in
      let r1 = Workload.load ~with_ttree:true ~name:"R1" c1 in
      let r2 = Workload.load ~with_ttree:true ~name:"R2" c2 in
      let outer = { Join.rel = r1; col = Workload.jcol } in
      let inner = { Join.rel = r2; col = Workload.jcol } in
      let expected = reference_join c1 c2 in
      List.for_all
        (fun m ->
          let got = pairs (Join.run m ~outer ~inner) in
          if got <> expected then
            QCheck.Test.fail_reportf "%s diverges (%d vs %d pairs)"
              (Join.method_name m) (List.length got) (List.length expected)
          else true)
        Join.all_methods)

let test_tree_join_requires_index () =
  let rel1 = Workload.load ~with_ttree:false ~name:"A" [| 1; 2 |] in
  let rel2 = Workload.load ~with_ttree:false ~name:"B" [| 1; 2 |] in
  let outer = { Join.rel = rel1; col = Workload.jcol } in
  let inner = { Join.rel = rel2; col = Workload.jcol } in
  (try
     ignore (Join.tree_join ~outer ~inner ());
     Alcotest.fail "tree join without index succeeded"
   with Invalid_argument _ -> ());
  try
    ignore (Join.tree_merge ~outer ~inner ());
    Alcotest.fail "tree merge without index succeeded"
  with Invalid_argument _ -> ()

let test_join_outer_filter () =
  let r1 = Workload.load ~with_ttree:true ~name:"R1" [| 1; 2; 3; 4 |] in
  let r2 = Workload.load ~with_ttree:true ~name:"R2" [| 2; 3; 5 |] in
  let outer = { Join.rel = r1; col = Workload.jcol } in
  let inner = { Join.rel = r2; col = Workload.jcol } in
  let f t = Tuple.get t Workload.jcol <> Value.Int 2 in
  List.iter
    (fun m ->
      let tl = Join.run ~outer_filter:f m ~outer ~inner in
      Alcotest.(check int)
        (Join.method_name m ^ " filtered")
        1 (Temp_list.length tl))
    Join.all_methods

let test_inequality_join () =
  (* outer_key op inner_key over small known columns *)
  let r1 = Workload.load ~with_ttree:true ~name:"A" [| 1; 5; 9 |] in
  let r2 = Workload.load ~with_ttree:true ~name:"B" [| 2; 5; 7 |] in
  let outer = { Join.rel = r1; col = Workload.jcol } in
  let inner = { Join.rel = r2; col = Workload.jcol } in
  let count op =
    Temp_list.length (Join.tree_inequality_join ~op ~outer ~inner ())
  in
  (* brute force: pairs (a, b) with a op b *)
  let brute op =
    List.length
      (List.concat_map
         (fun a -> List.filter (fun b -> op a b) [ 2; 5; 7 ])
         [ 1; 5; 9 ])
  in
  Alcotest.(check int) "<" (brute ( < )) (count Join.Lt);
  Alcotest.(check int) "<=" (brute ( <= )) (count Join.Le);
  Alcotest.(check int) ">" (brute ( > )) (count Join.Gt);
  Alcotest.(check int) ">=" (brute ( >= )) (count Join.Ge)

let inequality_join_property =
  QCheck.Test.make ~count:30 ~name:"inequality joins ≡ brute force"
    QCheck.(pair (list_of_size (QCheck.Gen.int_range 0 25) (int_range 0 20))
              (list_of_size (QCheck.Gen.int_range 0 25) (int_range 0 20)))
    (fun (xs, ys) ->
      let r1 = Workload.load ~with_ttree:true ~name:"A" (Array.of_list xs) in
      let r2 = Workload.load ~with_ttree:true ~name:"B" (Array.of_list ys) in
      let outer = { Join.rel = r1; col = Workload.jcol } in
      let inner = { Join.rel = r2; col = Workload.jcol } in
      List.for_all
        (fun (op, f) ->
          let got =
            Temp_list.length (Join.tree_inequality_join ~op ~outer ~inner ())
          in
          let want =
            List.length
              (List.concat_map (fun a -> List.filter (f a) ys) xs)
          in
          if got <> want then
            QCheck.Test.fail_reportf "%s: got %d want %d"
              (Join.inequality_name op) got want
          else true)
        [ (Join.Lt, ( < )); (Join.Le, ( <= )); (Join.Gt, ( > ));
          (Join.Ge, ( >= )) ])

let test_lookup_from () =
  let rel = Workload.load ~with_ttree:true ~name:"L" [| 10; 20; 30; 40 |] in
  let acc = ref [] in
  Relation.lookup_from ~index:"jcol_tree" rel [| Value.Int 25 |] (fun t ->
      match Tuple.get t Workload.jcol with
      | Value.Int v -> acc := v :: !acc
      | _ -> ());
  Alcotest.(check (list int)) "from 25" [ 30; 40 ] (List.rev !acc)

let test_join_operation_counts () =
  (* §3.1 validation: operation counts must match the paper's §3.3.4
     formulas.  Unique keys, 100% selectivity. *)
  let n1 = 400 and n2 = 300 in
  let rng = Rng.create ~seed:21 () in
  let c1, c2 =
    Workload.column_pair rng
      ~outer:(Workload.uniform_spec ~cardinality:n1)
      ~inner:(Workload.uniform_spec ~cardinality:n2)
      ~semijoin_sel:100.0
  in
  let r1 = Workload.load ~with_ttree:true ~name:"R1" c1 in
  let r2 = Workload.load ~with_ttree:true ~name:"R2" c2 in
  let outer = { Join.rel = r1; col = Workload.jcol } in
  let inner = { Join.rel = r2; col = Workload.jcol } in
  let measure m =
    Counters.reset ();
    let _, c = Counters.with_counters (fun () -> ignore (Join.run m ~outer ~inner)) in
    c
  in
  (* Nested loops: exactly |R1| * |R2| value comparisons *)
  let c = measure Join.Nested_loops in
  Alcotest.(check int) "nested loops comparisons" (n1 * n2)
    c.Counters.comparisons;
  (* Hash join: exactly one hash call per build insert and one per probe *)
  let c = measure Join.Hash_join in
  Alcotest.(check int) "hash join hash calls" (n1 + n2) c.Counters.hash_calls;
  (* Tree merge: ~(|R1| + 2|R2|) comparisons per the paper; allow a small
     constant factor for run bookkeeping *)
  let c = measure Join.Tree_merge in
  let formula = n1 + (2 * n2) in
  if c.Counters.comparisons > 3 * formula then
    Alcotest.failf "tree merge comparisons %d >> formula %d"
      c.Counters.comparisons formula;
  (* Tree join: O(|R1| log |R2|) comparisons *)
  let c = measure Join.Tree_join in
  (* each probe costs two bound comparisons per tree level plus a binary
     search of the final node, so allow a factor of 4 over the idealized
     |R1| log2 |R2| *)
  let bound =
    4.0 *. float_of_int n1 *. (log (float_of_int n2) /. log 2.0)
  in
  if float_of_int c.Counters.comparisons > bound then
    Alcotest.failf "tree join comparisons %d above O(|R1| log |R2|) bound"
      c.Counters.comparisons;
  (* The tree methods' exact totals on this workload, as [comparisons;
     data moves; hash calls; node allocations; dereferences]: reading
     through the relations' read entries must not change what Graphs 6-8
     count. *)
  let literal name want (c : Counters.snapshot) =
    Alcotest.(check (list int)) (name ^ " totals") want
      Counters.
        [ c.comparisons; c.data_moves; c.hash_calls; c.node_allocs; c.ptr_derefs ]
  in
  literal "tree join" [ 10338; 0; 0; 0; 21076 ] (measure Join.Tree_join);
  literal "tree merge" [ 2197; 0; 0; 0; 2897 ] (measure Join.Tree_merge);
  List.iter
    (fun (op, want) ->
      Counters.reset ();
      let _, c =
        Counters.with_counters (fun () ->
            ignore (Join.tree_inequality_join ~op ~outer ~inner ()))
      in
      literal (Join.inequality_name op) want c)
    [
      (Join.Lt, [ 67804; 0; 0; 0; 75503 ]);
      (Join.Le, [ 7299; 0; 0; 0; 14998 ]);
      (Join.Gt, [ 59895; 0; 0; 0; 60295 ]);
      (Join.Ge, [ 60194; 0; 0; 0; 60594 ]);
    ]

(* --- pointer joins (§2.1) --------------------------------------------------- *)

let employee_fixture () =
  let db = Db.create () in
  let dept_schema =
    Schema.make ~name:"Department"
      [ Schema.col ~ty:Schema.T_string "Name"; Schema.col ~ty:Schema.T_int "Id" ]
  in
  let _ = Db.create_relation db ~schema:dept_schema ~primary_key:"Id" in
  List.iter
    (fun (n, i) ->
      match Db.insert db ~rel:"Department" [| Value.Str n; Value.Int i |] with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e)
    [ ("Toy", 459); ("Shoe", 409); ("Linen", 411); ("Paint", 455) ];
  let emp_schema =
    Schema.make ~name:"Employee"
      [
        Schema.col ~ty:Schema.T_string "Name";
        Schema.col ~ty:Schema.T_int "Id";
        Schema.col ~ty:Schema.T_int "Age";
        Schema.col ~ty:(Schema.T_ref "Department") "Dept";
      ]
  in
  let _ = Db.create_relation db ~schema:emp_schema ~primary_key:"Id" in
  List.iter
    (fun (n, id, age, dept) ->
      match
        Db.insert db ~rel:"Employee"
          [| Value.Str n; Value.Int id; Value.Int age; Value.Int dept |]
      with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e)
    [
      ("Dave", 23, 24, 459);
      ("Suzan", 12, 27, 459);
      ("Yaman", 44, 54, 411);
      ("Jane", 43, 47, 411);
      ("Cindy", 22, 22, 409);
      ("Hank", 77, 70, 409);
    ];
  db

let test_foreign_key_substitution () =
  let db = employee_fixture () in
  let emp = Db.find_exn db "Employee" in
  let dave = Option.get (Relation.lookup_one emp [| Value.Int 23 |]) in
  (match Tuple.get dave 3 with
  | Value.Ref d -> Alcotest.(check bool) "resolved to Toy" true (Tuple.get d 0 = Value.Str "Toy")
  | v -> Alcotest.failf "expected pointer, got %s" (Value.to_string v));
  (* dangling FK rejected *)
  match
    Db.insert db ~rel:"Employee"
      [| Value.Str "Ghost"; Value.Int 99; Value.Int 30; Value.Int 999 |]
  with
  | Ok _ -> Alcotest.fail "dangling foreign key accepted"
  | Error _ -> ()

let test_precomputed_join () =
  let db = employee_fixture () in
  let emp = Db.find_exn db "Employee" in
  let dept = Db.find_exn db "Department" in
  let tl =
    Join.precomputed ~outer:emp ~ref_col:3 ~inner_schema:(Relation.schema dept)
      ()
  in
  Alcotest.(check int) "every employee pairs with a department" 6
    (Temp_list.length tl);
  (* spot-check one pair *)
  let found = ref false in
  Temp_list.iter tl (fun e ->
      if Tuple.get e.(0) 0 = Value.Str "Dave" then begin
        found := true;
        Alcotest.(check bool) "Dave -> Toy" true (Tuple.get e.(1) 0 = Value.Str "Toy")
      end);
  Alcotest.(check bool) "Dave found" true !found

let test_pointer_join_query2 () =
  (* Query 2: employees in the Toy or Shoe departments. *)
  let db = employee_fixture () in
  let emp = Db.find_exn db "Employee" in
  let dept = Db.find_exn db "Department" in
  let selected =
    Select.select dept
      [
        Select.Filter
          (fun t ->
            Tuple.get t 0 = Value.Str "Toy" || Tuple.get t 0 = Value.Str "Shoe");
      ]
  in
  Alcotest.(check int) "two departments" 2 (Temp_list.length selected);
  let tl = Join.pointer_join ~outer:emp ~ref_col:3 ~selected in
  let names =
    List.sort compare
      (List.map
         (fun row -> Value.to_string row.(0))
         (Temp_list.materialize (Temp_list.project tl [ "Employee.Name" ])))
  in
  Alcotest.(check (list string)) "toy+shoe employees"
    [ "\"Cindy\""; "\"Dave\""; "\"Hank\""; "\"Suzan\"" ]
    names

let test_refs_link_unlink () =
  (* one-to-many: Department carries a pointer list of its employees *)
  let db = Db.create () in
  let emp_schema =
    Schema.make ~name:"Employee"
      [ Schema.col ~ty:Schema.T_string "Name"; Schema.col ~ty:Schema.T_int "Id" ]
  in
  let _ = Db.create_relation db ~schema:emp_schema ~primary_key:"Id" in
  let dept_schema =
    Schema.make ~name:"Department"
      [
        Schema.col ~ty:Schema.T_string "Name";
        Schema.col ~ty:Schema.T_int "Id";
        Schema.col ~ty:(Schema.T_refs "Employee") "Members";
      ]
  in
  let dept_rel =
    match Db.create_relation db ~schema:dept_schema ~primary_key:"Id" with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  List.iter
    (fun (n, i) ->
      match Db.insert db ~rel:"Employee" [| Value.Str n; Value.Int i |] with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e)
    [ ("Dave", 1); ("Suzan", 2) ];
  let toy =
    match
      Db.insert db ~rel:"Department"
        [| Value.Str "Toy"; Value.Int 459; Value.Refs [] |]
    with
    | Ok t -> t
    | Error e -> Alcotest.fail e
  in
  (match Db.link db ~rel:"Department" toy ~col:2 ~target_key:(Value.Int 1) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (match Db.link db ~rel:"Department" toy ~col:2 ~target_key:(Value.Int 2) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (* idempotent *)
  (match Db.link db ~rel:"Department" toy ~col:2 ~target_key:(Value.Int 1) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (match Tuple.get toy 2 with
  | Value.Refs ts -> Alcotest.(check int) "two members" 2 (List.length ts)
  | _ -> Alcotest.fail "not a pointer list");
  (* the precomputed join fans out over the list *)
  let joined =
    Join.precomputed ~outer:dept_rel ~ref_col:2 ~inner_schema:emp_schema ()
  in
  Alcotest.(check int) "fan-out" 2 (Temp_list.length joined);
  (match Db.unlink db ~rel:"Department" toy ~col:2 ~target_key:(Value.Int 1) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (match Tuple.get toy 2 with
  | Value.Refs ts -> Alcotest.(check int) "one member" 1 (List.length ts)
  | _ -> Alcotest.fail "not a pointer list");
  (* error paths *)
  (match Db.link db ~rel:"Department" toy ~col:2 ~target_key:(Value.Int 99) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "dangling link accepted");
  match Db.link db ~rel:"Department" toy ~col:0 ~target_key:(Value.Int 1) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "link on non-refs column accepted"

(* --- projection (§3.4) ------------------------------------------------------ *)

let test_projection_methods_agree () =
  let rng = Rng.create ~seed:8 () in
  let col =
    Workload.column rng ~spec:{ cardinality = 400; dup_pct = 70.0; dup_stddev = 0.4 }
  in
  let rel = Workload.load ~name:"P" col in
  let tl = Temp_list.of_relation rel in
  let labels = [ "P.jcol" ] in
  let to_values out =
    List.sort compare
      (List.map (fun r -> r.(0)) (Temp_list.materialize out))
  in
  let s = Project.sort_scan tl labels and h = Project.hashing tl labels in
  Alcotest.(check int) "same cardinality" (Temp_list.length s) (Temp_list.length h);
  Alcotest.(check bool) "same values" true (to_values s = to_values h);
  (* exactly the distinct count *)
  let distinct = List.length (List.sort_uniq compare (Array.to_list col)) in
  Alcotest.(check int) "dedup count" distinct (Temp_list.length h)

let projection_equivalence_property =
  QCheck.Test.make ~count:40 ~name:"projection methods agree"
    QCheck.(pair (int_range 0 200) (int_range 0 100))
    (fun (n, dup) ->
      let rng = Rng.create ~seed:(n + (201 * dup)) () in
      let col =
        if n = 0 then [||]
        else
          Workload.column rng
            ~spec:{ cardinality = n; dup_pct = float_of_int dup; dup_stddev = 0.3 }
      in
      let rel = Workload.load ~name:"P" col in
      let tl = Temp_list.of_relation rel in
      let labels = [ "P.jcol" ] in
      let s = Project.sort_scan tl labels and h = Project.hashing tl labels in
      let vals out =
        List.sort compare (List.map (fun r -> r.(0)) (Temp_list.materialize out))
      in
      let expected =
        List.sort_uniq compare (List.map (fun v -> Value.Int v) (Array.to_list col))
      in
      vals s = expected && vals h = expected)

(* --- aggregation ------------------------------------------------------------ *)

let test_aggregate_basic () =
  let db = employee_fixture () in
  let emp = Db.find_exn db "Employee" in
  let tl = Temp_list.of_relation emp in
  let r =
    Aggregate.group tl ~by:[]
      ~aggs:
        [
          Aggregate.Count;
          Aggregate.Sum "Employee.Age";
          Aggregate.Avg "Employee.Age";
          Aggregate.Min "Employee.Age";
          Aggregate.Max "Employee.Age";
        ]
  in
  (match r.Aggregate.rows with
  | [ [| c; s; a; mn; mx |] ] ->
      Alcotest.(check bool) "count" true (c = Value.Int 6);
      Alcotest.(check bool) "sum" true (s = Value.Int (24 + 27 + 54 + 47 + 22 + 70));
      (match a with
      | Value.Float f -> Alcotest.(check (float 0.01)) "avg" (244.0 /. 6.0) f
      | _ -> Alcotest.fail "avg type");
      Alcotest.(check bool) "min" true (mn = Value.Int 22);
      Alcotest.(check bool) "max" true (mx = Value.Int 70)
  | _ -> Alcotest.fail "row shape");
  Alcotest.(check (list string)) "header"
    [
      "count(*)"; "sum(Employee.Age)"; "avg(Employee.Age)";
      "min(Employee.Age)"; "max(Employee.Age)";
    ]
    r.Aggregate.header

let test_aggregate_group_by () =
  let db = employee_fixture () in
  let emp = Db.find_exn db "Employee" in
  let dept = Db.find_exn db "Department" in
  let joined =
    Join.precomputed ~outer:emp ~ref_col:3 ~inner_schema:(Relation.schema dept)
      ()
  in
  let r =
    Aggregate.group joined ~by:[ "Department.Name" ]
      ~aggs:[ Aggregate.Count; Aggregate.Avg "Employee.Age" ]
  in
  Alcotest.(check int) "three departments employ people" 3
    (List.length r.Aggregate.rows);
  (* find the Toy group: Dave (24) + Suzan (27) *)
  let toy =
    List.find
      (fun row -> row.(0) = Value.Str "Toy")
      r.Aggregate.rows
  in
  Alcotest.(check bool) "toy count" true (toy.(1) = Value.Int 2);
  (match toy.(2) with
  | Value.Float f -> Alcotest.(check (float 0.01)) "toy avg" 25.5 f
  | _ -> Alcotest.fail "avg type")

let test_aggregate_edge_cases () =
  let db = employee_fixture () in
  let emp = Db.find_exn db "Employee" in
  (* empty input, no grouping: one row of empty aggregates *)
  let empty =
    Select.select emp [ Select.Eq (2, Value.Int 999) ]
  in
  let r = Aggregate.group empty ~by:[] ~aggs:[ Aggregate.Count; Aggregate.Avg "Employee.Age" ] in
  (match r.Aggregate.rows with
  | [ [| c; a |] ] ->
      Alcotest.(check bool) "count 0" true (c = Value.Int 0);
      Alcotest.(check bool) "avg null" true (a = Value.Null)
  | _ -> Alcotest.fail "empty aggregate shape");
  (* empty input with grouping: no rows *)
  let r2 = Aggregate.group empty ~by:[ "Employee.Name" ] ~aggs:[ Aggregate.Count ] in
  Alcotest.(check int) "no groups" 0 (List.length r2.Aggregate.rows);
  (* unknown label *)
  match Aggregate.group empty ~by:[] ~aggs:[ Aggregate.Sum "Nope" ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unknown label accepted"

(* --- optimizer (§4) ----------------------------------------------------------- *)

(* The join chooser's pick with the outer priced at its raw cardinality,
   as the rule-based planner calls it. *)
let choose_raw ?stats ~outer ~inner () =
  fst
    (Optimizer.choose_join ?stats
       ~outer_rows:(Relation.cardinality outer.Join.rel)
       ~outer ~inner ())

let test_optimizer_prefers_precomputed () =
  let db = employee_fixture () in
  let emp = Db.find_exn db "Employee" in
  let dept = Db.find_exn db "Department" in
  let outer = { Join.rel = emp; col = 3 } in
  let inner = { Join.rel = dept; col = 1 } in
  match choose_raw ~outer ~inner () with
  | Optimizer.Precomputed 3 -> ()
  | c -> Alcotest.failf "expected precomputed, got %a" Optimizer.pp_choice c

let test_optimizer_join_rules () =
  let mk n ~tree name =
    Workload.load ~with_ttree:tree ~name (Array.init n (fun i -> i))
  in
  let side rel = { Join.rel; col = Workload.jcol } in
  (* both trees -> tree merge *)
  (match
     choose_raw
       ~outer:(side (mk 100 ~tree:true "A"))
       ~inner:(side (mk 100 ~tree:true "B"))
       ()
   with
  | Optimizer.Algorithm Join.Tree_merge -> ()
  | c -> Alcotest.failf "want tree merge, got %a" Optimizer.pp_choice c);
  (* inner tree, small outer -> tree join *)
  (match
     choose_raw
       ~outer:(side (mk 20 ~tree:false "C"))
       ~inner:(side (mk 100 ~tree:true "D"))
       ()
   with
  | Optimizer.Algorithm Join.Tree_join -> ()
  | c -> Alcotest.failf "want tree join, got %a" Optimizer.pp_choice c);
  (* inner tree, large outer -> hash join *)
  (match
     choose_raw
       ~outer:(side (mk 90 ~tree:false "E"))
       ~inner:(side (mk 100 ~tree:true "F"))
       ()
   with
  | Optimizer.Algorithm Join.Hash_join -> ()
  | c -> Alcotest.failf "want hash join, got %a" Optimizer.pp_choice c);
  (* no indices -> hash join *)
  (match
     choose_raw
       ~outer:(side (mk 50 ~tree:false "G"))
       ~inner:(side (mk 50 ~tree:false "H"))
       ()
   with
  | Optimizer.Algorithm Join.Hash_join -> ()
  | c -> Alcotest.failf "want hash join, got %a" Optimizer.pp_choice c);
  (* both trees but high duplicates + selectivity -> sort merge *)
  match
    choose_raw
      ~stats:{ Optimizer.dup_pct = 90.0; semijoin_sel = 100.0 }
      ~outer:(side (mk 100 ~tree:true "I"))
      ~inner:(side (mk 100 ~tree:true "J"))
      ()
  with
  | Optimizer.Algorithm Join.Sort_merge -> ()
  | c -> Alcotest.failf "want sort merge, got %a" Optimizer.pp_choice c

let test_cost_formulas () =
  (* §3.3.4: the comparison-count formulas and their implied orderings *)
  let o = 30_000 and i = 30_000 in
  let nl = Optimizer.Cost.nested_loops ~outer:o ~inner:i in
  let hj = Optimizer.Cost.hash_join ~outer:o ~inner:i in
  let tj = Optimizer.Cost.tree_join ~outer:o ~inner:i in
  let tm = Optimizer.Cost.tree_merge ~outer:o ~inner:i in
  let sm = Optimizer.Cost.sort_merge ~outer:o ~inner:i in
  (* Test 1's ordering at equal cardinality: TM < HJ < SM ~ TJ, NL last *)
  Alcotest.(check bool) "tree merge cheapest" true (tm < hj && tm < tj && tm < sm);
  Alcotest.(check bool) "hash join beats tree join at scale" true (hj < tj);
  Alcotest.(check bool) "nested loops worst" true
    (nl > hj && nl > tj && nl > tm && nl > sm);
  (* k constraint from the paper: 2 < k << log2 30000 (~14.9) *)
  Alcotest.(check bool) "k in the paper's band" true
    (Optimizer.Cost.hash_lookup_k > 2.0 && Optimizer.Cost.hash_lookup_k < 14.9);
  (* Test 3's crossover: small outer favours tree join, large favours hash *)
  Alcotest.(check bool) "tree join wins for small outer" true
    (Optimizer.Cost.tree_join ~outer:100 ~inner:30_000
    < Optimizer.Cost.hash_join ~outer:100 ~inner:30_000);
  Alcotest.(check bool) "hash join wins for large outer" true
    (Optimizer.Cost.hash_join ~outer:30_000 ~inner:30_000
    < Optimizer.Cost.tree_join ~outer:30_000 ~inner:30_000);
  (* monotone in cardinality *)
  Alcotest.(check bool) "hash join monotone" true
    (Optimizer.Cost.hash_join ~outer:10 ~inner:10
    < Optimizer.Cost.hash_join ~outer:1000 ~inner:1000)

let test_feasible_methods () =
  let mk n ~tree name =
    Workload.load ~with_ttree:tree ~name (Array.init n (fun i -> i))
  in
  let side rel = { Join.rel; col = Workload.jcol } in
  let no_idx =
    Optimizer.feasible_methods
      ~outer:(side (mk 10 ~tree:false "A"))
      ~inner:(side (mk 10 ~tree:false "B"))
  in
  Alcotest.(check bool) "tree methods excluded" true
    ((not (List.mem Join.Tree_merge no_idx))
    && not (List.mem Join.Tree_join no_idx));
  Alcotest.(check bool) "hash/sort/nl always available" true
    (List.mem Join.Hash_join no_idx
    && List.mem Join.Sort_merge no_idx
    && List.mem Join.Nested_loops no_idx);
  let inner_only =
    Optimizer.feasible_methods
      ~outer:(side (mk 10 ~tree:false "C"))
      ~inner:(side (mk 10 ~tree:true "D"))
  in
  Alcotest.(check bool) "tree join feasible, merge not" true
    (List.mem Join.Tree_join inner_only
    && not (List.mem Join.Tree_merge inner_only));
  let both =
    Optimizer.feasible_methods
      ~outer:(side (mk 10 ~tree:true "E"))
      ~inner:(side (mk 10 ~tree:true "F"))
  in
  Alcotest.(check int) "all five feasible" 5 (List.length both);
  (* every method reads through the relations' read entries, so a
     snapshot rules none out *)
  let was = Version_store.enabled () in
  Version_store.set_enabled true;
  Fun.protect ~finally:(fun () -> Version_store.set_enabled was) @@ fun () ->
  Version_store.with_snapshot (fun _ ->
      Alcotest.(check bool) "snapshot installed" true
        (Version_store.current_snapshot () <> None);
      Alcotest.(check int) "all five feasible under a snapshot" 5
        (List.length
           (Optimizer.feasible_methods
              ~outer:(side (mk 10 ~tree:true "G"))
              ~inner:(side (mk 10 ~tree:true "H")))))

(* --- end-to-end queries --------------------------------------------------------- *)

let test_query1_end_to_end () =
  (* Query 1: name, age, department name for all employees over 65. *)
  let db = employee_fixture () in
  let q =
    Query.(
      from "Employee"
      |> where_gt "Age" (Value.Int 65)
      |> join "Department" ~on:("Dept", "Id")
      |> project [ "Employee.Name"; "Employee.Age"; "Department.Name" ])
  in
  let plan = Optimizer.plan db q in
  (* the optimizer must pick the precomputed join *)
  (match plan.Optimizer.p_join with
  | Some (Optimizer.Precomputed _, _, _) -> ()
  | _ -> Alcotest.fail "expected precomputed join in plan");
  let out = Executor.execute plan in
  Alcotest.(check int) "one employee over 65" 1 (Temp_list.length out);
  match Temp_list.materialize out with
  | [ [| name; age; dept |] ] ->
      Alcotest.(check bool) "Hank" true (name = Value.Str "Hank");
      Alcotest.(check bool) "age 70" true (age = Value.Int 70);
      Alcotest.(check bool) "Shoe" true (dept = Value.Str "Shoe")
  | _ -> Alcotest.fail "unexpected result shape"

let test_query_select_only () =
  let db = employee_fixture () in
  let q =
    Query.(
      from "Employee"
      |> where_between "Age" ~lo:(Value.Int 25) ~hi:(Value.Int 50)
      |> project [ "Employee.Name" ])
  in
  let out = Executor.query db q in
  (* ages 27 (Suzan) and 47 (Jane) fall in [25, 50] *)
  Alcotest.(check int) "two employees 25..50" 2 (Temp_list.length out)

let test_query_distinct () =
  let db = employee_fixture () in
  let q =
    Query.(
      from "Employee"
      |> join "Department" ~on:("Dept", "Id")
      |> project [ "Department.Name" ]
      |> distinct)
  in
  let out = Executor.query db q in
  (* six employees but only three distinct departments employ them *)
  Alcotest.(check int) "distinct departments" 3 (Temp_list.length out)

let test_query_predicate_reordering () =
  (* the indexable predicate should lead even when written second *)
  let db = employee_fixture () in
  let emp = Db.find_exn db "Employee" in
  (match
     Relation.create_index emp ~idx_name:"by_age" ~columns:[| 2 |]
       ~structure:Relation.Mod_linear_hash
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let q =
    Query.(
      from "Employee"
      (* unindexable filter written first... *)
      |> where_between "Id" ~lo:(Value.Int 0) ~hi:(Value.Int 100)
      (* ...exact-match on a hash-indexed column second *)
      |> where_eq "Age" (Value.Int 24))
  in
  let plan = Optimizer.plan db q in
  (match plan.Optimizer.p_paths with
  | (Select.Hash_lookup "by_age", _) :: _ -> ()
  | (p, _) :: _ -> Alcotest.failf "expected hash lookup to lead, got %a" Select.pp_path p
  | [] -> Alcotest.fail "no paths");
  let out = Executor.execute plan in
  Alcotest.(check int) "one 24-year-old" 1 (Temp_list.length out)

let test_query_forced_method () =
  let db = employee_fixture () in
  let q ~force =
    Query.(
      from "Employee"
      |> join ?force "Department" ~on:("Dept", "Id")
      |> project [ "Employee.Name"; "Department.Name" ])
  in
  let base =
    List.sort compare (Executor.rows (Executor.query db (q ~force:None)))
  in
  (* hash join must agree with the precomputed default — note the forced
     method compares on pointer values in the Dept column vs Id... the
     pointer column does not equal the Id column, so force through
     Nested_loops on matching columns is not applicable here; instead force
     Hash_join on a self-consistent query *)
  ignore base;
  let q2 =
    Query.(
      from "Employee"
      |> join ~force:Join.Hash_join "Department" ~on:("Dept", "Id"))
  in
  (* Dept holds pointers, Id holds ints: no pairs can match *)
  let out = Executor.query db q2 in
  Alcotest.(check int) "pointer-vs-int equijoin is empty" 0
    (Temp_list.length out)

let () =
  Alcotest.run "mmdb_core"
    [
      ( "workload",
        [
          Alcotest.test_case "cardinality" `Quick test_workload_cardinality;
          Alcotest.test_case "duplicate percentage" `Quick
            test_workload_duplicates;
          Alcotest.test_case "skew shapes (Graph 3)" `Quick
            test_workload_skew_shapes;
          Alcotest.test_case "semijoin selectivity" `Quick
            test_workload_semijoin_selectivity;
          Alcotest.test_case "load into relation" `Quick test_workload_load;
        ] );
      ( "select",
        [
          Alcotest.test_case "paths agree" `Quick test_select_paths_agree;
          Alcotest.test_case "best path ordering (§4)" `Quick
            test_select_best_path_ordering;
          Alcotest.test_case "range + residual predicates" `Quick
            test_select_range_and_residual;
        ] );
      ( "join",
        [
          Alcotest.test_case "methods agree (fixed)" `Quick
            test_join_methods_agree_simple;
          QCheck_alcotest.to_alcotest join_equivalence_property;
          Alcotest.test_case "tree methods need indexes" `Quick
            test_tree_join_requires_index;
          Alcotest.test_case "outer filter pushdown" `Quick
            test_join_outer_filter;
          Alcotest.test_case "inequality joins (§3.3.5)" `Quick
            test_inequality_join;
          QCheck_alcotest.to_alcotest inequality_join_property;
          Alcotest.test_case "lookup_from" `Quick test_lookup_from;
          Alcotest.test_case "operation counts match §3.3.4 formulas" `Quick
            test_join_operation_counts;
        ] );
      ( "pointer joins",
        [
          Alcotest.test_case "FK substitution" `Quick
            test_foreign_key_substitution;
          Alcotest.test_case "precomputed join (Query 1)" `Quick
            test_precomputed_join;
          Alcotest.test_case "pointer join (Query 2)" `Quick
            test_pointer_join_query2;
          Alcotest.test_case "one-to-many link/unlink" `Quick
            test_refs_link_unlink;
        ] );
      ( "project",
        [
          Alcotest.test_case "methods agree" `Quick
            test_projection_methods_agree;
          QCheck_alcotest.to_alcotest projection_equivalence_property;
        ] );
      ( "aggregate",
        [
          Alcotest.test_case "whole-input aggregates" `Quick
            test_aggregate_basic;
          Alcotest.test_case "group by over a join" `Quick
            test_aggregate_group_by;
          Alcotest.test_case "edge cases" `Quick test_aggregate_edge_cases;
        ] );
      ( "optimizer",
        [
          Alcotest.test_case "precomputed preferred" `Quick
            test_optimizer_prefers_precomputed;
          Alcotest.test_case "join method rules" `Quick
            test_optimizer_join_rules;
          Alcotest.test_case "cost formulas (§3.3.4)" `Quick
            test_cost_formulas;
          Alcotest.test_case "feasible methods" `Quick test_feasible_methods;
        ] );
      ( "executor",
        [
          Alcotest.test_case "Query 1 end-to-end" `Quick
            test_query1_end_to_end;
          Alcotest.test_case "select-only query" `Quick test_query_select_only;
          Alcotest.test_case "distinct" `Quick test_query_distinct;
          Alcotest.test_case "forced join method" `Quick
            test_query_forced_method;
          Alcotest.test_case "predicate reordering" `Quick
            test_query_predicate_reordering;
        ] );
    ]
