(* Cost-based planner, column statistics, and the index advisor.

   Covers the regression for catch-all feedback poisoning (the 257th
   shape must never inherit the overflow bucket's average), the
   column-statistics estimators (distinct within linear-counting
   tolerance, min/max tracking updates and deletes, MVCC-snapshot
   consistency), cost-vs-rule planner equivalence on identical result
   multisets, EXPLAIN naming the planner and the losing candidates,
   golden EXPLAIN text for both planners, and the advisor's create / drop / snapshot-guard / lost-index behaviors. *)

open Mmdb_storage
open Mmdb_core
module Histogram = Mmdb_util.Histogram

let with_planner cost f =
  let was = Optimizer.cost_based () in
  Optimizer.set_cost_based cost;
  Fun.protect ~finally:(fun () -> Optimizer.set_cost_based was) f

let with_mvcc f =
  let was = Version_store.enabled () in
  Version_store.set_enabled true;
  Fun.protect ~finally:(fun () -> Version_store.set_enabled was) f

(* --- feedback: catch-all poisoning regression --------------------------- *)

(* The overflow bucket aggregates arbitrary unrelated shapes; before the
   fix, [estimate] answered for it like any other key, so every shape
   past the 256-key cap inherited one blended average. *)
let test_overflow_estimate_poisoning () =
  Feedback.reset ();
  (* fill the table: 256 distinct warm shapes, each honestly at 10 rows *)
  for i = 1 to 256 do
    for _ = 1 to 3 do
      Feedback.observe ~key:(Printf.sprintf "shape-%d" i) ~est:10 ~actual:10
    done
  done;
  (* shape 257 folds into the catch-all with a wildly different actual *)
  for _ = 1 to 5 do
    Feedback.observe ~key:"shape-257" ~est:10 ~actual:100_000
  done;
  Alcotest.(check bool) "overflow bucket exists" true
    (List.exists
       (fun (e : Feedback.entry) -> String.equal e.fb_key Feedback.overflow_key)
       (Feedback.entries ()));
  (* the catch-all never answers: neither for itself... *)
  Alcotest.(check (option int)) "no estimate from the catch-all" None
    (Feedback.estimate ~key:Feedback.overflow_key);
  (* ...nor for the folded shape, which has no entry of its own *)
  Alcotest.(check (option int)) "folded shape gets no estimate" None
    (Feedback.estimate ~key:"shape-257");
  (* real per-shape entries still answer *)
  Alcotest.(check (option int)) "warm shape still answers" (Some 10)
    (Feedback.estimate ~key:"shape-1");
  Feedback.reset ()

(* --- column statistics --------------------------------------------------- *)

let kv_schema name =
  Schema.make ~name
    [ Schema.col ~ty:Schema.T_int "K"; Schema.col ~ty:Schema.T_int "V" ]

let mk_kv ?(name = "KV") () =
  Relation.create ~schema:(kv_schema name)
    ~primary:
      {
        Relation.idx_name = name ^ "_pk";
        columns = [| 0 |];
        unique = true;
        structure = Relation.T_tree;
      }
    ()

let ins r k v =
  match Relation.insert r [| Value.Int k; Value.Int v |] with
  | Ok t -> t
  | Error e -> Alcotest.fail e

let test_stats_distinct_estimate () =
  Column_stats.reset ();
  let r = mk_kv () in
  (* 2000 rows, exactly 100 distinct values in V *)
  for k = 0 to 1999 do
    ignore (ins r k (k mod 100))
  done;
  let s = Column_stats.analyze r ~col:1 in
  Alcotest.(check int) "rows" 2000 s.Column_stats.cs_rows;
  let d = s.Column_stats.cs_distinct in
  if d < 80 || d > 120 then
    Alcotest.failf "distinct estimate %d outside [80, 120] for truth 100" d;
  (* the equality estimate is rows/distinct, never below 1 *)
  let eq = Column_stats.est_eq s in
  if eq < 15 || eq > 25 then
    Alcotest.failf "eq estimate %d outside [15, 25] for truth 20" eq;
  (* a unique column estimates ~1 row per equality probe *)
  let sk = Column_stats.analyze r ~col:0 in
  let eqk = Column_stats.est_eq sk in
  if eqk < 1 || eqk > 3 then
    Alcotest.failf "unique-column eq estimate %d outside [1, 3]" eqk

let test_stats_minmax_updates_deletes () =
  Column_stats.reset ();
  let r = mk_kv () in
  for k = 1 to 100 do
    ignore (ins r k (k * 10))
  done;
  let s = Column_stats.analyze r ~col:1 in
  Alcotest.(check (float 1e-9)) "min" 10.0 s.Column_stats.cs_min;
  Alcotest.(check (float 1e-9)) "max" 1000.0 s.Column_stats.cs_max;
  (* shrink the domain: delete the top half, push one value below the
     min (collect first — deleting during the scan would skip tuples) *)
  let victims = ref [] in
  Relation.iter r (fun t ->
      match Tuple.get t 1 with
      | Value.Int v when v > 500 -> victims := t :: !victims
      | _ -> ());
  List.iter (fun t -> ignore (Relation.delete_tuple r t)) !victims;
  (match Relation.lookup_one r [| Value.Int 1 |] with
  | Some t -> (
      match Relation.update_field r t 1 (Value.Int 3) with
      | Ok () -> ()
      | Error e -> Alcotest.fail e)
  | None -> Alcotest.fail "key 1 vanished");
  Column_stats.invalidate r;
  let s' = Column_stats.stats_for r ~col:1 in
  Alcotest.(check int) "rows after deletes" 50 s'.Column_stats.cs_rows;
  Alcotest.(check (float 1e-9)) "min after update" 3.0 s'.Column_stats.cs_min;
  Alcotest.(check (float 1e-9)) "max after deletes" 500.0 s'.Column_stats.cs_max;
  (* range estimates follow: everything sits at/below 500 now *)
  let all = Column_stats.est_range s' ~lo:0.0 ~hi:1000.0 in
  if all < 25 || all > 50 then
    Alcotest.failf "range-all estimate %d outside [25, 50] of 50 rows" all;
  Alcotest.(check int) "range outside domain" 1
    (Column_stats.est_range s' ~lo:2000.0 ~hi:3000.0)

(* A stats scan under an MVCC snapshot must describe the snapshot's
   rows, not concurrent committed writes: analyze runs through the same
   diverted Relation.iter as any reader. *)
let test_stats_snapshot_consistency () =
  with_mvcc @@ fun () ->
  Column_stats.reset ();
  let r = mk_kv () in
  for k = 1 to 64 do
    ignore (ins r k k)
  done;
  Version_store.with_snapshot (fun _ ->
      let inside = Column_stats.analyze r ~col:1 in
      Alcotest.(check int) "snapshot rows" 64 inside.Column_stats.cs_rows;
      Alcotest.(check (float 1e-9)) "snapshot max" 64.0
        inside.Column_stats.cs_max;
      (* a concurrent writer (fresh domain: fresh DLS, no snapshot)
         commits new rows mid-statement *)
      let d =
        Domain.spawn (fun () ->
            Version_store.with_write (fun () ->
                for k = 65 to 128 do
                  ignore (ins r k (k * 100))
                done))
      in
      Domain.join d;
      let again = Column_stats.analyze r ~col:1 in
      Alcotest.(check int) "repeatable rows under snapshot" 64
        again.Column_stats.cs_rows;
      Alcotest.(check (float 1e-9)) "repeatable max under snapshot" 64.0
        again.Column_stats.cs_max);
  (* snapshot released: the full state shows *)
  let after = Column_stats.analyze r ~col:1 in
  Alcotest.(check int) "live rows" 128 after.Column_stats.cs_rows;
  Alcotest.(check (float 1e-9)) "live max" 12800.0 after.Column_stats.cs_max

(* --- cost-based planning ------------------------------------------------- *)

let planner_fixture () =
  let db = Db.create () in
  let dept_schema =
    Schema.make ~name:"Department"
      [ Schema.col ~ty:Schema.T_string "Name"; Schema.col ~ty:Schema.T_int "Id" ]
  in
  let _ = Db.create_relation db ~schema:dept_schema ~primary_key:"Id" in
  for i = 1 to 40 do
    match
      Db.insert db ~rel:"Department"
        [| Value.Str (Printf.sprintf "D%d" i); Value.Int i |]
    with
    | Ok _ -> ()
    | Error e -> Alcotest.fail e
  done;
  let emp_schema =
    Schema.make ~name:"Employee"
      [
        Schema.col ~ty:Schema.T_string "Name";
        Schema.col ~ty:Schema.T_int "Id";
        Schema.col ~ty:Schema.T_int "Age";
        Schema.col ~ty:Schema.T_int "DeptId";
      ]
  in
  let _ = Db.create_relation db ~schema:emp_schema ~primary_key:"Id" in
  for i = 1 to 400 do
    match
      Db.insert db ~rel:"Employee"
        [|
          Value.Str (Printf.sprintf "E%d" i);
          Value.Int i;
          Value.Int (20 + (i mod 50));
          Value.Int (1 + (i mod 40));
        |]
    with
    | Ok _ -> ()
    | Error e -> Alcotest.fail e
  done;
  let emp = Db.find_exn db "Employee" in
  (match
     Relation.create_index emp ~idx_name:"by_age" ~columns:[| 2 |]
       ~structure:Relation.Mod_linear_hash
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  db

let sorted_rows db q = List.sort compare (Executor.rows (Executor.query db q))

let equivalence_queries =
  [
    ( "eq select",
      Query.(from "Employee" |> where_eq "Age" (Value.Int 33)) );
    ( "range select",
      Query.(
        from "Employee"
        |> where_between "Age" ~lo:(Value.Int 25) ~hi:(Value.Int 30)) );
    ( "filtered join",
      Query.(
        from "Employee"
        |> where_between "Id" ~lo:(Value.Int 1) ~hi:(Value.Int 50)
        |> join "Department" ~on:("DeptId", "Id")
        |> project [ "Employee.Name"; "Department.Name" ]) );
    ( "unfiltered join distinct",
      Query.(
        from "Employee"
        |> join "Department" ~on:("DeptId", "Id")
        |> project [ "Department.Name" ]
        |> distinct) );
  ]

(* Both planners must produce identical result multisets for every
   query shape: cost-based planning may pick different paths and
   methods, never different answers. *)
let test_planner_equivalence () =
  Column_stats.reset ();
  Feedback.reset ();
  let db = planner_fixture () in
  List.iter
    (fun (label, q) ->
      let rule = with_planner false (fun () -> sorted_rows db q) in
      let cost = with_planner true (fun () -> sorted_rows db q) in
      Alcotest.(check (list (list string))) label rule cost)
    equivalence_queries

let test_explain_names_planner_and_candidates () =
  Column_stats.reset ();
  Feedback.reset ();
  let db = planner_fixture () in
  let q =
    Query.(
      from "Employee"
      |> where_eq "Age" (Value.Int 33)
      |> join "Department" ~on:("DeptId", "Id"))
  in
  let contains needle hay =
    let n = String.length needle and m = String.length hay in
    let rec go i = i + n <= m && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  with_planner true (fun () ->
      let plan = Optimizer.plan db q in
      Alcotest.(check string) "cost planner named" "cost-based"
        plan.Optimizer.p_planner;
      let text = Fmt.str "%a" Optimizer.pp_plan plan in
      Alcotest.(check bool) "EXPLAIN names the planner" true
        (contains "planner: cost-based" text);
      (* the losing candidates show with their costs *)
      Alcotest.(check bool) "access candidates compared" true
        (List.length plan.Optimizer.p_sel_cands >= 2);
      Alcotest.(check bool) "join candidates compared" true
        (List.length plan.Optimizer.p_join_cands >= 2);
      Alcotest.(check bool) "EXPLAIN lists join candidates" true
        (contains "join candidates:" text);
      (* candidate lists are cost-sorted ascending *)
      let ascending l =
        let costs = List.map snd l in
        List.sort compare costs = costs
      in
      Alcotest.(check bool) "access candidates sorted" true
        (ascending plan.Optimizer.p_sel_cands);
      Alcotest.(check bool) "join candidates sorted" true
        (ascending plan.Optimizer.p_join_cands));
  with_planner false (fun () ->
      let plan = Optimizer.plan db q in
      Alcotest.(check string) "rule planner named" "rule-based"
        plan.Optimizer.p_planner;
      let text = Fmt.str "%a" Optimizer.pp_plan plan in
      Alcotest.(check bool) "EXPLAIN names the rule planner" true
        (contains "planner: rule-based" text))

(* The cost planner must prefer the selective hash index over a scan
   (its candidate list proving the scan was costed and lost), and price
   a join at the filtered outer: one Department row makes Nested Loops
   cheapest, where the rule planner's raw 40 rows make it Hash Join. *)
let test_cost_picks_index_by_cost () =
  Column_stats.reset ();
  Feedback.reset ();
  let db = planner_fixture () in
  with_planner true @@ fun () ->
  let q = Query.(from "Employee" |> where_eq "Age" (Value.Int 33)) in
  let plan = Optimizer.plan db q in
  (match plan.Optimizer.p_paths with
  | (Select.Hash_lookup "by_age", _) :: _ -> ()
  | (p, _) :: _ ->
      Alcotest.failf "expected by_age hash lookup, got %a" Select.pp_path p
  | [] -> Alcotest.fail "no paths");
  Alcotest.(check bool) "scan was a losing candidate" true
    (List.mem_assoc Select.Sequential_scan plan.Optimizer.p_sel_cands);
  let qj =
    Query.(
      from "Department"
      |> where_eq "Id" (Value.Int 7)
      |> join "Employee" ~on:("Id", "DeptId"))
  in
  let method_ () =
    match (Optimizer.plan db qj).Optimizer.p_join with
    | Some (choice, _, _) -> Fmt.str "%a" Optimizer.pp_choice choice
    | None -> Alcotest.fail "join expected"
  in
  Alcotest.(check string) "cost: priced at the filtered outer" "Nested Loops"
    (method_ ());
  Alcotest.(check string) "rule: priced at the raw outer" "Hash Join"
    (with_planner false method_);
  (* and the results agree *)
  let cost_rows = sorted_rows db qj in
  let rule_rows = with_planner false (fun () -> sorted_rows db qj) in
  Alcotest.(check (list (list string))) "same rows" rule_rows cost_rows

(* EXPLAIN for each query shape under both planners, pinned as text at
   a fixed batch size with cold feedback and statistics. *)
let golden_explain =
  [
    ( "eq select",
      [
        "planner: cost-based";
        "outer: Employee";
        "execution: batch size 256";
        "access: hash lookup via by_age";
        "access candidates: hash lookup via by_age=10, sequential scan=800";
        "est. rows: 8";
      ],
      [
        "planner: rule-based";
        "outer: Employee";
        "execution: batch size 256";
        "access: hash lookup via by_age";
        "est. rows: 40";
      ] );
    ( "range select",
      [
        "planner: cost-based";
        "outer: Employee";
        "execution: batch size 256";
        "access: sequential scan";
        "est. rows: 96";
      ],
      [
        "planner: rule-based";
        "outer: Employee";
        "execution: batch size 256";
        "access: sequential scan";
        "est. rows: 100";
      ] );
    ( "filtered join",
      [
        "planner: cost-based";
        "outer: Employee";
        "execution: batch size 256";
        "access: tree lookup via pk";
        "access candidates: tree lookup via pk=59, sequential scan=800";
        "est. rows: 50";
        "join with Department: Hash Join (est. 255 comparison units, est. 50 \
         rows)";
        "join candidates: Hash Join=255, Tree Join=316, Sort Merge=585, \
         Nested Loops=2000";
        "project: Employee.Name, Department.Name";
      ],
      [
        "planner: rule-based";
        "outer: Employee";
        "execution: batch size 256";
        "access: tree lookup via pk";
        "est. rows: 100";
        "join with Department: Hash Join (est. 1480 comparison units, est. \
         100 rows)";
        "join candidates: Hash Join=1480, Tree Join=2529, Sort Merge=4110, \
         Nested Loops=16000";
        "project: Employee.Name, Department.Name";
      ] );
    ( "unfiltered join distinct",
      [
        "planner: cost-based";
        "outer: Employee";
        "execution: batch size 256";
        "est. rows: 400";
        "join with Department: Hash Join (est. 1480 comparison units, est. \
         400 rows)";
        "join candidates: Hash Join=1480, Tree Join=2529, Sort Merge=4110, \
         Nested Loops=16000";
        "project: Department.Name";
        "distinct via Hash";
      ],
      [
        "planner: rule-based";
        "outer: Employee";
        "execution: batch size 256";
        "est. rows: 400";
        "join with Department: Hash Join (est. 1480 comparison units, est. \
         400 rows)";
        "join candidates: Hash Join=1480, Tree Join=2529, Sort Merge=4110, \
         Nested Loops=16000";
        "project: Department.Name";
        "distinct via Hash";
      ] );
    ( "department-employee join",
      [
        "planner: cost-based";
        "outer: Department";
        "execution: batch size 256";
        "access: tree lookup via pk";
        "access candidates: tree lookup via pk=6, sequential scan=80";
        "est. rows: 1";
        "join with Employee: Nested Loops (est. 400 comparison units, est. 10 \
         rows)";
        "join candidates: Nested Loops=400, Hash Join=804, Sort Merge=3860";
      ],
      [
        "planner: rule-based";
        "outer: Department";
        "execution: batch size 256";
        "access: tree lookup via pk";
        "est. rows: 4";
        "join with Employee: Hash Join (est. 940 comparison units, est. 40 \
         rows)";
        "join candidates: Hash Join=940, Sort Merge=4110, Nested Loops=16000";
      ] );
  ]

let test_golden_explain () =
  let saved = Batch.size () in
  Batch.set_size 256;
  Fun.protect ~finally:(fun () -> Batch.set_size saved) @@ fun () ->
  Column_stats.reset ();
  Feedback.reset ();
  let db = planner_fixture () in
  let queries =
    equivalence_queries
    @ [
        ( "department-employee join",
          Query.(
            from "Department"
            |> where_eq "Id" (Value.Int 7)
            |> join "Employee" ~on:("Id", "DeptId")) );
      ]
  in
  List.iter
    (fun (label, cost, rule) ->
      let q = List.assoc label queries in
      let explain planner =
        with_planner planner (fun () ->
            String.split_on_char '\n'
              (String.trim (Fmt.str "%a" Optimizer.pp_plan (Optimizer.plan db q))))
      in
      Alcotest.(check (list string)) (label ^ ", cost-based") cost (explain true);
      Alcotest.(check (list string)) (label ^ ", rule-based") rule (explain false))
    golden_explain

(* --- index advisor -------------------------------------------------------- *)

let advisor_fixture () =
  Feedback.reset ();
  Advisor.reset ();
  Column_stats.reset ();
  let db = Db.create () in
  let schema =
    Schema.make ~name:"Hot"
      [
        Schema.col ~ty:Schema.T_int "Id";
        Schema.col ~ty:Schema.T_int "Grp";
        Schema.col ~ty:Schema.T_int "Load";
      ]
  in
  let _ = Db.create_relation db ~schema ~primary_key:"Id" in
  for i = 1 to 500 do
    match
      Db.insert db ~rel:"Hot"
        [| Value.Int i; Value.Int (i mod 50); Value.Int (i mod 7) |]
    with
    | Ok _ -> ()
    | Error e -> Alcotest.fail e
  done;
  db

let drive_scans db ~n col v =
  let q = Query.(from "Hot" |> where_eq col (Value.Int v)) in
  for _ = 1 to n do
    ignore (Executor.query db q)
  done

let test_advisor_creates_and_uses_index () =
  let db = advisor_fixture () in
  with_planner true @@ fun () ->
  let hot = Db.find_exn db "Hot" in
  drive_scans db ~n:20 "Grp" 7;
  let actions = Advisor.run db in
  (match actions with
  | [ Advisor.Created ("Hot", idx, _) ] ->
      Alcotest.(check string) "advisor naming" "adv_Hot_Grp" idx;
      Alcotest.(check bool) "index exists" true
        (Relation.find_index hot idx <> None)
  | l ->
      Alcotest.failf "expected one create, got [%s]"
        (String.concat "; " (List.map (Fmt.str "%a" Advisor.pp_action) l)));
  let st = Advisor.stats () in
  Alcotest.(check int) "created counted" 1 st.Advisor.adv_created;
  Alcotest.(check int) "one active" 1 (List.length st.Advisor.adv_active);
  (* the planner now routes the scan shape through the new index... *)
  let q = Query.(from "Hot" |> where_eq "Grp" (Value.Int 7)) in
  let plan = Optimizer.plan db q in
  (match plan.Optimizer.p_paths with
  | (Select.Hash_lookup idx, _) :: _ ->
      Alcotest.(check string) "planner uses the advisor index" "adv_Hot_Grp" idx
  | (p, _) :: _ -> Alcotest.failf "expected hash lookup, got %a" Select.pp_path p
  | [] -> Alcotest.fail "no paths");
  (* ...with identical results, and the relation still validates *)
  Alcotest.(check int) "same answer through the index" 10
    (Temp_list.length (Executor.query db q));
  Alcotest.(check bool) "relation validates with advisor index" true
    (Relation.validate hot = Ok ());
  (* a second run with no new observations creates nothing further *)
  Alcotest.(check int) "idempotent without new scans" 0
    (List.length (Advisor.run db))

let test_advisor_range_gets_ordered_index () =
  let db = advisor_fixture () in
  with_planner true @@ fun () ->
  let q =
    Query.(
      from "Hot" |> where_between "Load" ~lo:(Value.Int 2) ~hi:(Value.Int 4))
  in
  for _ = 1 to 20 do
    ignore (Executor.query db q)
  done;
  match Advisor.run db with
  | [ Advisor.Created ("Hot", "adv_Hot_Load", structure) ] ->
      (* range shapes call for an ordered structure *)
      Alcotest.(check string) "ordered structure for ranges" "t_tree" structure
  | l ->
      Alcotest.failf "expected one t_tree create, got [%s]"
        (String.concat "; " (List.map (Fmt.str "%a" Advisor.pp_action) l))

let test_advisor_drops_stale_index () =
  let db = advisor_fixture () in
  with_planner true @@ fun () ->
  let hot = Db.find_exn db "Hot" in
  drive_scans db ~n:20 "Grp" 7;
  (match Advisor.run db with
  | [ Advisor.Created _ ] -> ()
  | _ -> Alcotest.fail "setup: create expected");
  (* the workload drifts: writes keep landing, reads stop entirely *)
  for round = 1 to 2 do
    for i = 1 to 50 do
      match
        Db.insert db ~rel:"Hot"
          [|
            Value.Int (1000 + (round * 100) + i);
            Value.Int (i mod 50);
            Value.Int 0;
          |]
      with
      | Ok _ -> Advisor.note_write ~rel:"Hot" ()
      | Error e -> Alcotest.fail e
    done;
    ignore (Advisor.run db)
  done;
  (* two unused runs while writes accrued: the index must be gone *)
  Alcotest.(check bool) "advisor index dropped" true
    (Relation.find_index hot "adv_Hot_Grp" = None);
  let st = Advisor.stats () in
  Alcotest.(check int) "drop counted" 1 st.Advisor.adv_dropped;
  Alcotest.(check int) "nothing active" 0 (List.length st.Advisor.adv_active);
  (* queries on the dropped shape still answer via scan: 10 original
     Grp=7 rows plus one per drift round (i = 7 in each batch of 50) *)
  Alcotest.(check int) "scan fallback answers" 12
    (Temp_list.length
       (Executor.query db Query.(from "Hot" |> where_eq "Grp" (Value.Int 7))))

let test_advisor_snapshot_guard () =
  with_mvcc @@ fun () ->
  let db = advisor_fixture () in
  with_planner true @@ fun () ->
  drive_scans db ~n:20 "Grp" 7;
  (* under a snapshot the run must refuse: an index built from the
     diverted scan would miss concurrently-live tuples *)
  Version_store.with_snapshot (fun _ ->
      Alcotest.(check int) "no-op under snapshot" 0
        (List.length (Advisor.run db)));
  Alcotest.(check int) "guarded run took no action" 0
    (List.length (Advisor.stats ()).Advisor.adv_active);
  (* outside the snapshot the same pending window applies cleanly *)
  match Advisor.run db with
  | [ Advisor.Created ("Hot", "adv_Hot_Grp", _) ] -> ()
  | l ->
      Alcotest.failf "expected the deferred create, got [%s]"
        (String.concat "; " (List.map (Fmt.str "%a" Advisor.pp_action) l))

(* Recovery replay rebuilds relations without advisor indices; the next
   run must notice the loss, forget the ownership, and carry on instead
   of failing or double-dropping. *)
let test_advisor_survives_lost_index () =
  let db = advisor_fixture () in
  with_planner true @@ fun () ->
  let hot = Db.find_exn db "Hot" in
  drive_scans db ~n:20 "Grp" 7;
  (match Advisor.run db with
  | [ Advisor.Created _ ] -> ()
  | _ -> Alcotest.fail "setup: create expected");
  (* simulate recovery: the in-memory index vanishes out from under the
     advisor's ownership list *)
  (match Relation.drop_index hot ~idx_name:"adv_Hot_Grp" with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Advisor.note_write ~rel:"Hot" ();
  ignore (Advisor.run db);
  let st = Advisor.stats () in
  Alcotest.(check int) "ownership forgotten" 0
    (List.length st.Advisor.adv_active);
  Alcotest.(check int) "no phantom drop counted" 0 st.Advisor.adv_dropped;
  (* and the executor degrades a stale planned path to a scan *)
  let q = Query.(from "Hot" |> where_eq "Grp" (Value.Int 7)) in
  Alcotest.(check int) "query still answers" 10
    (Temp_list.length (Executor.query db q))

let () =
  Alcotest.run "mmdb_planner"
    [
      ( "feedback",
        [
          Alcotest.test_case "catch-all never poisons estimates" `Quick
            test_overflow_estimate_poisoning;
        ] );
      ( "column_stats",
        [
          Alcotest.test_case "distinct within tolerance" `Quick
            test_stats_distinct_estimate;
          Alcotest.test_case "min/max track updates and deletes" `Quick
            test_stats_minmax_updates_deletes;
          Alcotest.test_case "snapshot consistency" `Quick
            test_stats_snapshot_consistency;
        ] );
      ( "cost_planner",
        [
          Alcotest.test_case "cost = rule result multisets" `Quick
            test_planner_equivalence;
          Alcotest.test_case "EXPLAIN names planner and candidates" `Quick
            test_explain_names_planner_and_candidates;
          Alcotest.test_case "picks index and join method by cost" `Quick
            test_cost_picks_index_by_cost;
          Alcotest.test_case "golden EXPLAIN, both planners" `Quick
            test_golden_explain;
        ] );
      ( "advisor",
        [
          Alcotest.test_case "creates and uses an index" `Quick
            test_advisor_creates_and_uses_index;
          Alcotest.test_case "range workload gets t_tree" `Quick
            test_advisor_range_gets_ordered_index;
          Alcotest.test_case "drops a stale index" `Quick
            test_advisor_drops_stale_index;
          Alcotest.test_case "refuses under a snapshot" `Quick
            test_advisor_snapshot_guard;
          Alcotest.test_case "survives a lost index" `Quick
            test_advisor_survives_lost_index;
        ] );
    ]
