(* Tests for the query-language front end: lexer, parser, interpreter. *)

open Mmdb_lang

(* --- lexer ------------------------------------------------------------ *)

let test_lexer_basics () =
  let toks = Lexer.tokenize "SELECT * FROM t WHERE a = 42;" in
  Alcotest.(check int) "token count" 10 (List.length toks);
  (match toks with
  | Lexer.Ident "SELECT" :: Lexer.Star :: Lexer.Ident "FROM" :: _ -> ()
  | _ -> Alcotest.fail "unexpected token stream");
  match List.rev toks with
  | Lexer.Eof :: Lexer.Semicolon :: Lexer.Int 42 :: _ -> ()
  | _ -> Alcotest.fail "unexpected tail"

let test_lexer_strings_and_numbers () =
  (match Lexer.tokenize "'it''s' 3.5 -7" with
  | [ Lexer.String "it's"; Lexer.Float 3.5; Lexer.Int (-7); Lexer.Eof ] -> ()
  | _ -> Alcotest.fail "literal lexing");
  (* comments are skipped *)
  match Lexer.tokenize "a -- trailing comment\nb" with
  | [ Lexer.Ident "a"; Lexer.Ident "b"; Lexer.Eof ] -> ()
  | _ -> Alcotest.fail "comment handling"

let test_lexer_errors () =
  (try
     ignore (Lexer.tokenize "'unterminated");
     Alcotest.fail "unterminated string accepted"
   with Lexer.Error _ -> ());
  (* '?' is a placeholder token since the wire protocol's PREPARE *)
  (match Lexer.tokenize "a ? b" with
  | [ Lexer.Ident "a"; Lexer.Qmark; Lexer.Ident "b"; Lexer.Eof ] -> ()
  | _ -> Alcotest.fail "placeholder lexing");
  try
    ignore (Lexer.tokenize "a @ b");
    Alcotest.fail "bad character accepted"
  with Lexer.Error _ -> ()

(* --- parser ------------------------------------------------------------ *)

let parse_one input =
  match Parser.parse input with
  | Ok [ s ] -> s
  | Ok l -> Alcotest.failf "expected one statement, got %d" (List.length l)
  | Error msg -> Alcotest.fail msg

let test_parse_create_table () =
  match parse_one
          "CREATE TABLE Emp (Name string, Id int PRIMARY KEY, D ref Dept);"
  with
  | Ast.Create_table { name = "Emp"; columns = [ n; id; d ] } ->
      Alcotest.(check string) "col1" "Name" n.Ast.cd_name;
      Alcotest.(check bool) "pk" true id.Ast.cd_primary;
      (match d.Ast.cd_type with
      | Ast.CT_ref "Dept" -> ()
      | _ -> Alcotest.fail "ref type")
  | _ -> Alcotest.fail "wrong statement"

let test_parse_select_full () =
  match
    parse_one
      "SELECT DISTINCT e.Name, Age FROM Emp JOIN Dept ON D = Id USING \
       tree_merge WHERE Age > 30 AND Id BETWEEN 1 AND 99;"
  with
  | Ast.Select s ->
      Alcotest.(check bool) "distinct" true s.Ast.sel_distinct;
      (match s.Ast.sel_columns with
      | `Items [ Ast.Sel_col "e.Name"; Ast.Sel_col "Age" ] -> ()
      | _ -> Alcotest.fail "columns");
      (match s.Ast.sel_join with
      | Some ("Dept", "D", "Id", Some Ast.JM_tree_merge) -> ()
      | _ -> Alcotest.fail "join clause");
      Alcotest.(check int) "two conditions" 2 (List.length s.Ast.sel_where)
  | _ -> Alcotest.fail "wrong statement"

let test_parse_multiple_statements () =
  match Parser.parse "SHOW TABLES; DESCRIBE t; DELETE FROM t;" with
  | Ok [ Ast.Show_tables; Ast.Describe "t"; Ast.Delete _ ] -> ()
  | Ok _ -> Alcotest.fail "wrong statements"
  | Error e -> Alcotest.fail e

let test_parse_errors () =
  let expect_error input =
    match Parser.parse input with
    | Ok _ -> Alcotest.failf "accepted %S" input
    | Error _ -> ()
  in
  expect_error "SELECT FROM;";
  expect_error "CREATE TABLE t";
  expect_error "INSERT INTO t VALUES (1";
  expect_error "SELECT * FROM t WHERE a ? 3;";
  expect_error "FROB x;";
  expect_error "SELECT * FROM t USING banana;"

(* The wire protocol hands whole payloads to the parser, so degenerate
   inputs — empty strings, bare semicolons, trailing terminators — must
   come back as clean (possibly empty) statement lists, not errors. *)
let test_parse_empty_and_trailing () =
  let expect_stmts input n =
    match Parser.parse input with
    | Ok l -> Alcotest.(check int) (Printf.sprintf "%S" input) n (List.length l)
    | Error e -> Alcotest.failf "%S rejected: %s" input e
  in
  expect_stmts "" 0;
  expect_stmts "   \n\t " 0;
  expect_stmts ";" 0;
  expect_stmts ";;;" 0;
  expect_stmts "-- just a comment\n" 0;
  expect_stmts "SHOW TABLES;;" 1;
  expect_stmts "SHOW TABLES;;;DESCRIBE t;;" 2;
  expect_stmts "SHOW TABLES" 1 (* final semicolon is optional *)

let test_parse_params () =
  (* placeholders number left-to-right, across conditions and values *)
  (match Parser.parse "UPDATE t SET a = ?, b = ? WHERE c = ? AND d > ?;" with
  | Ok [ (Ast.Update { assignments; where_; _ } as stmt) ] ->
      Alcotest.(check int) "param count" 4 (Ast.param_count stmt);
      (match assignments with
      | [ ("a", Ast.L_param 0); ("b", Ast.L_param 1) ] -> ()
      | _ -> Alcotest.fail "assignment params");
      (match where_ with
      | [ Ast.C_eq ("c", Ast.L_param 2); Ast.C_gt ("d", Ast.L_param 3) ] -> ()
      | _ -> Alcotest.fail "where params")
  | Ok _ -> Alcotest.fail "wrong statements"
  | Error e -> Alcotest.fail e);
  let insert =
    match Parser.parse "INSERT INTO t VALUES (?, 'x', ?);" with
    | Ok [ s ] -> s
    | _ -> Alcotest.fail "insert parse"
  in
  (* binding substitutes in placeholder order *)
  (match Ast.substitute_params insert [ Ast.L_int 7; Ast.L_bool true ] with
  | Ok (Ast.Insert { values = [ Ast.L_int 7; Ast.L_string "x"; Ast.L_bool true ]; _ })
    -> ()
  | Ok _ -> Alcotest.fail "wrong substitution"
  | Error e -> Alcotest.fail e);
  (* arity mismatches are typed errors *)
  (match Ast.substitute_params insert [ Ast.L_int 7 ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "too few params accepted");
  match Ast.substitute_params insert [ Ast.L_int 1; Ast.L_int 2; Ast.L_int 3 ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "too many params accepted"

(* --- interpreter --------------------------------------------------------- *)

let fresh_db_with_demo () =
  let db = Interp.session (Mmdb_core.Db.create ()) in
  let script =
    {|
    CREATE TABLE Department (Name string, Id int PRIMARY KEY);
    INSERT INTO Department VALUES ('Toy', 459);
    INSERT INTO Department VALUES ('Shoe', 409);
    CREATE TABLE Employee (Name string, Id int PRIMARY KEY, Age int,
                           Dept ref Department);
    INSERT INTO Employee VALUES ('Dave', 23, 24, 459);
    INSERT INTO Employee VALUES ('Cindy', 22, 22, 409);
    INSERT INTO Employee VALUES ('Hank', 77, 70, 409);
    |}
  in
  match Interp.exec_string db script with
  | Ok _ -> db
  | Error msg -> Alcotest.fail msg

let rows_of db sql =
  match Interp.exec_string db sql with
  | Ok [ Interp.Rows tl ] -> Mmdb_core.Executor.rows tl
  | Ok _ -> Alcotest.fail "expected rows"
  | Error msg -> Alcotest.fail msg

let test_interp_select () =
  let db = fresh_db_with_demo () in
  let rows = rows_of db "SELECT Name FROM Employee WHERE Age > 23;" in
  Alcotest.(check int) "two older employees" 2 (List.length rows);
  let rows = rows_of db "SELECT * FROM Department;" in
  Alcotest.(check int) "two departments" 2 (List.length rows);
  Alcotest.(check int) "all columns" 2 (List.length (List.hd rows))

let test_interp_join () =
  let db = fresh_db_with_demo () in
  let rows =
    rows_of db
      "SELECT Employee.Name, Department.Name FROM Employee JOIN Department \
       ON Dept = Id WHERE Age > 60;"
  in
  Alcotest.(check (list (list string))) "hank in shoe"
    [ [ "\"Hank\""; "\"Shoe\"" ] ]
    rows

let test_interp_distinct_and_unqualified () =
  let db = fresh_db_with_demo () in
  let rows =
    rows_of db
      "SELECT DISTINCT Department.Name FROM Employee JOIN Department ON Dept \
       = Id;"
  in
  Alcotest.(check int) "two distinct departments" 2 (List.length rows)

let test_interp_delete_and_errors () =
  let db = fresh_db_with_demo () in
  (match Interp.exec_string db "DELETE FROM Employee WHERE Age > 60;" with
  | Ok [ Interp.Message m ] ->
      Alcotest.(check string) "one deleted" "1 tuples deleted from Employee" m
  | _ -> Alcotest.fail "delete failed");
  Alcotest.(check int) "two remain" 2
    (List.length (rows_of db "SELECT Id FROM Employee;"));
  (* errors surface as Error, not exceptions *)
  (match Interp.exec_string db "SELECT * FROM Nowhere;" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown relation accepted");
  (match Interp.exec_string db "INSERT INTO Employee VALUES (1);" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "arity violation accepted");
  (match
     Interp.exec_string db "INSERT INTO Employee VALUES ('X', 1, 2, 999);"
   with
  | Error msg ->
      Alcotest.(check bool) "dangling FK mentioned" true
        (String.length msg > 0)
  | Ok _ -> Alcotest.fail "dangling FK accepted");
  match Interp.exec_string db "CREATE TABLE NoKey (a int);" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "table without primary key accepted"

let test_interp_update () =
  let db = fresh_db_with_demo () in
  (match
     Interp.exec_string db "UPDATE Employee SET Age = 25 WHERE Name = 'Dave';"
   with
  | Ok [ Interp.Message m ] ->
      Alcotest.(check string) "one updated" "1 tuples updated in Employee" m
  | Ok _ -> Alcotest.fail "unexpected outcome"
  | Error e -> Alcotest.fail e);
  let rows = rows_of db "SELECT Age FROM Employee WHERE Name = 'Dave';" in
  Alcotest.(check (list (list string))) "age updated" [ [ "25" ] ] rows;
  (* multiple assignments + broad where *)
  (match
     Interp.exec_string db "UPDATE Employee SET Age = 1, Name = 'X' WHERE Age > 0;"
   with
  | Ok [ Interp.Message m ] ->
      Alcotest.(check string) "all updated" "3 tuples updated in Employee" m
  | Ok _ -> Alcotest.fail "unexpected outcome"
  | Error e -> Alcotest.fail e);
  (* uniqueness violation through the primary key surfaces as an error *)
  (match Interp.exec_string db "UPDATE Employee SET Id = 23;" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "pk collision accepted");
  match Interp.exec_string db "UPDATE Employee SET Nope = 1;" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown column accepted"

(* An auto-commit statement is applied whole or not at all: the second
   row's primary-key collision unwinds the first row's change. *)
let test_interp_autocommit_atomic () =
  let sess = Interp.session (Mmdb_core.Db.create ()) in
  (match
     Interp.exec_string sess
       "CREATE TABLE T (K int PRIMARY KEY, V int); INSERT INTO T VALUES (1, \
        10); INSERT INTO T VALUES (2, 20);"
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  (match Interp.exec_string sess "UPDATE T SET K = 9 WHERE V > 0;" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "pk collision accepted");
  Alcotest.(check (list (list string)))
    "both rows unchanged"
    [ [ "1"; "10" ]; [ "2"; "20" ] ]
    (List.sort compare (rows_of sess "SELECT K, V FROM T;"))

let test_parse_aggregates () =
  match
    parse_one
      "SELECT Kind, COUNT(*), AVG(DurationUs) FROM Event GROUP BY Kind;"
  with
  | Ast.Select s ->
      (match s.Ast.sel_columns with
      | `Items
          [
            Ast.Sel_col "Kind";
            Ast.Sel_agg ("count", None);
            Ast.Sel_agg ("avg", Some "DurationUs");
          ] ->
          ()
      | _ -> Alcotest.fail "items");
      Alcotest.(check (list string)) "group by" [ "Kind" ] s.Ast.sel_group_by
  | _ -> Alcotest.fail "wrong statement"

let test_interp_aggregates () =
  let db = fresh_db_with_demo () in
  (* whole-table aggregate *)
  (match Interp.exec_string db "SELECT COUNT(*), AVG(Age) FROM Employee;" with
  | Ok [ Interp.Table r ] -> (
      Alcotest.(check (list string)) "header"
        [ "count(*)"; "avg(Employee.Age)" ]
        r.Mmdb_core.Aggregate.header;
      match r.Mmdb_core.Aggregate.rows with
      | [ [| Mmdb_storage.Value.Int 3; Mmdb_storage.Value.Float avg |] ] ->
          Alcotest.(check (float 0.01)) "avg age" ((24. +. 22. +. 70.) /. 3.) avg
      | _ -> Alcotest.fail "row shape")
  | Ok _ -> Alcotest.fail "expected a table"
  | Error e -> Alcotest.fail e);
  (* grouped aggregate over a join *)
  (match
     Interp.exec_string db
       "SELECT Department.Name, COUNT(*), MAX(Age) FROM Employee JOIN         Department ON Dept = Id GROUP BY Department.Name;"
   with
  | Ok [ Interp.Table r ] ->
      Alcotest.(check int) "two groups" 2
        (List.length r.Mmdb_core.Aggregate.rows)
  | Ok _ -> Alcotest.fail "expected a table"
  | Error e -> Alcotest.fail e);
  (* GROUP BY must match plain columns *)
  (match
     Interp.exec_string db "SELECT Name, COUNT(*) FROM Employee GROUP BY Age;"
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "mismatched GROUP BY accepted");
  (* SUM on a string column still runs (ignores non-numerics) but unknown
     columns are rejected *)
  match Interp.exec_string db "SELECT SUM(Nope) FROM Employee;" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown aggregate column accepted"

let test_interp_transactions () =
  let sess = fresh_db_with_demo () in
  Alcotest.(check bool) "no txn initially" false (Interp.in_txn sess);
  (* deferred visibility *)
  (match Interp.exec_string sess "BEGIN; INSERT INTO Employee VALUES ('New', 99, 30, 459);" with
  | Ok [ Interp.Message _; Interp.Message m ] ->
      Alcotest.(check string) "queued" "1 insert queued" m
  | Ok _ -> Alcotest.fail "unexpected outcomes"
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "txn active" true (Interp.in_txn sess);
  Alcotest.(check int) "invisible before commit" 3
    (List.length (rows_of sess "SELECT Id FROM Employee;"));
  (match Interp.exec_string sess "COMMIT;" with
  | Ok [ Interp.Message "committed" ] -> ()
  | _ -> Alcotest.fail "commit failed");
  Alcotest.(check int) "visible after commit" 4
    (List.length (rows_of sess "SELECT Id FROM Employee;"));
  (* rollback *)
  (match
     Interp.exec_string sess
       "BEGIN; DELETE FROM Employee WHERE Age > 0; ROLLBACK;"
   with
  | Ok [ _; Interp.Message m; Interp.Message _ ] ->
      Alcotest.(check string) "four deletes queued" "4 deletes queued in Employee" m
  | Ok _ -> Alcotest.fail "unexpected outcomes"
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "rollback left data intact" 4
    (List.length (rows_of sess "SELECT Id FROM Employee;"));
  (* txn updates *)
  (match
     Interp.exec_string sess
       "BEGIN; UPDATE Employee SET Age = 31 WHERE Id = 99; COMMIT;"
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check (list (list string))) "update applied at commit"
    [ [ "31" ] ]
    (rows_of sess "SELECT Age FROM Employee WHERE Id = 99;");
  (* error paths *)
  (match Interp.exec_string sess "COMMIT;" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "commit without txn accepted");
  (match Interp.exec_string sess "BEGIN; BEGIN;" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "nested BEGIN accepted");
  (match Interp.exec_string sess "CREATE TABLE X (a int PRIMARY KEY);" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "DDL inside txn accepted");
  match Interp.exec_string sess "ROLLBACK;" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e

let test_interp_explain_and_index () =
  let db = fresh_db_with_demo () in
  (match
     Interp.exec_string db "CREATE INDEX by_age ON Employee (Age) USING btree;"
   with
  | Ok [ Interp.Message _ ] -> ()
  | _ -> Alcotest.fail "index creation failed");
  let contains haystack needle =
    let nh = String.length haystack and nn = String.length needle in
    let rec go i =
      i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1))
    in
    go 0
  in
  match
    Interp.exec_string db "EXPLAIN SELECT Name FROM Employee WHERE Age = 24;"
  with
  | Ok [ Interp.Plan_text p ] ->
      Alcotest.(check bool) "plan mentions tree lookup" true
        (contains p "tree lookup via by_age")
  | _ -> Alcotest.fail "explain failed"

(* EXPLAIN ANALYZE: per-operator rows plus a "total" row whose counters
   are the query's whole Counters delta.  Exclusive operator counters tile
   the inclusive root delta, so the operator rows must sum exactly to the
   total row — the acceptance identity for the tracing layer. *)
let test_explain_analyze_counter_sum () =
  let db = fresh_db_with_demo () in
  let int_at (row : Mmdb_storage.Value.t array) i =
    match row.(i) with
    | Mmdb_storage.Value.Int v -> v
    | v ->
        Alcotest.failf "column %d not an int: %s" i
          (Mmdb_storage.Value.to_string v)
  in
  let str_at (row : Mmdb_storage.Value.t array) i =
    match row.(i) with
    | Mmdb_storage.Value.Str s -> s
    | v ->
        Alcotest.failf "column %d not a string: %s" i
          (Mmdb_storage.Value.to_string v)
  in
  let check_stmt ~ops sql =
    match Interp.exec_string db sql with
    | Ok [ Interp.Table r ] ->
        Alcotest.(check (list string))
          "analyze header"
          [
            "operator"; "time_ms"; "est_rows"; "actual_rows"; "err";
            "comparisons"; "data_moves"; "hash_calls"; "ptr_derefs"; "detail";
          ]
          r.Mmdb_core.Aggregate.header;
        let rows = r.Mmdb_core.Aggregate.rows in
        let rec split_last = function
          | [] -> Alcotest.fail "empty analyze table"
          | [ last ] -> ([], last)
          | row :: rest ->
              let init, last = split_last rest in
              (row :: init, last)
        in
        let op_rows, total = split_last rows in
        Alcotest.(check string) "last row is the total" "total"
          (str_at total 0);
        Alcotest.(check string) "first operator is the root" "query"
          (String.trim (str_at (List.hd op_rows) 0));
        let names =
          List.map (fun row -> String.trim (str_at row 0)) op_rows
        in
        List.iter
          (fun op ->
            Alcotest.(check bool)
              (Printf.sprintf "%s appears in %s" op sql)
              true (List.mem op names))
          ops;
        (* the acceptance identity: operator counters sum to the total *)
        List.iteri
          (fun off col ->
            let summed =
              List.fold_left (fun acc row -> acc + int_at row (5 + off)) 0
                op_rows
            in
            Alcotest.(check int)
              (Printf.sprintf "%s sums to total for %s" col sql)
              (int_at total (5 + off)) summed)
          [ "comparisons"; "data_moves"; "hash_calls"; "ptr_derefs" ];
        (* select/join operator rows carry the optimizer's estimate and
           the symmetric err ratio against the actual row count *)
        List.iter
          (fun row ->
            let name = String.trim (str_at row 0) in
            if name = "select" || name = "join" then begin
              (match row.(2) with
              | Mmdb_storage.Value.Int e ->
                  Alcotest.(check bool) "est_rows >= 1" true (e >= 1)
              | v ->
                  Alcotest.failf "%s est_rows not an int: %s" name
                    (Mmdb_storage.Value.to_string v));
              match row.(4) with
              | Mmdb_storage.Value.Float err ->
                  Alcotest.(check bool) "err >= 1" true (err >= 1.0)
              | v ->
                  Alcotest.failf "%s err not a float: %s" name
                    (Mmdb_storage.Value.to_string v)
            end)
          op_rows;
        (* per-operator wall time is reported and non-negative *)
        List.iter
          (fun row ->
            match row.(1) with
            | Mmdb_storage.Value.Float ms ->
                Alcotest.(check bool) "time_ms >= 0" true (ms >= 0.0)
            | _ -> Alcotest.fail "time_ms not a float")
          op_rows
    | Ok _ -> Alcotest.fail ("expected a table for " ^ sql)
    | Error e -> Alcotest.fail e
  in
  check_stmt ~ops:[ "plan"; "execute"; "select" ]
    "EXPLAIN ANALYZE SELECT Name FROM Employee WHERE Age > 23;";
  check_stmt ~ops:[ "plan"; "execute"; "join" ]
    "EXPLAIN ANALYZE SELECT Employee.Name, Department.Name FROM Employee \
     JOIN Department ON Dept = Id;";
  check_stmt ~ops:[ "project" ]
    "EXPLAIN ANALYZE SELECT DISTINCT Dept FROM Employee;";
  check_stmt ~ops:[ "aggregate" ]
    "EXPLAIN ANALYZE SELECT Age, COUNT(*) FROM Employee GROUP BY Age;";
  (* plain EXPLAIN still answers with the plan text, no execution *)
  match
    Interp.exec_string db "EXPLAIN SELECT Name FROM Employee WHERE Age > 23;"
  with
  | Ok [ Interp.Plan_text _ ] -> ()
  | _ -> Alcotest.fail "EXPLAIN without ANALYZE must stay plan-only"

let test_interp_params () =
  let db = fresh_db_with_demo () in
  (* unbound placeholders must be rejected, not silently misread *)
  (match Interp.exec_string db "SELECT * FROM Employee WHERE Id = ?;" with
  | Error msg ->
      Alcotest.(check bool) "mentions parameters" true
        (String.length msg > 0)
  | Ok _ -> Alcotest.fail "unbound parameter accepted");
  (* bound placeholders behave like inline literals *)
  let stmt =
    match Parser.parse "SELECT Name FROM Employee WHERE Id = ?;" with
    | Ok [ s ] -> s
    | _ -> Alcotest.fail "parse"
  in
  let bound =
    match Ast.substitute_params stmt [ Ast.L_int 23 ] with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  match Interp.exec db bound with
  | Ok (Interp.Rows tl) ->
      Alcotest.(check (list (list string)))
        "dave by id" [ [ "\"Dave\"" ] ] (Mmdb_core.Executor.rows tl)
  | _ -> Alcotest.fail "bound query failed"

(* A point SELECT's minor words on the served path: cost planner, MVCC
   on, under a statement snapshot.  Measured at 1,285 words (81 of them
   the snapshot); the budget allows under 10% over that.  Warm-up runs fill
   the statistics cache and the feedback store, so the loop measures the
   steady state a cached statement sees. *)
let test_point_select_minor_words () =
  let was_cost = Mmdb_core.Optimizer.cost_based ()
  and was_mvcc = Mmdb_storage.Version_store.enabled () in
  Mmdb_core.Optimizer.set_cost_based true;
  Mmdb_storage.Version_store.set_enabled true;
  Fun.protect ~finally:(fun () ->
      Mmdb_core.Optimizer.set_cost_based was_cost;
      Mmdb_storage.Version_store.set_enabled was_mvcc)
  @@ fun () ->
  let cat = Mmdb_core.Db.create () in
  let db = Interp.session cat in
  (match Interp.exec_string db "CREATE TABLE KV (K int PRIMARY KEY, V int);" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  for k = 0 to 9_999 do
    match
      Mmdb_core.Db.insert cat ~rel:"KV"
        Mmdb_storage.Value.[| Int k; Int (7 * k) |]
    with
    | Ok _ -> ()
    | Error e -> Alcotest.fail e
  done;
  let stmt = parse_one "SELECT V FROM KV WHERE K = 4242;" in
  let run () =
    match Interp.exec db stmt with
    | Ok (Interp.Rows tl) when Mmdb_storage.Temp_list.length tl = 1 -> ()
    | _ -> Alcotest.fail "point SELECT must answer one row"
  in
  let snapshot () = Mmdb_txn.Mvcc.with_snapshot (fun _ -> run ()) in
  let words f =
    for _ = 1 to 100 do
      f ()
    done;
    let n = 1_000 in
    let before = Gc.minor_words () in
    for _ = 1 to n do
      f ()
    done;
    (Gc.minor_words () -. before) /. float_of_int n
  in
  let live = words run and under = words snapshot in
  if under > 1_400.0 then
    Alcotest.failf "point SELECT under a snapshot allocated %.0f minor words (budget 1400)"
      under;
  if under -. live > 150.0 then
    Alcotest.failf "the snapshot added %.0f minor words (budget 150)"
      (under -. live)

let () =
  Alcotest.run "mmdb_lang"
    [
      ( "lexer",
        [
          Alcotest.test_case "basics" `Quick test_lexer_basics;
          Alcotest.test_case "strings/numbers/comments" `Quick
            test_lexer_strings_and_numbers;
          Alcotest.test_case "errors" `Quick test_lexer_errors;
        ] );
      ( "parser",
        [
          Alcotest.test_case "create table" `Quick test_parse_create_table;
          Alcotest.test_case "full select" `Quick test_parse_select_full;
          Alcotest.test_case "multiple statements" `Quick
            test_parse_multiple_statements;
          Alcotest.test_case "rejects malformed input" `Quick
            test_parse_errors;
          Alcotest.test_case "aggregates and group by" `Quick
            test_parse_aggregates;
          Alcotest.test_case "empty input and trailing semicolons" `Quick
            test_parse_empty_and_trailing;
          Alcotest.test_case "? placeholders" `Quick test_parse_params;
        ] );
      ( "interp",
        [
          Alcotest.test_case "select" `Quick test_interp_select;
          Alcotest.test_case "join" `Quick test_interp_join;
          Alcotest.test_case "distinct + unqualified columns" `Quick
            test_interp_distinct_and_unqualified;
          Alcotest.test_case "delete and error paths" `Quick
            test_interp_delete_and_errors;
          Alcotest.test_case "update" `Quick test_interp_update;
          Alcotest.test_case "auto-commit statement is atomic" `Quick
            test_interp_autocommit_atomic;
          Alcotest.test_case "aggregation" `Quick test_interp_aggregates;
          Alcotest.test_case "transactions (BEGIN/COMMIT/ROLLBACK)" `Quick
            test_interp_transactions;
          Alcotest.test_case "explain and index" `Quick
            test_interp_explain_and_index;
          Alcotest.test_case "explain analyze counter sum" `Quick
            test_explain_analyze_counter_sum;
          Alcotest.test_case "prepared-statement parameters" `Quick
            test_interp_params;
          Alcotest.test_case "point SELECT minor-word budget" `Quick
            test_point_select_minor_words;
        ] );
    ]
