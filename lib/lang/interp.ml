(** Evaluate parsed statements against a {!Mmdb_core.Db} catalog. *)

open Mmdb_storage
open Mmdb_core

type outcome =
  | Rows of Temp_list.t
  | Table of Aggregate.result  (** aggregation output (materialized) *)
  | Message of string
  | Plan_text of string

(* A shell session: the catalog plus a transaction manager sharing its
   relations.  Every write is a §2.4 transaction: DML inside BEGIN ...
   COMMIT is deferred to COMMIT (so ROLLBACK needs no undo), and outside
   one each INSERT, UPDATE or DELETE runs as a one-statement transaction
   that commits at once. *)
type session = {
  db : Db.t;
  mgr : Mmdb_txn.Txn.manager;
  mutable current : Mmdb_txn.Txn.txn option;
}

(* Passing [?mgr] lets several sessions share one transaction manager (and
   thus one lock table), which is what the network server needs: each
   connection gets its own session, but conflicting transactions must see
   each other's locks.  Registering an already-known relation is a no-op. *)
let session ?mgr db =
  let mgr =
    match mgr with Some m -> m | None -> Mmdb_txn.Txn.create_manager ()
  in
  List.iter
    (fun rel -> ignore (Mmdb_txn.Txn.add_relation mgr rel))
    (Db.relations db);
  { db; mgr; current = None }

let manager s = s.mgr

let in_txn s = s.current <> None

let txn_failure f = Fmt.str "%a" Mmdb_txn.Txn.pp_failure f

let value_of_literal = function
  | Ast.L_int n -> Value.Int n
  | Ast.L_float f -> Value.Float f
  | Ast.L_string s -> Value.Str s
  | Ast.L_bool b -> Value.Bool b
  | Ast.L_null -> Value.Null
  | Ast.L_param _ ->
      (* [exec] rejects statements with unbound parameters up front *)
      invalid_arg "unbound ? parameter"

let type_of_ast = function
  | Ast.CT_int -> Schema.T_int
  | Ast.CT_float -> Schema.T_float
  | Ast.CT_string -> Schema.T_string
  | Ast.CT_bool -> Schema.T_bool
  | Ast.CT_ref rel -> Schema.T_ref rel

let structure_of_ast = function
  | Ast.IS_ttree -> Relation.T_tree
  | Ast.IS_avl -> Relation.Avl_tree
  | Ast.IS_btree -> Relation.B_tree
  | Ast.IS_array -> Relation.Array_index
  | Ast.IS_chained_hash -> Relation.Chained_hash
  | Ast.IS_extendible_hash -> Relation.Extendible_hash
  | Ast.IS_linear_hash -> Relation.Linear_hash
  | Ast.IS_mod_linear_hash -> Relation.Mod_linear_hash

let method_of_hint = function
  | Ast.JM_nested_loops -> Join.Nested_loops
  | Ast.JM_hash -> Join.Hash_join
  | Ast.JM_tree -> Join.Tree_join
  | Ast.JM_sort_merge -> Join.Sort_merge
  | Ast.JM_tree_merge -> Join.Tree_merge

let ( let* ) = Result.bind

(* Strip an optional [Rel.] qualifier, checking it matches [rel]. *)
let unqualify ~rel name =
  match String.index_opt name '.' with
  | None -> Ok name
  | Some i ->
      let q = String.sub name 0 i in
      if String.equal q rel then
        Ok (String.sub name (i + 1) (String.length name - i - 1))
      else Error (Printf.sprintf "column %s does not belong to %s" name rel)

let where_clauses ~rel conds =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | c :: rest ->
        let add col f =
          let* col = unqualify ~rel col in
          go (f col :: acc) rest
        in
        (match c with
        | Ast.C_eq (col, lit) ->
            add col (fun col q -> Query.where_eq col (value_of_literal lit) q)
        | Ast.C_gt (col, lit) ->
            add col (fun col q -> Query.where_gt col (value_of_literal lit) q)
        | Ast.C_between (col, lo, hi) ->
            add col (fun col q ->
                Query.where_between col ~lo:(value_of_literal lo)
                  ~hi:(value_of_literal hi) q))
  in
  go [] conds

(* Resolve an output column to a descriptor label, searching the outer
   relation first, then the joined one. *)
let resolve_label db ~outer ~inner name =
  if String.contains name '.' then Ok name
  else begin
    let has rel =
      match Db.find db rel with
      | None -> false
      | Some r -> Schema.column_index (Relation.schema r) name <> None
    in
    if has outer then Ok (outer ^ "." ^ name)
    else
      match inner with
      | Some i when has i -> Ok (i ^ "." ^ name)
      | _ -> Error (Printf.sprintf "unknown column %s" name)
  end

let build_query db (s : Ast.select_stmt) =
  let* () =
    match Db.find db s.Ast.sel_from with
    | Some _ -> Ok ()
    | None -> Error (Printf.sprintf "unknown relation %s" s.Ast.sel_from)
  in
  let q = Query.from s.Ast.sel_from in
  let* wheres = where_clauses ~rel:s.Ast.sel_from s.Ast.sel_where in
  let q = List.fold_left (fun q f -> f q) q wheres in
  let* q =
    match s.Ast.sel_join with
    | None -> Ok q
    | Some (inner, outer_col, inner_col, hint) ->
        let* () =
          match Db.find db inner with
          | Some _ -> Ok ()
          | None -> Error (Printf.sprintf "unknown relation %s" inner)
        in
        let* outer_col = unqualify ~rel:s.Ast.sel_from outer_col in
        let* inner_col = unqualify ~rel:inner inner_col in
        Ok
          (Query.join ?force:(Option.map method_of_hint hint) inner
             ~on:(outer_col, inner_col) q)
  in
  let inner = Option.map (fun (i, _, _, _) -> i) s.Ast.sel_join in
  let resolve_all cols =
    let rec resolve acc = function
      | [] -> Ok (List.rev acc)
      | c :: rest ->
          let* label = resolve_label db ~outer:s.Ast.sel_from ~inner c in
          resolve (label :: acc) rest
    in
    resolve [] cols
  in
  let* q =
    match s.Ast.sel_columns with
    | `All -> Ok q
    | `Items items ->
        let plain =
          List.filter_map
            (function Ast.Sel_col c -> Some c | Ast.Sel_agg _ -> None)
            items
        in
        if List.exists (function Ast.Sel_agg _ -> true | _ -> false) items
        then Ok q (* aggregation projects after grouping *)
        else
          let* labels = resolve_all plain in
          Ok (Query.project labels q)
  in
  Ok (if s.Ast.sel_distinct then Query.distinct q else q)

(* Split a parsed select into grouping keys and aggregate specs, with all
   column names resolved to descriptor labels. *)
let aggregation_of db (s : Ast.select_stmt) =
  match s.Ast.sel_columns with
  | `All -> Ok None
  | `Items items ->
      if not (List.exists (function Ast.Sel_agg _ -> true | _ -> false) items)
      then
        if s.Ast.sel_group_by <> [] then
          Error "GROUP BY requires at least one aggregate in the select list"
        else Ok None
      else begin
        let inner = Option.map (fun (i, _, _, _) -> i) s.Ast.sel_join in
        let resolve c = resolve_label db ~outer:s.Ast.sel_from ~inner c in
        let rec build keys aggs = function
          | [] -> Ok (List.rev keys, List.rev aggs)
          | Ast.Sel_col c :: rest ->
              let* label = resolve c in
              build (label :: keys) aggs rest
          | Ast.Sel_agg (fn, arg) :: rest -> (
              let* spec =
                match (fn, arg) with
                | "count", None -> Ok Aggregate.Count
                | "count", Some c ->
                    (* COUNT(col): validate the column, count group rows *)
                    let* _label = resolve c in
                    Ok Aggregate.Count
                | "sum", Some c ->
                    let* label = resolve c in
                    Ok (Aggregate.Sum label)
                | "avg", Some c ->
                    let* label = resolve c in
                    Ok (Aggregate.Avg label)
                | "min", Some c ->
                    let* label = resolve c in
                    Ok (Aggregate.Min label)
                | "max", Some c ->
                    let* label = resolve c in
                    Ok (Aggregate.Max label)
                | _, None -> Error (fn ^ " needs a column argument")
                | _, Some _ -> Error ("unknown aggregate " ^ fn)
              in
              build keys (spec :: aggs) rest)
        in
        let* keys, aggs = build [] [] items in
        (* explicit GROUP BY must agree with the plain columns when both
           are given; an omitted GROUP BY defaults to the plain columns *)
        let* keys =
          match s.Ast.sel_group_by with
          | [] -> Ok keys
          | given ->
              let rec resolve_keys acc = function
                | [] -> Ok (List.rev acc)
                | c :: rest ->
                    let* label = resolve c in
                    resolve_keys (label :: acc) rest
              in
              let* given = resolve_keys [] given in
              if List.sort compare given = List.sort compare keys then Ok given
              else
                Error
                  "GROUP BY columns must match the non-aggregate select columns"
        in
        Ok (Some (keys, aggs))
      end

(* Shared by UPDATE and DELETE: translate WHERE clauses to selection
   predicates against one relation's schema. *)
let predicates_for ~table schema where_ =
  let rec preds acc = function
    | [] -> Ok (List.rev acc)
    | c :: rest -> (
        let col_of name =
          let* name = unqualify ~rel:table name in
          match Schema.column_index schema name with
          | Some i -> Ok i
          | None -> Error (Printf.sprintf "unknown column %s" name)
        in
        match c with
        | Ast.C_eq (name, lit) ->
            let* i = col_of name in
            preds (Select.Eq (i, value_of_literal lit) :: acc) rest
        | Ast.C_gt (name, lit) ->
            let* i = col_of name in
            let v = value_of_literal lit in
            preds
              (Select.Filter (fun t -> Value.compare (Tuple.get t i) v > 0)
              :: acc)
              rest
        | Ast.C_between (name, lo, hi) ->
            let* i = col_of name in
            preds
              (Select.Between (i, value_of_literal lo, value_of_literal hi)
              :: acc)
              rest)
  in
  preds [] where_

(* DML declares its operations on a transaction, which applies them at
   COMMIT: targets are found against committed state, and each
   declaration takes its §2.4 locks.  Each returns the rows declared. *)
let declare_each targets declare =
  let rec go = function
    | [] -> Ok (List.length targets)
    | x :: rest -> (
        match declare x with
        | Ok () -> go rest
        | Error f -> Error (txn_failure f))
  in
  go targets

let matching rel ~table where_ =
  let* predicates = predicates_for ~table (Relation.schema rel) where_ in
  let acc = ref [] in
  Temp_list.iter (Select.select rel predicates) (fun entry ->
      acc := entry.(0) :: !acc);
  Ok !acc

let run_txn_delete t db ~table ~where_ =
  match Db.find db table with
  | None -> Error (Printf.sprintf "unknown relation %s" table)
  | Some rel ->
      let* victims = matching rel ~table where_ in
      declare_each victims (Mmdb_txn.Txn.delete t ~rel:table)

let run_txn_update t db ~table ~assignments ~where_ =
  match Db.find db table with
  | None -> Error (Printf.sprintf "unknown relation %s" table)
  | Some rel ->
      let schema = Relation.schema rel in
      let rec resolve_assignments acc = function
        | [] -> Ok (List.rev acc)
        | (name, lit) :: rest -> (
            let* name = unqualify ~rel:table name in
            match Schema.column_index schema name with
            | Some i ->
                resolve_assignments ((i, value_of_literal lit) :: acc) rest
            | None -> Error (Printf.sprintf "unknown column %s" name))
      in
      let* assignments = resolve_assignments [] assignments in
      let* targets = matching rel ~table where_ in
      declare_each targets (fun tuple ->
          List.fold_left
            (fun acc (col, v) ->
              Result.bind acc (fun () ->
                  Mmdb_txn.Txn.update t ~rel:table tuple ~col v))
            (Ok ()) assignments)

(* Foreign keys resolve against committed state now; the insert itself
   applies at COMMIT. *)
let run_txn_insert t db ~table values =
  let values = Array.of_list (List.map value_of_literal values) in
  let* resolved = Db.resolve_row db ~rel:table values in
  declare_each [ resolved ] (Mmdb_txn.Txn.insert t ~rel:table)

(* Run a DML statement's declarations on the session's open transaction,
   or, outside BEGIN ... COMMIT, as a one-statement transaction that
   commits at once: a declaration that fails (a lock conflict, say)
   aborts it, and a failed apply unwinds the whole statement. *)
let run_dml sess ~table declare ~queued ~applied =
  let note n = if n > 0 then Advisor.note_write ~n ~rel:table () in
  match sess.current with
  | Some t ->
      let* n = declare t in
      note n;
      Ok (Message (queued n))
  | None -> (
      let t = Mmdb_txn.Txn.begin_txn sess.mgr in
      match declare t with
      | Error msg ->
          Mmdb_txn.Txn.abort t;
          Error msg
      | Ok n ->
          let* () = Mmdb_txn.Txn.commit t in
          note n;
          Ok (Message (applied n)))

(* --- EXPLAIN ANALYZE --------------------------------------------------- *)

let analyze_header =
  [
    "operator"; "time_ms"; "est_rows"; "actual_rows"; "err"; "comparisons";
    "data_moves"; "hash_calls"; "ptr_derefs"; "detail";
  ]

(* One table row per span.  Counters are {e exclusive} (children's removed),
   so the operator rows sum exactly to the "total" row, which carries the
   whole query's {!Mmdb_util.Counters.with_counters} delta.  [est] is the
   optimizer's cardinality estimate (the [est_rows] span attribute); the
   [err] column is the symmetric misestimation ratio — 1.0 is a perfect
   estimate — and stays NULL on rows where either side is unknown. *)
let analyze_row ~depth ~name ~time_ms ~est ~rows
    ~(c : Mmdb_util.Counters.snapshot) ~detail =
  [|
    Value.Str (String.make (2 * depth) ' ' ^ name);
    Value.Float time_ms;
    (match est with Some n -> Value.Int n | None -> Value.Null);
    (match rows with Some n -> Value.Int n | None -> Value.Null);
    (match (est, rows) with
    | Some e, Some a -> Value.Float (Mmdb_core.Feedback.err ~est:e ~actual:a)
    | _ -> Value.Null);
    Value.Int c.Mmdb_util.Counters.comparisons;
    Value.Int c.Mmdb_util.Counters.data_moves;
    Value.Int c.Mmdb_util.Counters.hash_calls;
    Value.Int c.Mmdb_util.Counters.ptr_derefs;
    Value.Str detail;
  |]

let analyze_table tr ~(total : Mmdb_util.Counters.snapshot) ~total_s =
  let rows =
    match Mmdb_util.Trace.root tr with
    | None -> []
    | Some root ->
        List.map
          (fun (depth, sp) ->
            let rows =
              match
                ( Mmdb_util.Trace.attr sp "rows",
                  Mmdb_util.Trace.attr sp "groups" )
              with
              | Some n, _ | None, Some n -> int_of_string_opt n
              | None, None -> None
            in
            let est =
              Option.bind (Mmdb_util.Trace.attr sp "est_rows")
                int_of_string_opt
            in
            let detail =
              sp.Mmdb_util.Trace.sp_attrs
              |> List.filter (fun (k, _) ->
                     k <> "rows" && k <> "groups" && k <> "est_rows")
              |> List.map (fun (k, v) -> k ^ "=" ^ v)
              |> String.concat " "
            in
            analyze_row ~depth ~name:sp.Mmdb_util.Trace.sp_name
              ~time_ms:(sp.Mmdb_util.Trace.sp_elapsed *. 1000.0)
              ~est ~rows
              ~c:(Mmdb_util.Trace.exclusive_counters sp)
              ~detail)
          (Mmdb_util.Trace.spans root)
  in
  {
    Aggregate.header = analyze_header;
    rows =
      rows
      @ [
          analyze_row ~depth:0 ~name:"total" ~time_ms:(total_s *. 1000.0)
            ~est:None ~rows:None ~c:total ~detail:"";
        ];
  }

(* Run the query under a trace and render the span tree as a table (so it
   prints in the shell and ships over the wire like any aggregate result).
   [Counters.with_counters] wraps [Trace.run] with nothing in between, so
   the root span's inclusive delta equals the total — the identity the
   per-operator rows are checked against. *)
let explain_analyze db q agg =
  let tr = Mmdb_util.Trace.create () in
  match
    Mmdb_util.Counters.with_counters (fun () ->
        Mmdb_util.Trace.run tr ~name:"query" (fun () ->
            let plan = Optimizer.plan db q in
            let tl = Executor.execute plan in
            match agg with
            | None -> ()
            | Some (keys, aggs) -> ignore (Aggregate.group tl ~by:keys ~aggs)))
  with
  | (), total ->
      let total_s =
        match Mmdb_util.Trace.root tr with
        | Some root -> root.Mmdb_util.Trace.sp_elapsed
        | None -> 0.0
      in
      Ok (Table (analyze_table tr ~total ~total_s))
  | exception Invalid_argument msg -> Error msg

let exec sess stmt =
  let db = sess.db in
  if Ast.param_count stmt > 0 then
    Error
      "statement has unbound ? parameters (bind them with \
       Ast.substitute_params, or PREPARE/EXEC over the wire)"
  else
  match stmt with
  | Ast.Begin_txn ->
      if in_txn sess then Error "a transaction is already active"
      else begin
        sess.current <- Some (Mmdb_txn.Txn.begin_txn sess.mgr);
        Ok (Message "transaction started (changes apply at COMMIT)")
      end
  | Ast.Commit_txn -> (
      match sess.current with
      | None -> Error "no active transaction"
      | Some t -> (
          sess.current <- None;
          match Mmdb_txn.Txn.commit t with
          | Ok () -> Ok (Message "committed")
          | Error msg -> Error ("commit failed, transaction aborted: " ^ msg)))
  | Ast.Rollback_txn -> (
      match sess.current with
      | None -> Error "no active transaction"
      | Some t ->
          sess.current <- None;
          Mmdb_txn.Txn.abort t;
          Ok (Message "rolled back (no undo needed)"))
  | Ast.Create_table { name; columns } when in_txn sess ->
      ignore (name, columns);
      Error "DDL is not allowed inside a transaction"
  | Ast.Create_index _ when in_txn sess ->
      Error "DDL is not allowed inside a transaction"
  | Ast.Create_table { name; columns } -> (
      let primaries = List.filter (fun c -> c.Ast.cd_primary) columns in
      match primaries with
      | [ pk ] -> (
          let cols =
            List.map
              (fun c -> Schema.col ~ty:(type_of_ast c.Ast.cd_type) c.Ast.cd_name)
              columns
          in
          match Schema.make ~name cols with
          | exception Invalid_argument msg -> Error msg
          | schema -> (
              match Db.create_relation db ~schema ~primary_key:pk.Ast.cd_name with
              | Ok rel -> (
                  match Mmdb_txn.Txn.add_relation sess.mgr rel with
                  | Ok () ->
                      Ok (Message (Printf.sprintf "table %s created" name))
                  | Error msg -> Error msg)
              | Error msg -> Error msg))
      | [] -> Error "a table needs exactly one PRIMARY KEY column (all access is through an index)"
      | _ -> Error "multiple PRIMARY KEY columns")
  | Ast.Create_index { idx_name; table; columns; structure; unique } -> (
      match Db.find db table with
      | None -> Error (Printf.sprintf "unknown relation %s" table)
      | Some rel -> (
          let schema = Relation.schema rel in
          let rec cols acc = function
            | [] -> Ok (List.rev acc)
            | name :: rest -> (
                let* name = unqualify ~rel:table name in
                match Schema.column_index schema name with
                | Some i -> cols (i :: acc) rest
                | None -> Error (Printf.sprintf "unknown column %s" name))
          in
          let* columns = cols [] columns in
          let structure =
            match structure with
            | Some s -> structure_of_ast s
            | None -> Relation.T_tree
          in
          match
            Relation.create_index rel ~idx_name ~columns:(Array.of_list columns)
              ~structure ~unique
          with
          | Ok () -> Ok (Message (Printf.sprintf "index %s created" idx_name))
          | Error msg -> Error msg))
  | Ast.Insert { table; values } ->
      run_dml sess ~table
        (fun t -> run_txn_insert t db ~table values)
        ~queued:(fun _ -> "1 insert queued")
        ~applied:(fun _ -> "1 tuple inserted")
  | Ast.Update { table; assignments; where_ } ->
      run_dml sess ~table
        (fun t -> run_txn_update t db ~table ~assignments ~where_)
        ~queued:(fun n -> Printf.sprintf "%d updates queued in %s" n table)
        ~applied:(fun n -> Printf.sprintf "%d tuples updated in %s" n table)
  | Ast.Delete { table; where_ } ->
      run_dml sess ~table
        (fun t -> run_txn_delete t db ~table ~where_)
        ~queued:(fun n -> Printf.sprintf "%d deletes queued in %s" n table)
        ~applied:(fun n -> Printf.sprintf "%d tuples deleted from %s" n table)
  | Ast.Select s -> (
      let* q = build_query db s in
      let* agg = aggregation_of db s in
      match agg with
      | None -> (
          match Executor.query db q with
          | tl -> Ok (Rows tl)
          | exception Invalid_argument msg -> Error msg)
      | Some (keys, aggs) -> (
          match
            Aggregate.group (Executor.query db q) ~by:keys ~aggs
          with
          | result -> Ok (Table result)
          | exception Invalid_argument msg -> Error msg))
  | Ast.Explain { ex_analyze; ex_select = s } ->
      let* q = build_query db s in
      if ex_analyze then
        let* agg = aggregation_of db s in
        explain_analyze db q agg
      else
        let plan = Optimizer.plan db q in
        Ok (Plan_text (Fmt.str "%a@\n%a" Query.pp q Optimizer.pp_plan plan))
  | Ast.Show_tables ->
      let lines =
        List.map
          (fun r -> Printf.sprintf "%s (%d tuples)" (Relation.name r) (Relation.count r))
          (Db.relations db)
      in
      Ok (Message (String.concat "\n" lines))
  | Ast.Describe name -> (
      match Db.find db name with
      | None -> Error (Printf.sprintf "unknown relation %s" name)
      | Some rel ->
          let schema_line = Fmt.str "%a" Schema.pp (Relation.schema rel) in
          let idx_lines =
            List.map
              (fun (d : Relation.index_def) ->
                Printf.sprintf "  index %s on (%s)%s" d.Relation.idx_name
                  (String.concat ", "
                     (List.map
                        (Schema.column_name (Relation.schema rel))
                        (Array.to_list d.Relation.columns)))
                  (if d.Relation.unique then " unique" else ""))
              (Relation.index_defs rel)
          in
          Ok (Message (String.concat "\n" (schema_line :: idx_lines))))

(* Parse and run a whole script; stops at the first error. *)
let exec_string sess input =
  let* stmts = Parser.parse input in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | s :: rest ->
        let* out = exec sess s in
        go (out :: acc) rest
  in
  go [] stmts

let pp_outcome ppf = function
  | Rows tl -> Executor.pp_result ppf tl
  | Table r -> Aggregate.pp ppf r
  | Message m -> Fmt.string ppf m
  | Plan_text p -> Fmt.string ppf p
