(* Tests for the storage architecture: values, schemas, partitions,
   relations (with their mandatory indices), descriptors, temp lists. *)

open Mmdb_storage

let value = Alcotest.testable Value.pp Value.equal

(* --- Value ----------------------------------------------------------- *)

let test_value_order () =
  Alcotest.(check bool) "int order" true Value.(compare (Int 1) (Int 2) < 0);
  Alcotest.(check bool) "str order" true
    Value.(compare (Str "a") (Str "b") < 0);
  Alcotest.(check bool) "null smallest" true
    Value.(compare Null (Int min_int) < 0);
  Alcotest.(check bool) "equal floats" true Value.(equal (Float 2.5) (Float 2.5));
  let t1 = Tuple.make [| Value.Int 1 |] and t2 = Tuple.make [| Value.Int 1 |] in
  Alcotest.(check bool) "refs compare by identity" true
    Value.(compare (Ref t1) (Ref t2) <> 0);
  Alcotest.(check bool) "ref equal to itself" true
    Value.(equal (Ref t1) (Ref t1))

let test_value_width () =
  Alcotest.(check int) "int width" 4 (Value.byte_width (Value.Int 7));
  Alcotest.(check int) "str width" 5 (Value.byte_width (Value.Str "hello"));
  Alcotest.(check int) "null width" 0 (Value.byte_width Value.Null);
  let t = Tuple.make [| Value.Int 1 |] in
  Alcotest.(check int) "ref width" 4 (Value.byte_width (Value.Ref t));
  Alcotest.(check int) "refs width" 8
    (Value.byte_width (Value.Refs [ t; t ]))

(* --- Tuple ------------------------------------------------------------ *)

let test_tuple_forwarding () =
  let t = Tuple.make [| Value.Int 1; Value.Str "x" |] in
  let moved = Tuple.move_record t ~fields:[| Value.Int 1; Value.Str "xxxx" |] in
  Alcotest.(check int) "same identity" (Tuple.id t) (Tuple.id moved);
  Alcotest.(check value) "read through forwarding" (Value.Str "xxxx")
    (Tuple.get t 1);
  (* chains resolve fully *)
  let moved2 = Tuple.move_record moved ~fields:[| Value.Int 2; Value.Str "y" |] in
  Alcotest.(check value) "two hops" (Value.Int 2) (Tuple.get t 0);
  Alcotest.(check int) "chain id stable" (Tuple.id t) (Tuple.id moved2)

let test_tuple_probe_wildcard () =
  let columns = [| 0 |] in
  let a = Tuple.make [| Value.Int 5; Value.Str "a" |] in
  let b = Tuple.make [| Value.Int 5; Value.Str "b" |] in
  let p = Tuple.probe [| Value.Int 5; Value.Null |] in
  Alcotest.(check bool) "distinct tuples differ" true
    (Tuple.compare_keyed ~columns a b <> 0);
  Alcotest.(check int) "probe matches a" 0 (Tuple.compare_keyed ~columns p a);
  Alcotest.(check int) "probe matches b" 0 (Tuple.compare_keyed ~columns b p);
  let q = Tuple.probe [| Value.Int 6; Value.Null |] in
  Alcotest.(check bool) "probe respects key" true
    (Tuple.compare_keyed ~columns q a <> 0)

let test_tuple_ptr_deref_counter () =
  let t = Tuple.make [| Value.Int 3 |] in
  Mmdb_util.Counters.reset ();
  let _, c = Mmdb_util.Counters.with_counters (fun () -> Tuple.get t 0) in
  Alcotest.(check int) "one dereference" 1 c.Mmdb_util.Counters.ptr_derefs

(* --- Schema ------------------------------------------------------------ *)

let emp_schema () =
  Schema.make ~name:"Employee"
    [
      Schema.col ~ty:Schema.T_string "Name";
      Schema.col ~ty:Schema.T_int "Id";
      Schema.col ~ty:Schema.T_int "Age";
      Schema.col ~ty:(Schema.T_ref "Department") "Dept";
    ]

let test_schema_basics () =
  let s = emp_schema () in
  Alcotest.(check int) "arity" 4 (Schema.arity s);
  Alcotest.(check (option int)) "column lookup" (Some 2)
    (Schema.column_index s "Age");
  Alcotest.(check (option int)) "missing column" None
    (Schema.column_index s "Salary");
  Alcotest.(check (list (pair int string))) "foreign keys" [ (3, "Department") ]
    (Schema.foreign_keys s);
  Alcotest.check_raises "duplicate columns rejected"
    (Invalid_argument "Schema.make: duplicate column name") (fun () ->
      ignore (Schema.make ~name:"X" [ Schema.col "a"; Schema.col "a" ]))

let test_schema_typecheck () =
  let s = emp_schema () in
  let dept = Tuple.make [| Value.Str "Toy"; Value.Int 459 |] in
  let good = [| Value.Str "Dave"; Value.Int 23; Value.Int 24; Value.Ref dept |] in
  Alcotest.(check bool) "well-typed accepted" true
    (Schema.check_tuple s good = Ok ());
  let bad = [| Value.Int 1; Value.Int 23; Value.Int 24; Value.Ref dept |] in
  Alcotest.(check bool) "ill-typed rejected" true
    (Result.is_error (Schema.check_tuple s bad));
  let nulls = [| Value.Null; Value.Null; Value.Null; Value.Null |] in
  Alcotest.(check bool) "nulls fit everywhere" true
    (Schema.check_tuple s nulls = Ok ());
  let short = [| Value.Str "x" |] in
  Alcotest.(check bool) "wrong arity rejected" true
    (Result.is_error (Schema.check_tuple s short))

(* --- Partition ---------------------------------------------------------- *)

let test_partition_slots () =
  let p = Partition.create ~slot_capacity:2 ~heap_capacity:100 ~pid:0 () in
  let t1 = Tuple.make [| Value.Int 1 |] in
  let t2 = Tuple.make [| Value.Int 2 |] in
  let t3 = Tuple.make [| Value.Int 3 |] in
  Alcotest.(check bool) "add 1" true (Partition.add p t1 = Partition.Added);
  Alcotest.(check bool) "add 2" true (Partition.add p t2 = Partition.Added);
  Alcotest.(check bool) "slots full" true
    (Partition.add p t3 = Partition.Slots_full);
  Alcotest.(check int) "tuple knows its partition" 0 t1.Value.pid;
  Alcotest.(check bool) "remove" true (Partition.remove p t1);
  Alcotest.(check bool) "remove twice" false (Partition.remove p t1);
  Alcotest.(check int) "count" 1 (Partition.count p);
  Alcotest.(check bool) "validates" true (Partition.validate p = Ok ())

let test_partition_heap () =
  let p = Partition.create ~slot_capacity:10 ~heap_capacity:10 ~pid:1 () in
  let small = Tuple.make [| Value.Str "abcde" |] in
  let big = Tuple.make [| Value.Str (String.make 8 'x') |] in
  Alcotest.(check bool) "small fits" true (Partition.add p small = Partition.Added);
  Alcotest.(check bool) "big overflows heap" true
    (Partition.add p big = Partition.Heap_full);
  Alcotest.(check int) "heap used" 5 (Partition.heap_used p);
  Alcotest.(check bool) "grow within budget" true
    (Partition.adjust_heap p ~delta:5);
  Alcotest.(check bool) "grow past budget" false
    (Partition.adjust_heap p ~delta:1);
  Alcotest.(check bool) "shrink always ok" true
    (Partition.adjust_heap p ~delta:(-5))

(* --- Relation ----------------------------------------------------------- *)

let dept_schema () =
  Schema.make ~name:"Department"
    [ Schema.col ~ty:Schema.T_string "Name"; Schema.col ~ty:Schema.T_int "Id" ]

let mk_dept () =
  Relation.create ~schema:(dept_schema ())
    ~primary:
      {
        Relation.idx_name = "dept_id";
        columns = [| 1 |];
        unique = true;
        structure = Relation.T_tree;
      }
    ()

let test_relation_insert_lookup () =
  let r = mk_dept () in
  let ins name id =
    match Relation.insert r [| Value.Str name; Value.Int id |] with
    | Ok t -> t
    | Error e -> Alcotest.fail e
  in
  let _toy = ins "Toy" 459 in
  let _shoe = ins "Shoe" 409 in
  let _linen = ins "Linen" 411 in
  Alcotest.(check int) "count" 3 (Relation.count r);
  (match Relation.lookup_one r [| Value.Int 409 |] with
  | Some t -> Alcotest.(check value) "lookup shoe" (Value.Str "Shoe") (Tuple.get t 0)
  | None -> Alcotest.fail "lookup failed");
  Alcotest.(check bool) "missing key" true
    (Relation.lookup_one r [| Value.Int 999 |] = None);
  (* unique violation *)
  (match Relation.insert r [| Value.Str "Paint"; Value.Int 459 |] with
  | Ok _ -> Alcotest.fail "duplicate key accepted"
  | Error _ -> ());
  Alcotest.(check int) "count unchanged after violation" 3 (Relation.count r);
  Alcotest.(check bool) "validates" true (Relation.validate r = Ok ())

let test_relation_scan_ordered () =
  let r = mk_dept () in
  List.iter
    (fun (n, i) ->
      match Relation.insert r [| Value.Str n; Value.Int i |] with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e)
    [ ("Toy", 459); ("Shoe", 409); ("Linen", 411); ("Paint", 455) ];
  let ids = ref [] in
  Relation.iter r (fun t ->
      match Tuple.get t 1 with
      | Value.Int i -> ids := i :: !ids
      | _ -> Alcotest.fail "bad id");
  Alcotest.(check (list int)) "scan in primary-key order"
    [ 409; 411; 455; 459 ] (List.rev !ids)

let test_relation_delete () =
  let r = mk_dept () in
  let tuples =
    List.map
      (fun (n, i) ->
        match Relation.insert r [| Value.Str n; Value.Int i |] with
        | Ok t -> t
        | Error e -> Alcotest.fail e)
      [ ("Toy", 459); ("Shoe", 409) ]
  in
  let toy = List.nth tuples 0 in
  Alcotest.(check bool) "delete" true (Relation.delete_tuple r toy);
  Alcotest.(check bool) "delete twice" false (Relation.delete_tuple r toy);
  Alcotest.(check int) "count" 1 (Relation.count r);
  Alcotest.(check bool) "gone from index" true
    (Relation.lookup_one r [| Value.Int 459 |] = None);
  Alcotest.(check bool) "validates" true (Relation.validate r = Ok ())

let test_relation_secondary_index () =
  let r = mk_dept () in
  List.iter
    (fun (n, i) ->
      match Relation.insert r [| Value.Str n; Value.Int i |] with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e)
    [ ("Toy", 459); ("Shoe", 409); ("Linen", 411) ];
  (match
     Relation.create_index r ~idx_name:"dept_name" ~columns:[| 0 |]
       ~structure:Relation.Mod_linear_hash
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (match Relation.lookup_one ~index:"dept_name" r [| Value.Str "Linen" |] with
  | Some t -> Alcotest.(check value) "by name" (Value.Int 411) (Tuple.get t 1)
  | None -> Alcotest.fail "secondary lookup failed");
  (* New inserts maintain both indices. *)
  (match Relation.insert r [| Value.Str "Paint"; Value.Int 455 |] with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "new tuple via secondary" true
    (Relation.lookup_one ~index:"dept_name" r [| Value.Str "Paint" |] <> None);
  Alcotest.(check bool) "duplicate index name rejected" true
    (Result.is_error
       (Relation.create_index r ~idx_name:"dept_name" ~columns:[| 0 |]));
  (match Relation.drop_index r ~idx_name:"dept_name" with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "primary index cannot be dropped" true
    (Result.is_error (Relation.drop_index r ~idx_name:"dept_id"));
  Alcotest.(check bool) "validates" true (Relation.validate r = Ok ())

let test_relation_range () =
  let r = mk_dept () in
  List.iter
    (fun i ->
      match Relation.insert r [| Value.Str "D"; Value.Int i |] with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e)
    [ 10; 20; 30; 40; 50 ];
  let seen = ref [] in
  Relation.lookup_range r ~lo:[| Value.Int 15 |] ~hi:[| Value.Int 40 |]
    (fun t ->
      match Tuple.get t 1 with
      | Value.Int i -> seen := i :: !seen
      | _ -> ());
  Alcotest.(check (list int)) "range" [ 20; 30; 40 ] (List.rev !seen)

let test_relation_update_and_move () =
  (* Small heap so a string update forces a partition move with forwarding. *)
  let r =
    Relation.create ~slot_capacity:4 ~heap_capacity:10 ~schema:(dept_schema ())
      ~primary:
        {
          Relation.idx_name = "dept_id";
          columns = [| 1 |];
          unique = true;
          structure = Relation.T_tree;
        }
      ()
  in
  let t =
    match Relation.insert r [| Value.Str "abcdefgh"; Value.Int 1 |] with
    | Ok t -> t
    | Error e -> Alcotest.fail e
  in
  let t2 =
    match Relation.insert r [| Value.Str "x"; Value.Int 2 |] with
    | Ok t -> t
    | Error e -> Alcotest.fail e
  in
  let pid_before = (Tuple.resolve t).Value.pid in
  (* Growing t's string to 10 bytes exceeds the 10-byte heap already holding
     t2's 1 byte, so the tuple must move to another partition. *)
  (match Relation.update_field r t 0 (Value.Str (String.make 10 'z')) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let resolved = Tuple.resolve t in
  Alcotest.(check bool) "moved to another partition" true
    (resolved.Value.pid <> pid_before);
  Alcotest.(check value) "value readable through old pointer"
    (Value.Str "zzzzzzzzzz") (Tuple.get t 0);
  Alcotest.(check int) "identity preserved" (Tuple.id t) (Tuple.id resolved);
  (* Old pointer still works for index lookups and deletion. *)
  (match Relation.lookup_one r [| Value.Int 1 |] with
  | Some found -> Alcotest.(check int) "still indexed" (Tuple.id t) (Tuple.id found)
  | None -> Alcotest.fail "lost after move");
  Alcotest.(check bool) "validates" true (Relation.validate r = Ok ());
  Alcotest.(check bool) "delete through old pointer" true
    (Relation.delete_tuple r t);
  Alcotest.(check int) "one left" 1 (Relation.count r);
  ignore t2

let test_relation_update_indexed_column () =
  let r = mk_dept () in
  let t =
    match Relation.insert r [| Value.Str "Toy"; Value.Int 459 |] with
    | Ok t -> t
    | Error e -> Alcotest.fail e
  in
  (match Relation.update_field r t 1 (Value.Int 500) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "old key gone" true
    (Relation.lookup_one r [| Value.Int 459 |] = None);
  Alcotest.(check bool) "new key found" true
    (Relation.lookup_one r [| Value.Int 500 |] <> None);
  (* Unique violation on update is rolled back. *)
  (match Relation.insert r [| Value.Str "Shoe"; Value.Int 409 |] with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  (match Relation.update_field r t 1 (Value.Int 409) with
  | Ok () -> Alcotest.fail "unique violation accepted"
  | Error _ -> ());
  Alcotest.(check bool) "rollback kept old key" true
    (Relation.lookup_one r [| Value.Int 500 |] <> None);
  Alcotest.(check bool) "validates" true (Relation.validate r = Ok ())

let test_relation_multi_partition () =
  let r =
    Relation.create ~slot_capacity:8 ~schema:(dept_schema ())
      ~primary:
        {
          Relation.idx_name = "dept_id";
          columns = [| 1 |];
          unique = true;
          structure = Relation.T_tree;
        }
      ()
  in
  for i = 1 to 100 do
    match Relation.insert r [| Value.Str "D"; Value.Int i |] with
    | Ok _ -> ()
    | Error e -> Alcotest.fail e
  done;
  Alcotest.(check bool) "several partitions" true
    (List.length (Relation.partitions r) >= 100 / 8);
  Alcotest.(check int) "count" 100 (Relation.count r);
  Alcotest.(check bool) "validates" true (Relation.validate r = Ok ())

(* --- foreign keys / precomputed joins (§2.1 example) -------------------- *)

let test_precomputed_join_pointers () =
  let dept = mk_dept () in
  let toy =
    match Relation.insert dept [| Value.Str "Toy"; Value.Int 459 |] with
    | Ok t -> t
    | Error e -> Alcotest.fail e
  in
  let emp_rel =
    Relation.create ~schema:(emp_schema ())
      ~primary:
        {
          Relation.idx_name = "emp_id";
          columns = [| 1 |];
          unique = true;
          structure = Relation.T_tree;
        }
      ()
  in
  let dave =
    match
      Relation.insert emp_rel
        [| Value.Str "Dave"; Value.Int 23; Value.Int 24; Value.Ref toy |]
    with
    | Ok t -> t
    | Error e -> Alcotest.fail e
  in
  (* Query 1 style: follow the Department pointer of the employee. *)
  (match Tuple.get dave 3 with
  | Value.Ref d ->
      Alcotest.(check value) "followed pointer" (Value.Str "Toy")
        (Tuple.get d 0)
  | _ -> Alcotest.fail "expected pointer field")

(* --- Descriptor / Temp_list --------------------------------------------- *)

let test_descriptor () =
  let emp = emp_schema () and dept = dept_schema () in
  let de = Descriptor.of_schema emp in
  Alcotest.(check int) "all columns" 4 (Descriptor.arity de);
  Alcotest.(check (list string)) "labels"
    [ "Employee.Name"; "Employee.Id"; "Employee.Age"; "Employee.Dept" ]
    (Descriptor.labels de);
  let dd = Descriptor.of_schema dept in
  let joined = Descriptor.join de dd in
  Alcotest.(check int) "join arity" 6 (Descriptor.arity joined);
  Alcotest.(check int) "join sources" 2 (Descriptor.n_sources joined);
  let projected =
    Descriptor.project joined
      [ "Employee.Name"; "Employee.Age"; "Department.Name" ]
  in
  Alcotest.(check int) "projected arity" 3 (Descriptor.arity projected);
  Alcotest.check_raises "unknown label"
    (Invalid_argument "Descriptor.project: no field \"Nope\"") (fun () ->
      ignore (Descriptor.project joined [ "Nope" ]))

let test_temp_list () =
  let dept = mk_dept () in
  List.iter
    (fun (n, i) ->
      match Relation.insert dept [| Value.Str n; Value.Int i |] with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e)
    [ ("Toy", 459); ("Shoe", 409) ];
  let tl = Temp_list.of_relation dept in
  Alcotest.(check int) "two entries" 2 (Temp_list.length tl);
  let rows = Temp_list.materialize tl in
  Alcotest.(check int) "row width" 2 (Array.length (List.hd rows));
  (* projection narrows the descriptor, not the entries *)
  let narrow = Temp_list.project tl [ "Department.Name" ] in
  let rows = Temp_list.materialize narrow in
  Alcotest.(check (list (list string)))
    "projected values"
    [ [ "\"Shoe\"" ]; [ "\"Toy\"" ] ]
    (List.map (fun row -> Array.to_list (Array.map Value.to_string row)) rows)

let test_temp_list_index () =
  (* §2.3: an index on a temporary list *)
  let dept = mk_dept () in
  List.iter
    (fun (n, i) ->
      match Relation.insert dept [| Value.Str n; Value.Int i |] with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e)
    [ ("Toy", 459); ("Shoe", 409); ("Linen", 411); ("Paint", 455) ];
  let tl = Temp_list.of_relation dept in
  let idx =
    match Temp_list.build_index tl ~label:"Department.Name" with
    | Ok i -> i
    | Error e -> Alcotest.fail e
  in
  (match Temp_list.lookup_via tl idx (Value.Str "Linen") with
  | [ e ] -> Alcotest.(check value) "found by name" (Value.Int 411) (Tuple.get e.(0) 1)
  | l -> Alcotest.failf "expected one entry, got %d" (List.length l));
  Alcotest.(check (list int)) "miss" []
    (List.map Array.length (Temp_list.lookup_via tl idx (Value.Str "Garden")));
  (* duplicates: several entries under one key *)
  let tl2 = Temp_list.of_relation dept in
  ignore
    (Relation.insert dept [| Value.Str "Linen"; Value.Int 999 |]
     |> Result.get_ok);
  let tl3 = Temp_list.of_relation dept in
  ignore tl2;
  let idx3 =
    match
      Temp_list.build_index tl3 ~label:"Department.Name"
        ~structure:(module Mmdb_index.Chained_hash)
    with
    | Ok i -> i
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check int) "two linens via hash index" 2
    (List.length (Temp_list.lookup_via tl3 idx3 (Value.Str "Linen")));
  (* unknown label *)
  match Temp_list.build_index tl ~label:"Nope" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown label accepted"

(* Value.compare must be a total order over mixed constructors (indices
   rely on it when probes carry Null slots). *)
let value_order_property =
  let gen_value =
    QCheck.Gen.(
      oneof
        [
          return Value.Null;
          map (fun b -> Value.Bool b) bool;
          map (fun n -> Value.Int n) small_signed_int;
          map (fun f -> Value.Float f) (float_range (-1e6) 1e6);
          map (fun s -> Value.Str s) (string_size (int_range 0 8));
        ])
  in
  QCheck.Test.make ~count:300 ~name:"Value.compare is a total order"
    (QCheck.make QCheck.Gen.(triple gen_value gen_value gen_value))
    (fun (a, b, c) ->
      let sgn x = compare x 0 in
      (* antisymmetry *)
      if sgn (Value.compare a b) <> -sgn (Value.compare b a) then
        QCheck.Test.fail_report "antisymmetry";
      (* transitivity *)
      if Value.compare a b <= 0 && Value.compare b c <= 0 then
        if Value.compare a c > 0 then QCheck.Test.fail_report "transitivity";
      (* hash consistent with equality *)
      if Value.equal a b && Value.hash a <> Value.hash b then
        QCheck.Test.fail_report "hash/equal";
      true)

let test_partition_to_list () =
  let p = Partition.create ~slot_capacity:4 ~pid:7 () in
  let ts = List.init 3 (fun i -> Tuple.make [| Value.Int i |]) in
  List.iter (fun t -> assert (Partition.add p t = Partition.Added)) ts;
  Alcotest.(check int) "to_list length" 3 (List.length (Partition.to_list p));
  Alcotest.(check int) "slot capacity accessor" 4 (Partition.slot_capacity p);
  Alcotest.(check bool) "dirty after writes" true (Partition.is_dirty p);
  Partition.set_dirty p false;
  Alcotest.(check bool) "clean after reset" false (Partition.is_dirty p)

let test_temp_list_to_seq_and_get () =
  let dept = mk_dept () in
  List.iter
    (fun (n, i) ->
      ignore (Result.get_ok (Relation.insert dept [| Value.Str n; Value.Int i |])))
    [ ("A", 1); ("B", 2); ("C", 3) ];
  let tl = Temp_list.of_relation dept in
  Alcotest.(check int) "seq length" 3 (Seq.length (Temp_list.to_seq tl));
  let e = Temp_list.get tl 1 in
  Alcotest.(check value) "get entry field" (Value.Int 2)
    (Temp_list.field_value tl e 1);
  Alcotest.check_raises "out of bounds"
    (Invalid_argument "Temp_list.get: out of bounds") (fun () ->
      ignore (Temp_list.get tl 9))

(* Growing a temporary list must not force minor collections: OCaml's
   [Array.make] collects the minor heap first when it fills an array too
   large for it with a minor-heap value, and once pool workers exist that
   stops every domain.  Each fill below stores 100k fresh entries; it may
   take the collections that storing them into a preallocated array
   takes, plus two.  Filling each doubling with a fresh entry forced nine
   more. *)
let test_temp_list_growth_gc () =
  let dept = mk_dept () in
  ignore (Result.get_ok (Relation.insert dept [| Value.Str "A"; Value.Int 1 |]));
  let src = Temp_list.of_relation dept in
  let tuple = (Temp_list.get src 0).(0) in
  let n = 100_000 in
  let minors f =
    Gc.full_major ();
    let m0 = (Gc.quick_stat ()).Gc.minor_collections in
    f ();
    (Gc.quick_stat ()).Gc.minor_collections - m0
  in
  let plain = Array.make n [||] in
  let baseline =
    minors (fun () ->
        for i = 0 to n - 1 do
          plain.(i) <- [| tuple |]
        done)
  in
  let grown name fill =
    let tl = Temp_list.create (Temp_list.descriptor src) in
    let m = minors (fun () -> fill tl) in
    Alcotest.(check int) (name ^ ": length") n (Temp_list.length tl);
    Alcotest.(check bool)
      (Printf.sprintf "%s: %d minor collections, preallocated array %d" name m
         baseline)
      true
      (m <= baseline + 2)
  in
  grown "append" (fun tl ->
      for _ = 1 to n do
        Temp_list.append tl [| tuple |]
      done);
  let tuples = Array.make 256 tuple in
  grown "append_n" (fun tl ->
      for _ = 1 to n / 256 do
        Temp_list.append_n tl tuples 256
      done;
      Temp_list.append_n tl tuples (n mod 256));
  grown "append_many" (fun tl ->
      let buf = Array.make 400 [||] in
      for _ = 1 to n / 400 do
        for i = 0 to 399 do
          buf.(i) <- [| tuple |]
        done;
        Temp_list.append_many tl buf 400
      done);
  (* Partition slot growth, fed fresh tuples as a load is: it may take
     the collections that storing them into a preallocated array takes,
     plus two.  Filling the 512-slot growth with the added tuple forced
     one per partition. *)
  let fresh i = Tuple.make [| Value.Int i |] in
  let plain = Array.make n tuple in
  let baseline =
    minors (fun () ->
        for i = 0 to n - 1 do
          plain.(i) <- fresh i
        done)
  in
  let p = ref (Partition.create ~pid:0 ()) in
  let m =
    minors (fun () ->
        for i = 0 to n - 1 do
          if Partition.is_full !p then p := Partition.create ~pid:i ();
          ignore (Partition.add !p (fresh i))
        done)
  in
  Alcotest.(check bool)
    (Printf.sprintf "partition: %d minor collections, preallocated array %d"
       m baseline)
    true
    (m <= baseline + 2)

let test_forwarding_stress () =
  (* many heap-overflow moves: tuples stay reachable through every index
     and the old pointers keep working *)
  let r =
    Relation.create ~slot_capacity:4 ~heap_capacity:64
      ~schema:(dept_schema ())
      ~primary:
        {
          Relation.idx_name = "pk";
          columns = [| 1 |];
          unique = true;
          structure = Relation.T_tree;
        }
      ()
  in
  (match
     Relation.create_index r ~idx_name:"by_name" ~columns:[| 0 |]
       ~structure:Relation.Mod_linear_hash
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let originals =
    List.init 20 (fun i ->
        match
          Relation.insert r [| Value.Str (String.make 20 'a'); Value.Int i |]
        with
        | Ok t -> t
        | Error e -> Alcotest.fail e)
  in
  (* grow every string repeatedly, forcing chains of partition moves *)
  List.iteri
    (fun round len ->
      List.iter
        (fun t ->
          match Relation.update_field r t 0 (Value.Str (String.make len 'b')) with
          | Ok () -> ()
          | Error e -> Alcotest.failf "round %d: %s" round e)
        originals)
    [ 40; 55; 30; 60 ];
  Alcotest.(check bool) "validates after move storm" true
    (Relation.validate r = Ok ());
  (* original pointers still resolve and search correctly *)
  List.iteri
    (fun i t ->
      Alcotest.(check value)
        (Printf.sprintf "tuple %d readable" i)
        (Value.Str (String.make 60 'b'))
        (Tuple.get t 0);
      match Relation.lookup_one r [| Value.Int i |] with
      | Some found ->
          if Tuple.id found <> Tuple.id t then Alcotest.fail "identity changed"
      | None -> Alcotest.failf "key %d lost" i)
    originals;
  (* and deletion through stale pointers still works *)
  List.iter (fun t -> assert (Relation.delete_tuple r t)) originals;
  Alcotest.(check int) "all deleted" 0 (Relation.count r)

(* --- property: relation behaves like a model map ------------------------ *)

let relation_model_test =
  QCheck.Test.make ~count:60 ~name:"relation ≡ model under random ops"
    QCheck.(
      make
        ~print:(fun ops ->
          String.concat ";"
            (List.map
               (function
                 | `Insert k -> Printf.sprintf "I%d" k
                 | `Delete k -> Printf.sprintf "D%d" k)
               ops))
        Gen.(
          list_size (int_range 0 150)
            (oneof
               [
                 map (fun k -> `Insert k) (int_range 0 40);
                 map (fun k -> `Delete k) (int_range 0 40);
               ])))
    (fun ops ->
      let r =
        Relation.create ~slot_capacity:16 ~schema:(dept_schema ())
          ~primary:
            {
              Relation.idx_name = "pk";
              columns = [| 1 |];
              unique = true;
              structure = Relation.T_tree;
            }
          ()
      in
      let model = Hashtbl.create 64 in
      List.iter
        (function
          | `Insert k ->
              let expected = not (Hashtbl.mem model k) in
              let got =
                Relation.insert r [| Value.Str "d"; Value.Int k |]
                |> Result.is_ok
              in
              if got <> expected then
                QCheck.Test.fail_reportf "insert %d: got %b want %b" k got
                  expected;
              if got then Hashtbl.replace model k ()
          | `Delete k -> (
              match Relation.lookup_one r [| Value.Int k |] with
              | Some t ->
                  if not (Hashtbl.mem model k) then
                    QCheck.Test.fail_reportf "phantom %d" k;
                  ignore (Relation.delete_tuple r t);
                  Hashtbl.remove model k
              | None ->
                  if Hashtbl.mem model k then
                    QCheck.Test.fail_reportf "lost %d" k))
        ops;
      if Relation.count r <> Hashtbl.length model then
        QCheck.Test.fail_reportf "count %d, model %d" (Relation.count r)
          (Hashtbl.length model);
      (match Relation.validate r with
      | Ok () -> ()
      | Error msg -> QCheck.Test.fail_reportf "validate: %s" msg);
      true)

let () =
  Alcotest.run "mmdb_storage"
    [
      ( "value",
        [
          Alcotest.test_case "ordering" `Quick test_value_order;
          Alcotest.test_case "byte widths" `Quick test_value_width;
        ] );
      ( "tuple",
        [
          Alcotest.test_case "forwarding addresses" `Quick
            test_tuple_forwarding;
          Alcotest.test_case "probe wildcard" `Quick test_tuple_probe_wildcard;
          Alcotest.test_case "ptr deref counter" `Quick
            test_tuple_ptr_deref_counter;
        ] );
      ( "schema",
        [
          Alcotest.test_case "basics" `Quick test_schema_basics;
          Alcotest.test_case "typechecking" `Quick test_schema_typecheck;
        ] );
      ( "partition",
        [
          Alcotest.test_case "slot budget" `Quick test_partition_slots;
          Alcotest.test_case "heap budget" `Quick test_partition_heap;
        ] );
      ( "relation",
        [
          Alcotest.test_case "insert/lookup/unique" `Quick
            test_relation_insert_lookup;
          Alcotest.test_case "ordered scan via primary" `Quick
            test_relation_scan_ordered;
          Alcotest.test_case "delete" `Quick test_relation_delete;
          Alcotest.test_case "secondary index" `Quick
            test_relation_secondary_index;
          Alcotest.test_case "range lookup" `Quick test_relation_range;
          Alcotest.test_case "update with partition move" `Quick
            test_relation_update_and_move;
          Alcotest.test_case "update indexed column" `Quick
            test_relation_update_indexed_column;
          Alcotest.test_case "multiple partitions" `Quick
            test_relation_multi_partition;
          Alcotest.test_case "precomputed join pointers" `Quick
            test_precomputed_join_pointers;
          QCheck_alcotest.to_alcotest relation_model_test;
        ] );
      ( "templist",
        [
          Alcotest.test_case "descriptor algebra" `Quick test_descriptor;
          Alcotest.test_case "temp list materialize/project" `Quick
            test_temp_list;
          Alcotest.test_case "temp list index (§2.3)" `Quick
            test_temp_list_index;
          Alcotest.test_case "temp list seq/get" `Quick
            test_temp_list_to_seq_and_get;
          Alcotest.test_case "growth forces no minor collection" `Quick
            test_temp_list_growth_gc;
        ] );
      ( "misc",
        [
          QCheck_alcotest.to_alcotest value_order_property;
          Alcotest.test_case "partition accessors" `Quick
            test_partition_to_list;
          Alcotest.test_case "forwarding-move stress" `Quick
            test_forwarding_stress;
        ] );
    ]
