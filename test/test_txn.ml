(* Tests for the concurrency-control and recovery subsystem (§2.4):
   partition-level lock manager, stable log buffer, change-accumulation log
   device, crash recovery with working-set-first reload. *)

open Mmdb_storage
open Mmdb_txn

(* --- lock manager ------------------------------------------------------ *)

let res rel pid = { Lock_manager.rel; pid }

let test_lock_basics () =
  let lm = Lock_manager.create () in
  Alcotest.(check bool) "S grant" true
    (Lock_manager.acquire lm ~txn:1 (res "R" 0) Lock_manager.Shared
    = Lock_manager.Granted);
  Alcotest.(check bool) "S + S compatible" true
    (Lock_manager.acquire lm ~txn:2 (res "R" 0) Lock_manager.Shared
    = Lock_manager.Granted);
  Alcotest.(check bool) "X blocked by S" true
    (Lock_manager.acquire lm ~txn:3 (res "R" 0) Lock_manager.Exclusive
    = Lock_manager.Blocked);
  Alcotest.(check bool) "other partition free" true
    (Lock_manager.acquire lm ~txn:3 (res "R" 1) Lock_manager.Exclusive
    = Lock_manager.Granted);
  Lock_manager.release_all lm ~txn:1;
  Lock_manager.release_all lm ~txn:2;
  (* waiter 3 was promoted on release *)
  Alcotest.(check bool) "promoted after release" true
    (Lock_manager.holds lm ~txn:3 (res "R" 0) = Some Lock_manager.Exclusive)

let test_lock_reentrant_and_upgrade () =
  let lm = Lock_manager.create () in
  Alcotest.(check bool) "X grant" true
    (Lock_manager.acquire lm ~txn:1 (res "R" 0) Lock_manager.Exclusive
    = Lock_manager.Granted);
  Alcotest.(check bool) "re-acquire X" true
    (Lock_manager.acquire lm ~txn:1 (res "R" 0) Lock_manager.Exclusive
    = Lock_manager.Granted);
  Alcotest.(check bool) "S under own X" true
    (Lock_manager.acquire lm ~txn:1 (res "R" 0) Lock_manager.Shared
    = Lock_manager.Granted);
  Lock_manager.release_all lm ~txn:1;
  (* upgrade S -> X when sole holder *)
  ignore (Lock_manager.acquire lm ~txn:2 (res "R" 0) Lock_manager.Shared);
  Alcotest.(check bool) "upgrade as sole holder" true
    (Lock_manager.acquire lm ~txn:2 (res "R" 0) Lock_manager.Exclusive
    = Lock_manager.Granted)

let test_lock_deadlock () =
  let lm = Lock_manager.create () in
  ignore (Lock_manager.acquire lm ~txn:1 (res "R" 0) Lock_manager.Exclusive);
  ignore (Lock_manager.acquire lm ~txn:2 (res "R" 1) Lock_manager.Exclusive);
  Alcotest.(check bool) "t1 waits on p1" true
    (Lock_manager.acquire lm ~txn:1 (res "R" 1) Lock_manager.Exclusive
    = Lock_manager.Blocked);
  Alcotest.(check bool) "t2 requesting p0 closes the cycle" true
    (Lock_manager.acquire lm ~txn:2 (res "R" 0) Lock_manager.Exclusive
    = Lock_manager.Deadlock);
  (* victim aborts; t1 can proceed *)
  Lock_manager.release_all lm ~txn:2;
  Alcotest.(check bool) "t1 promoted" true
    (Lock_manager.holds lm ~txn:1 (res "R" 1) = Some Lock_manager.Exclusive)

(* Lock-manager safety property: under random acquire/release traffic, no
   resource ever has incompatible holders, no transaction both holds and
   waits for the same resource, and releasing everything leaves no locks. *)
let lock_manager_property =
  QCheck.Test.make ~count:80 ~name:"lock manager never grants incompatible holders"
    QCheck.(
      make
        ~print:(fun ops ->
          String.concat ";"
            (List.map
               (function
                 | `S (t, r) -> Printf.sprintf "S%d.%d" t r
                 | `X (t, r) -> Printf.sprintf "X%d.%d" t r
                 | `R t -> Printf.sprintf "R%d" t)
               ops))
        Gen.(
          list_size (int_range 0 150)
            (frequency
               [
                 (4, map2 (fun t r -> `S (t, r)) (int_range 0 4) (int_range 0 3));
                 (4, map2 (fun t r -> `X (t, r)) (int_range 0 4) (int_range 0 3));
                 (2, map (fun t -> `R t) (int_range 0 4));
               ])))
    (fun ops ->
      let lm = Lock_manager.create () in
      let check_safety () =
        for r = 0 to 3 do
          let resource = res "R" r in
          let holders =
            List.filter_map
              (fun t ->
                Option.map (fun m -> (t, m)) (Lock_manager.holds lm ~txn:t resource))
              [ 0; 1; 2; 3; 4 ]
          in
          let exclusives =
            List.filter (fun (_, m) -> m = Lock_manager.Exclusive) holders
          in
          (match exclusives with
          | [] -> ()
          | [ (tx, _) ] ->
              List.iter
                (fun (t, _) ->
                  if t <> tx then
                    QCheck.Test.fail_reportf
                      "txn %d holds alongside exclusive holder %d on r%d" t tx r)
                holders
          | _ -> QCheck.Test.fail_reportf "two exclusive holders on r%d" r);
          (* holding and waiting on the same resource is only legal for a
             shared holder queued for an exclusive upgrade *)
          List.iter
            (fun (t, m) ->
              if
                List.mem resource (Lock_manager.waiting lm ~txn:t)
                && m <> Lock_manager.Shared
              then
                QCheck.Test.fail_reportf
                  "txn %d waits on r%d it already holds exclusively" t r)
            holders
        done
      in
      List.iter
        (fun op ->
          (match op with
          | `S (t, r) ->
              ignore (Lock_manager.acquire lm ~txn:t (res "R" r) Lock_manager.Shared)
          | `X (t, r) ->
              ignore
                (Lock_manager.acquire lm ~txn:t (res "R" r) Lock_manager.Exclusive)
          | `R t -> Lock_manager.release_all lm ~txn:t);
          check_safety ())
        ops;
      for t = 0 to 4 do
        Lock_manager.release_all lm ~txn:t
      done;
      if Lock_manager.active_locks lm <> 0 then
        QCheck.Test.fail_report "locks leaked after releasing every transaction";
      true)

(* --- manager fixture ----------------------------------------------------- *)

let dept_schema () =
  Schema.make ~name:"Department"
    [ Schema.col ~ty:Schema.T_string "Name"; Schema.col ~ty:Schema.T_int "Id" ]

let add_rel mgr r =
  match Txn.add_relation mgr r with
  | Ok () -> ()
  | Error m -> Alcotest.fail m

let mk_mgr () =
  let mgr = Txn.create_manager () in
  let rel =
    Relation.create ~slot_capacity:8 ~schema:(dept_schema ())
      ~primary:
        {
          Relation.idx_name = "pk";
          columns = [| 1 |];
          unique = true;
          structure = Relation.T_tree;
        }
      ()
  in
  add_rel mgr rel;
  (mgr, rel)

let dept n i = [| Value.Str n; Value.Int i |]

let ok = function
  | Ok v -> v
  | Error f -> Alcotest.failf "unexpected failure: %a" Txn.pp_failure f

(* --- transactions --------------------------------------------------------- *)

let test_txn_commit_visible () =
  let mgr, rel = mk_mgr () in
  let t = Txn.begin_txn mgr in
  ok (Txn.insert t ~rel:"Department" (dept "Toy" 459));
  (* Deferred updates: nothing visible before commit. *)
  Alcotest.(check int) "invisible before commit" 0 (Relation.count rel);
  (match Txn.commit t with Ok () -> () | Error e -> Alcotest.fail e);
  Alcotest.(check int) "visible after commit" 1 (Relation.count rel);
  Alcotest.(check bool) "log devce has the change" true
    (Log_device.pending_count (Txn.device mgr) = 1)

let test_txn_abort_invisible () =
  let mgr, rel = mk_mgr () in
  let t = Txn.begin_txn mgr in
  ok (Txn.insert t ~rel:"Department" (dept "Toy" 459));
  Txn.abort t;
  Alcotest.(check int) "aborted txn leaves nothing" 0 (Relation.count rel);
  Alcotest.(check int) "no committed log records" 0
    (Log_device.pending_count (Txn.device mgr));
  (match Txn.commit t with
  | Ok () -> Alcotest.fail "commit after abort succeeded"
  | Error _ -> ())

let test_txn_read_own_isolation () =
  let mgr, _rel = mk_mgr () in
  let t1 = Txn.begin_txn mgr in
  ok (Txn.insert t1 ~rel:"Department" (dept "Toy" 459));
  (match Txn.commit t1 with Ok () -> () | Error e -> Alcotest.fail e);
  let t2 = Txn.begin_txn mgr in
  let found = ok (Txn.read t2 ~rel:"Department" [| Value.Int 459 |]) in
  Alcotest.(check int) "committed data readable" 1 (List.length found);
  (* reader holds a shared partition lock now *)
  let t3 = Txn.begin_txn mgr in
  let tuple = List.hd found in
  (match Txn.delete t3 ~rel:"Department" tuple with
  | Error Txn.Would_block -> ()
  | Ok () -> Alcotest.fail "X granted over S"
  | Error f -> Alcotest.failf "unexpected: %a" Txn.pp_failure f);
  Txn.abort t2;
  Txn.abort t3

let test_txn_update_and_delete () =
  let mgr, rel = mk_mgr () in
  let t1 = Txn.begin_txn mgr in
  ok (Txn.insert t1 ~rel:"Department" (dept "Toy" 459));
  ok (Txn.insert t1 ~rel:"Department" (dept "Shoe" 409));
  (match Txn.commit t1 with Ok () -> () | Error e -> Alcotest.fail e);
  let toy = Option.get (Relation.lookup_one rel [| Value.Int 459 |]) in
  let t2 = Txn.begin_txn mgr in
  ok (Txn.update t2 ~rel:"Department" toy ~col:0 (Value.Str "Toys"));
  ok (Txn.delete t2 ~rel:"Department"
        (Option.get (Relation.lookup_one rel [| Value.Int 409 |])));
  (match Txn.commit t2 with Ok () -> () | Error e -> Alcotest.fail e);
  Alcotest.(check int) "one left" 1 (Relation.count rel);
  Alcotest.(check bool) "update applied" true
    (Tuple.get toy 0 = Value.Str "Toys")

let test_txn_unique_violation_aborts () =
  let mgr, rel = mk_mgr () in
  let t1 = Txn.begin_txn mgr in
  ok (Txn.insert t1 ~rel:"Department" (dept "Toy" 459));
  (match Txn.commit t1 with Ok () -> () | Error e -> Alcotest.fail e);
  let t2 = Txn.begin_txn mgr in
  ok (Txn.insert t2 ~rel:"Department" (dept "Paint" 455));
  ok (Txn.insert t2 ~rel:"Department" (dept "Dup" 459));
  (match Txn.commit t2 with
  | Ok () -> Alcotest.fail "unique violation committed"
  | Error _ -> ());
  (* The whole transaction rolled back, including the valid first insert. *)
  Alcotest.(check int) "atomic rollback" 1 (Relation.count rel);
  Alcotest.(check bool) "paint absent" true
    (Relation.lookup_one rel [| Value.Int 455 |] = None)

let test_txn_read_range () =
  let mgr, _rel = mk_mgr () in
  let t = Txn.begin_txn mgr in
  for i = 1 to 10 do
    ok (Txn.insert t ~rel:"Department" (dept "D" i))
  done;
  (match Txn.commit t with Ok () -> () | Error e -> Alcotest.fail e);
  let t2 = Txn.begin_txn mgr in
  let found =
    ok
      (Txn.read_range t2 ~rel:"Department" ~lo:[| Value.Int 3 |]
         ~hi:[| Value.Int 6 |] ())
  in
  Alcotest.(check int) "four in range" 4 (List.length found);
  (* the range read shared-locked the partition; a writer blocks *)
  let t3 = Txn.begin_txn mgr in
  (match Txn.delete t3 ~rel:"Department" (List.hd found) with
  | Error Txn.Would_block -> ()
  | Ok () -> Alcotest.fail "X over S granted"
  | Error f -> Alcotest.failf "unexpected %a" Txn.pp_failure f);
  Txn.abort t2;
  Txn.abort t3

let test_txn_two_writers_different_relations () =
  (* growth locks are per-relation, so writers on different relations do
     not conflict *)
  let mgr = Txn.create_manager () in
  let mk name =
    let s =
      Schema.make ~name
        [ Schema.col ~ty:Schema.T_string "Name"; Schema.col ~ty:Schema.T_int "Id" ]
    in
    let r =
      Relation.create ~schema:s
        ~primary:
          {
            Relation.idx_name = "pk";
            columns = [| 1 |];
            unique = true;
            structure = Relation.T_tree;
          }
        ()
    in
    add_rel mgr r;
    r
  in
  let _a = mk "A" and _b = mk "B" in
  let t1 = Txn.begin_txn mgr and t2 = Txn.begin_txn mgr in
  ok (Txn.insert t1 ~rel:"A" (dept "x" 1));
  ok (Txn.insert t2 ~rel:"B" (dept "y" 1));
  (match Txn.commit t1 with Ok () -> () | Error e -> Alcotest.fail e);
  (match Txn.commit t2 with Ok () -> () | Error e -> Alcotest.fail e);
  Alcotest.(check int) "both applied" 1
    (Relation.count (Option.get (Txn.relation mgr "A")))

let test_txn_insert_conflict_growth_lock () =
  let mgr, _rel = mk_mgr () in
  let t1 = Txn.begin_txn mgr and t2 = Txn.begin_txn mgr in
  ok (Txn.insert t1 ~rel:"Department" (dept "a" 1));
  (match Txn.insert t2 ~rel:"Department" (dept "b" 2) with
  | Error Txn.Would_block -> ()
  | Ok () -> Alcotest.fail "concurrent growth permitted"
  | Error f -> Alcotest.failf "unexpected %a" Txn.pp_failure f);
  (match Txn.commit t1 with Ok () -> () | Error e -> Alcotest.fail e);
  (* after t1 released, t2 retries and proceeds *)
  ok (Txn.insert t2 ~rel:"Department" (dept "b" 2));
  (match Txn.commit t2 with Ok () -> () | Error e -> Alcotest.fail e);
  Alcotest.(check int) "both inserted" 2
    (Relation.count (Option.get (Txn.relation mgr "Department")))

(* --- log device / disk store ---------------------------------------------- *)

let test_log_device_propagation () =
  let mgr, _rel = mk_mgr () in
  let t = Txn.begin_txn mgr in
  for i = 1 to 5 do
    ok (Txn.insert t ~rel:"Department" (dept "D" i))
  done;
  (match Txn.commit t with Ok () -> () | Error e -> Alcotest.fail e);
  let dev = Txn.device mgr and store = Txn.store mgr in
  Alcotest.(check int) "five accumulated" 5 (Log_device.pending_count dev);
  Alcotest.(check int) "disk copy still empty" 0
    (Disk_store.tuple_count store ~rel:"Department");
  Alcotest.(check int) "partial propagate" 2
    (Log_device.propagate ~limit:2 dev);
  Alcotest.(check int) "two on disk" 2
    (Disk_store.tuple_count store ~rel:"Department");
  Alcotest.(check int) "rest propagate" 3 (Log_device.propagate dev);
  Alcotest.(check int) "all on disk" 5
    (Disk_store.tuple_count store ~rel:"Department");
  Alcotest.(check int) "accumulation empty" 0 (Log_device.pending_count dev)

let test_checkpoint () =
  let mgr, rel = mk_mgr () in
  let t = Txn.begin_txn mgr in
  for i = 1 to 20 do
    ok (Txn.insert t ~rel:"Department" (dept "D" i))
  done;
  (match Txn.commit t with Ok () -> () | Error e -> Alcotest.fail e);
  Txn.checkpoint_all mgr;
  Alcotest.(check int) "checkpoint wrote all tuples" 20
    (Disk_store.tuple_count (Txn.store mgr) ~rel:"Department");
  Alcotest.(check int) "log drained" 0
    (Log_device.pending_count (Txn.device mgr));
  (* dirty flags cleared *)
  Alcotest.(check bool) "partitions clean" true
    (List.for_all
       (fun p -> not (Partition.is_dirty p))
       (Relation.partitions rel))

(* --- scheduler ----------------------------------------------------------- *)

let test_scheduler_serial_equivalent () =
  (* Non-conflicting scripts all commit, with no restarts. *)
  let mgr, rel = mk_mgr () in
  let scripts =
    List.init 4 (fun k ->
        List.init 5 (fun i ->
            Scheduler.Op_insert
              { rel = "Department"; values = dept "d" ((k * 10) + i) }))
  in
  (match Scheduler.run mgr scripts with
  | Ok stats ->
      Alcotest.(check int) "all committed" 4 stats.Scheduler.committed;
      Alcotest.(check int) "no deadlocks" 0 stats.Scheduler.deadlock_restarts;
      Alcotest.(check int) "all ops ran" 20 stats.Scheduler.ops_executed
  | Error _ -> Alcotest.fail "stalled");
  Alcotest.(check int) "twenty tuples" 20 (Relation.count rel);
  Alcotest.(check bool) "no locks leak" true
    (Lock_manager.active_locks (Txn.lock_manager mgr) = 0)

let test_scheduler_conflicting_writers () =
  (* All scripts insert into the same relation: the growth lock serializes
     them, so they must block and retry — but all eventually commit. *)
  let mgr, rel = mk_mgr () in
  let scripts =
    List.init 6 (fun k ->
        [
          Scheduler.Op_insert { rel = "Department"; values = dept "x" (k * 2) };
          Scheduler.Op_insert
            { rel = "Department"; values = dept "y" ((k * 2) + 1) };
        ])
  in
  (match Scheduler.run mgr scripts with
  | Ok stats ->
      Alcotest.(check int) "all committed" 6 stats.Scheduler.committed;
      Alcotest.(check bool) "writers actually blocked" true
        (stats.Scheduler.blocked_retries > 0)
  | Error _ -> Alcotest.fail "stalled");
  Alcotest.(check int) "all rows present" 12 (Relation.count rel)

let test_scheduler_deadlock_restart () =
  (* Two transactions read opposite tuples then update the other's: a
     classic crossing pattern that deadlocks; the scheduler restarts the
     victim and both commit. *)
  let mgr, rel = mk_mgr () in
  (* two tuples in two different partitions (slot_capacity 8, so force a
     second partition with filler) *)
  let t = Txn.begin_txn mgr in
  for i = 1 to 12 do
    ok (Txn.insert t ~rel:"Department" (dept "d" i))
  done;
  (match Txn.commit t with Ok () -> () | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "two partitions" true
    (List.length (Relation.partitions rel) >= 2);
  let s1 =
    [
      Scheduler.Op_read { rel = "Department"; key = [| Value.Int 1 |] };
      Scheduler.Op_update
        { rel = "Department"; key = [| Value.Int 12 |]; col = 0; value = Value.Str "a" };
    ]
  in
  let s2 =
    [
      Scheduler.Op_read { rel = "Department"; key = [| Value.Int 12 |] };
      Scheduler.Op_update
        { rel = "Department"; key = [| Value.Int 1 |]; col = 0; value = Value.Str "b" };
    ]
  in
  match Scheduler.run mgr [ s1; s2 ] with
  | Ok stats ->
      Alcotest.(check int) "both committed" 2 stats.Scheduler.committed;
      Alcotest.(check bool) "a deadlock was broken" true
        (stats.Scheduler.deadlock_restarts > 0)
  | Error _ -> Alcotest.fail "stalled"

let test_scheduler_stall_budget () =
  (* The scheduler runs one op per live transaction per round, so a
     10-op script cannot finish inside a 3-round budget: [run] must give
     up and report the stall as [Error stats] instead of spinning. *)
  let mgr, _rel = mk_mgr () in
  let scripts =
    List.init 2 (fun k ->
        List.init 10 (fun i ->
            Scheduler.Op_insert
              { rel = "Department"; values = dept "s" ((k * 100) + i) }))
  in
  match Scheduler.run ~max_rounds:3 mgr scripts with
  | Ok _ -> Alcotest.fail "expected a stall with max_rounds:3"
  | Error stats ->
      Alcotest.(check int) "round budget honoured" 3 stats.Scheduler.rounds;
      Alcotest.(check int) "nothing committed" 0 stats.Scheduler.committed;
      Alcotest.(check bool) "partial progress recorded" true
        (stats.Scheduler.ops_executed > 0)

(* Money-conservation property: concurrent transfer transactions must
   preserve the total balance — torn (non-atomic) application or lost
   updates would break it. *)
let scheduler_conservation_property =
  QCheck.Test.make ~count:30 ~name:"concurrent transfers conserve total balance"
    QCheck.(pair (int_range 1 12) (int_range 0 100))
    (fun (n_txns, seed_extra) ->
      (* disjoint account pairs per transaction: absolute-value writes then
         conserve the total iff each transfer applies atomically *)
      let n_accounts = (2 * n_txns) + (seed_extra mod 5) in
      let mgr = Txn.create_manager () in
      let schema =
        Schema.make ~name:"Acct"
          [ Schema.col ~ty:Schema.T_int "Id"; Schema.col ~ty:Schema.T_int "Bal" ]
      in
      let rel =
        Relation.create ~slot_capacity:4 ~schema
          ~primary:
            {
              Relation.idx_name = "pk";
              columns = [| 0 |];
              unique = true;
              structure = Relation.T_tree;
            }
          ()
      in
      (match Txn.add_relation mgr rel with
      | Ok () -> ()
      | Error m -> QCheck.Test.fail_report m);
      let t = Txn.begin_txn mgr in
      for i = 0 to n_accounts - 1 do
        match Txn.insert t ~rel:"Acct" [| Value.Int i; Value.Int 100 |] with
        | Ok () -> ()
        | Error _ -> QCheck.Test.fail_report "seed failed"
      done;
      (match Txn.commit t with
      | Ok () -> ()
      | Error m -> QCheck.Test.fail_report m);
      let rng = Mmdb_util.Rng.create ~seed:(n_txns + (100 * seed_extra)) () in
      (* Each transfer reads both balances, then writes balance+10 to one
         and balance-10 at the other via read-then-update ops.  Updates are
         expressed as absolute writes computed from the committed state, so
         conservation additionally requires that no transfer interleaves
         between another's read and write — i.e. two-phase locking is
         actually isolating them. *)
      let order = Array.init n_accounts Fun.id in
      Mmdb_util.Rng.shuffle rng order;
      let scripts =
        List.init n_txns (fun k ->
            let a = order.(2 * k) and b = order.((2 * k) + 1) in
            [
              (* a transfer as delete+insert pairs: 10 units from a to b.
                 Atomic commit means either both sides land or neither. *)
              Scheduler.Op_delete { rel = "Acct"; key = [| Value.Int a |] };
              Scheduler.Op_insert
                { rel = "Acct"; values = [| Value.Int a; Value.Int 90 |] };
              Scheduler.Op_delete { rel = "Acct"; key = [| Value.Int b |] };
              Scheduler.Op_insert
                { rel = "Acct"; values = [| Value.Int b; Value.Int 110 |] };
            ])
      in
      (match Scheduler.run mgr scripts with
      | Ok stats ->
          if stats.Scheduler.committed + stats.Scheduler.failed <> n_txns then
            QCheck.Test.fail_report "transactions lost"
      | Error _ -> QCheck.Test.fail_report "scheduler stalled");
      (* every account exists exactly once and the relation is intact *)
      (match Relation.validate rel with
      | Ok () -> ()
      | Error m -> QCheck.Test.fail_reportf "validate: %s" m);
      if Relation.count rel <> n_accounts then
        QCheck.Test.fail_reportf "account count %d <> %d" (Relation.count rel)
          n_accounts;
      (* conservation: each committed transfer moves 10 units between its
         own pair of accounts; a torn transfer (one side applied) breaks
         the 100·n total *)
      let total = ref 0 in
      Relation.iter rel (fun tu ->
          match Tuple.get tu 1 with Value.Int b -> total := !total + b | _ -> ());
      if !total <> 100 * n_accounts then
        QCheck.Test.fail_reportf "balance leaked: %d <> %d" !total
          (100 * n_accounts);
      true)

(* --- recovery --------------------------------------------------------------- *)

let populate_for_recovery () =
  let mgr, rel = mk_mgr () in
  (* 12 committed departments, checkpointed. *)
  let t = Txn.begin_txn mgr in
  for i = 1 to 12 do
    ok (Txn.insert t ~rel:"Department" (dept (Printf.sprintf "D%d" i) i))
  done;
  (match Txn.commit t with Ok () -> () | Error e -> Alcotest.fail e);
  Txn.checkpoint_all mgr;
  (* After the checkpoint: one more committed txn (un-propagated), one update,
     one delete, and one uncommitted txn that must be lost. *)
  let t2 = Txn.begin_txn mgr in
  ok (Txn.insert t2 ~rel:"Department" (dept "D13" 13));
  ok
    (Txn.update t2 ~rel:"Department"
       (Option.get (Relation.lookup_one rel [| Value.Int 1 |]))
       ~col:0 (Value.Str "Renamed"));
  ok
    (Txn.delete t2 ~rel:"Department"
       (Option.get (Relation.lookup_one rel [| Value.Int 2 |])));
  (match Txn.commit t2 with Ok () -> () | Error e -> Alcotest.fail e);
  let t3 = Txn.begin_txn mgr in
  ok (Txn.insert t3 ~rel:"Department" (dept "Lost" 99));
  (* crash now: t3 never commits; the log device never propagated t2 *)
  mgr

let test_recovery_round_trip () =
  let crashed = populate_for_recovery () in
  let state =
    Recovery.recover ~store:(Txn.store crashed) ~device:(Txn.device crashed)
      ~working_set:[ "Department" ]
  in
  Alcotest.(check int) "clean crash: no issues" 0
    (List.length (Recovery.issues state));
  let mgr = Recovery.manager state in
  let rel = Option.get (Txn.relation mgr "Department") in
  (* 12 checkpointed + 1 inserted - 1 deleted = 12; uncommitted insert lost *)
  Alcotest.(check int) "tuple count after recovery" 12 (Relation.count rel);
  Alcotest.(check bool) "uncommitted insert lost" true
    (Relation.lookup_one rel [| Value.Int 99 |] = None);
  Alcotest.(check bool) "committed insert recovered" true
    (Relation.lookup_one rel [| Value.Int 13 |] <> None);
  Alcotest.(check bool) "committed delete honoured" true
    (Relation.lookup_one rel [| Value.Int 2 |] = None);
  (match Relation.lookup_one rel [| Value.Int 1 |] with
  | Some t ->
      Alcotest.(check bool) "committed update merged on the fly" true
        (Tuple.get t 0 = Value.Str "Renamed")
  | None -> Alcotest.fail "tuple 1 missing");
  (* log records were merged, not lost *)
  let stats = Recovery.working_set_stats state in
  Alcotest.(check bool) "log records merged" true
    (stats.Recovery.log_records_merged >= 3);
  Alcotest.(check bool) "partitions read" true
    (stats.Recovery.partitions_read >= 1);
  Recovery.finish_background state;
  Alcotest.(check bool) "relation validates after recovery" true
    (Relation.validate rel = Ok ())

(* Auto-commit DML outside BEGIN ... COMMIT is logged like any
   transaction: every acknowledged change survives a crash. *)
let test_recovery_autocommit () =
  let sess = Mmdb_lang.Interp.session (Mmdb_core.Db.create ()) in
  (match
     Mmdb_lang.Interp.exec_string sess
       "CREATE TABLE T (K int PRIMARY KEY, V int); INSERT INTO T VALUES (1, \
        10); INSERT INTO T VALUES (2, 20); INSERT INTO T VALUES (3, 30); \
        UPDATE T SET V = 21 WHERE K = 2; DELETE FROM T WHERE K = 3;"
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let crashed = Mmdb_lang.Interp.manager sess in
  let state =
    Recovery.recover ~store:(Txn.store crashed) ~device:(Txn.device crashed)
      ~working_set:[ "T" ]
  in
  let rel = Option.get (Txn.relation (Recovery.manager state) "T") in
  let v k =
    Option.map
      (fun t -> Tuple.get t 1)
      (Relation.lookup_one rel [| Value.Int k |])
  in
  Alcotest.(check int) "tuple count after recovery" 2 (Relation.count rel);
  Alcotest.(check bool) "insert recovered" true (v 1 = Some (Value.Int 10));
  Alcotest.(check bool) "update recovered" true (v 2 = Some (Value.Int 21));
  Alcotest.(check bool) "delete recovered" true (v 3 = None)

let test_recovery_working_set_first () =
  (* Two relations; only one in the working set.  The manager is usable for
     the working-set relation before background loading completes. *)
  let mgr = Txn.create_manager () in
  let mk name =
    let s =
      Schema.make ~name
        [ Schema.col ~ty:Schema.T_string "Name"; Schema.col ~ty:Schema.T_int "Id" ]
    in
    let r =
      Relation.create ~schema:s
        ~primary:
          {
            Relation.idx_name = "pk";
            columns = [| 1 |];
            unique = true;
            structure = Relation.T_tree;
          }
        ()
    in
    add_rel mgr r;
    r
  in
  let _hot = mk "Hot" and _cold = mk "Cold" in
  let t = Txn.begin_txn mgr in
  for i = 1 to 5 do
    ok (Txn.insert t ~rel:"Hot" (dept "h" i));
    ok (Txn.insert t ~rel:"Cold" (dept "c" i))
  done;
  (match Txn.commit t with Ok () -> () | Error e -> Alcotest.fail e);
  Txn.checkpoint_all mgr;
  let state =
    Recovery.recover ~store:(Txn.store mgr) ~device:(Txn.device mgr)
      ~working_set:[ "Hot" ]
  in
  let mgr' = Recovery.manager state in
  Alcotest.(check bool) "hot online immediately" true
    (Txn.relation mgr' "Hot" <> None);
  Alcotest.(check bool) "cold not yet loaded" true
    (Txn.relation mgr' "Cold" = None);
  (* normal processing against the working set works now *)
  let t' = Txn.begin_txn mgr' in
  let found = ok (Txn.read t' ~rel:"Hot" [| Value.Int 3 |]) in
  Alcotest.(check int) "read during background load" 1 (List.length found);
  Txn.abort t';
  Recovery.finish_background state;
  Alcotest.(check bool) "cold loaded by background" true
    (Txn.relation mgr' "Cold" <> None);
  Alcotest.(check int) "cold complete" 5
    (Relation.count (Option.get (Txn.relation mgr' "Cold")))

let test_recovery_preserves_secondary_indexes () =
  let mgr, rel = mk_mgr () in
  (match
     Relation.create_index rel ~idx_name:"by_name" ~columns:[| 0 |]
       ~structure:Relation.Mod_linear_hash
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (* re-checkpoint so the catalog records the secondary index *)
  Txn.checkpoint_all mgr;
  let t = Txn.begin_txn mgr in
  for i = 1 to 6 do
    ok (Txn.insert t ~rel:"Department" (dept (Printf.sprintf "N%d" i) i))
  done;
  (match Txn.commit t with Ok () -> () | Error e -> Alcotest.fail e);
  let state =
    Recovery.recover ~store:(Txn.store mgr) ~device:(Txn.device mgr)
      ~working_set:[ "Department" ]
  in
  Recovery.finish_background state;
  let rel' = Option.get (Txn.relation (Recovery.manager state) "Department") in
  Alcotest.(check int) "two indexes rebuilt" 2
    (List.length (Relation.index_defs rel'));
  (match Relation.lookup_one ~index:"by_name" rel' [| Value.Str "N3" |] with
  | Some t -> Alcotest.(check bool) "secondary works" true (Tuple.get t 1 = Value.Int 3)
  | None -> Alcotest.fail "secondary index lost");
  Alcotest.(check bool) "validates" true (Relation.validate rel' = Ok ())

let test_recovery_partial_propagation () =
  (* some changes propagated to disk, some still in the accumulation log *)
  let mgr, _rel = mk_mgr () in
  let t = Txn.begin_txn mgr in
  for i = 1 to 10 do
    ok (Txn.insert t ~rel:"Department" (dept "D" i))
  done;
  (match Txn.commit t with Ok () -> () | Error e -> Alcotest.fail e);
  ignore (Log_device.propagate ~limit:4 (Txn.device mgr));
  Alcotest.(check int) "six still pending" 6
    (Log_device.pending_count (Txn.device mgr));
  let state =
    Recovery.recover ~store:(Txn.store mgr) ~device:(Txn.device mgr)
      ~working_set:[ "Department" ]
  in
  let rel' = Option.get (Txn.relation (Recovery.manager state) "Department") in
  Alcotest.(check int) "all ten recovered" 10 (Relation.count rel')

let test_recovery_foreign_key_fixup () =
  (* Employee -> Department pointers must survive a crash. *)
  let mgr = Txn.create_manager () in
  let dept_rel =
    Relation.create ~schema:(dept_schema ())
      ~primary:
        {
          Relation.idx_name = "pk";
          columns = [| 1 |];
          unique = true;
          structure = Relation.T_tree;
        }
      ()
  in
  let emp_schema =
    Schema.make ~name:"Employee"
      [
        Schema.col ~ty:Schema.T_string "Name";
        Schema.col ~ty:Schema.T_int "Id";
        Schema.col ~ty:(Schema.T_ref "Department") "Dept";
      ]
  in
  let emp_rel =
    Relation.create ~schema:emp_schema
      ~primary:
        {
          Relation.idx_name = "pk";
          columns = [| 1 |];
          unique = true;
          structure = Relation.T_tree;
        }
      ()
  in
  add_rel mgr dept_rel;
  add_rel mgr emp_rel;
  let t = Txn.begin_txn mgr in
  ok (Txn.insert t ~rel:"Department" (dept "Toy" 459));
  (match Txn.commit t with Ok () -> () | Error e -> Alcotest.fail e);
  let toy = Option.get (Relation.lookup_one dept_rel [| Value.Int 459 |]) in
  let t2 = Txn.begin_txn mgr in
  ok
    (Txn.insert t2 ~rel:"Employee"
       [| Value.Str "Dave"; Value.Int 23; Value.Ref toy |]);
  (match Txn.commit t2 with Ok () -> () | Error e -> Alcotest.fail e);
  (* crash without checkpoint: everything lives in the accumulation log *)
  let state =
    Recovery.recover ~store:(Txn.store mgr) ~device:(Txn.device mgr)
      ~working_set:[]
  in
  Recovery.finish_background state;
  let mgr' = Recovery.manager state in
  let emp' = Option.get (Txn.relation mgr' "Employee") in
  let dave = Option.get (Relation.lookup_one emp' [| Value.Int 23 |]) in
  (match Tuple.get dave 2 with
  | Value.Ref d ->
      Alcotest.(check bool) "pointer re-targeted to rebuilt department" true
        (Tuple.get d 0 = Value.Str "Toy")
  | v ->
      Alcotest.failf "expected rebuilt pointer, got %s" (Value.to_string v));
  Alcotest.(check int) "fixups recorded" 1
    (Recovery.background_stats state).Recovery.pointer_fixups

let test_recovery_moved_partition () =
  (* A tuple checkpointed into partition p is later moved to another
     partition by a heap-overflowing string update; subsequent updates and
     deletes of the moved tuple carry the new pid in their log records but
     must still find the tuple in the checkpointed image (location map). *)
  let mgr = Txn.create_manager () in
  let rel =
    Relation.create ~slot_capacity:4 ~heap_capacity:64 ~schema:(dept_schema ())
      ~primary:
        {
          Relation.idx_name = "pk";
          columns = [| 1 |];
          unique = true;
          structure = Relation.T_tree;
        }
      ()
  in
  add_rel mgr rel;
  let t = Txn.begin_txn mgr in
  for i = 1 to 4 do
    ok (Txn.insert t ~rel:"Department" (dept (String.make 8 'a') i))
  done;
  (match Txn.commit t with Ok () -> () | Error e -> Alcotest.fail e);
  Txn.checkpoint_all mgr;
  let tup i = Option.get (Relation.lookup_one rel [| Value.Int i |]) in
  let pid_of tu = (Tuple.resolve tu).Value.pid in
  let p1_before = pid_of (tup 1) and p2_before = pid_of (tup 2) in
  (* big-string updates overflow the 64-byte partition heap: both move *)
  let t2 = Txn.begin_txn mgr in
  ok
    (Txn.update t2 ~rel:"Department" (tup 1) ~col:0
       (Value.Str (String.make 48 'x')));
  ok
    (Txn.update t2 ~rel:"Department" (tup 2) ~col:0
       (Value.Str (String.make 56 'y')));
  (match Txn.commit t2 with Ok () -> () | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "tuple 1 moved partitions" true
    (pid_of (tup 1) <> p1_before);
  Alcotest.(check bool) "tuple 2 moved partitions" true
    (pid_of (tup 2) <> p2_before);
  (* update and delete the moved tuples, then propagate so the changes hit
     the disk images written before the move *)
  let t3 = Txn.begin_txn mgr in
  ok
    (Txn.update t3 ~rel:"Department" (tup 1) ~col:0
       (Value.Str (String.make 48 'z')));
  ok (Txn.delete t3 ~rel:"Department" (tup 2));
  (match Txn.commit t3 with Ok () -> () | Error e -> Alcotest.fail e);
  ignore (Log_device.propagate (Txn.device mgr));
  (* crash + recover *)
  let state =
    Recovery.recover ~store:(Txn.store mgr) ~device:(Txn.device mgr)
      ~working_set:[ "Department" ]
  in
  Recovery.finish_background state;
  Alcotest.(check int) "no issues" 0 (List.length (Recovery.issues state));
  let rel' = Option.get (Txn.relation (Recovery.manager state) "Department") in
  Alcotest.(check int) "three tuples survive" 3 (Relation.count rel');
  (match Relation.lookup_one rel' [| Value.Int 1 |] with
  | Some tu ->
      Alcotest.(check bool) "moved tuple carries final update" true
        (Tuple.get tu 0 = Value.Str (String.make 48 'z'))
  | None -> Alcotest.fail "moved tuple 1 lost");
  Alcotest.(check bool) "moved tuple 2 deleted" true
    (Relation.lookup_one rel' [| Value.Int 2 |] = None);
  Alcotest.(check bool) "validates" true (Relation.validate rel' = Ok ())

let test_recovery_dropped_relation_records () =
  (* Log records for a relation the disk catalog no longer knows must be
     reported as orphans, not replayed and not fatal. *)
  let mgr, _rel = mk_mgr () in
  let t = Txn.begin_txn mgr in
  ok (Txn.insert t ~rel:"Department" (dept "Toy" 459));
  (match Txn.commit t with Ok () -> () | Error e -> Alcotest.fail e);
  (* checkpoint truncates the retained log, so the forged records below
     (whose fresh buffer numbers LSNs from 1) are the only ones left *)
  Txn.checkpoint_all mgr;
  (* committed records for a relation absent from the catalog, as if the
     relation had been dropped after the records were logged *)
  let side = Log_buffer.create () in
  Log_buffer.append side ~txn:9 ~rel:"Ghost" ~pid:0
    (Log_record.Insert
       { Log_record.sid = 100_000; svalues = [| Log_record.S_int 1 |] });
  Log_buffer.append side ~txn:9 ~rel:"Ghost" ~pid:0
    (Log_record.Update
       { tid = 100_000; col = 0; svalue = Log_record.S_int 2 });
  ignore (Log_buffer.commit side ~txn:9);
  Log_device.absorb (Txn.device mgr) side;
  let state =
    Recovery.recover ~store:(Txn.store mgr) ~device:(Txn.device mgr)
      ~working_set:[ "Department" ]
  in
  Recovery.finish_background state;
  (match Recovery.issues state with
  | [ Recovery.Orphan_log_records { rel = "Ghost"; records = 2 } ] -> ()
  | is ->
      Alcotest.failf "expected one Ghost orphan issue, got: %a"
        (Fmt.list ~sep:Fmt.semi Recovery.pp_issue)
        is);
  let rel' = Option.get (Txn.relation (Recovery.manager state) "Department") in
  Alcotest.(check int) "department intact" 1 (Relation.count rel');
  Alcotest.(check bool) "ghost never materialized" true
    (Txn.relation (Recovery.manager state) "Ghost" = None)

let test_recovery_empty_working_set () =
  (* recovery with an empty working set must return an operational (if
     empty) manager; everything loads in the background phase *)
  let mgr, _rel = mk_mgr () in
  let t = Txn.begin_txn mgr in
  for i = 1 to 6 do
    ok (Txn.insert t ~rel:"Department" (dept "D" i))
  done;
  (match Txn.commit t with Ok () -> () | Error e -> Alcotest.fail e);
  let state =
    Recovery.recover ~store:(Txn.store mgr) ~device:(Txn.device mgr)
      ~working_set:[]
  in
  Alcotest.(check int) "nothing loaded in phase 1" 0
    (List.length (Recovery.loaded_relations state));
  Alcotest.(check int) "phase-1 stats untouched" 0
    (Recovery.working_set_stats state).Recovery.tuples_restored;
  Recovery.finish_background state;
  Alcotest.(check int) "no issues" 0 (List.length (Recovery.issues state));
  let rel' = Option.get (Txn.relation (Recovery.manager state) "Department") in
  Alcotest.(check int) "all six loaded in background" 6 (Relation.count rel')

(* Recovery round-trip property: any committed history (inserts, deletes,
   updates, checkpoints, partial propagation) must be reconstructed exactly
   by crash recovery; uncommitted work must vanish. *)
let recovery_roundtrip_property =
  QCheck.Test.make ~count:40 ~name:"recovery reconstructs committed state"
    QCheck.(
      make
        ~print:(fun ops ->
          String.concat ";"
            (List.map
               (function
                 | `Ins k -> Printf.sprintf "I%d" k
                 | `Del k -> Printf.sprintf "D%d" k
                 | `Upd k -> Printf.sprintf "U%d" k
                 | `Commit -> "C"
                 | `Abort -> "A"
                 | `Checkpoint -> "K"
                 | `Propagate -> "P")
               ops))
        Gen.(
          list_size (int_range 0 120)
            (frequency
               [
                 (6, map (fun k -> `Ins k) (int_range 0 40));
                 (3, map (fun k -> `Del k) (int_range 0 40));
                 (3, map (fun k -> `Upd k) (int_range 0 40));
                 (3, return `Commit);
                 (1, return `Abort);
                 (1, return `Checkpoint);
                 (1, return `Propagate);
               ])))
    (fun ops ->
      let mgr, rel = mk_mgr () in
      (* model of committed state: key -> name *)
      let committed : (int, string) Hashtbl.t = Hashtbl.create 32 in
      let pending = ref [] in
      let txn = ref (Txn.begin_txn mgr) in
      let declare_or_skip f = match f () with Ok () -> true | Error _ -> false in
      List.iter
        (fun op ->
          match op with
          | `Ins k ->
              let name = Printf.sprintf "n%d" k in
              if
                (not (Hashtbl.mem committed k))
                && not (List.exists (fun (op, k') -> op = `I && k' = k) !pending)
              then begin
                if declare_or_skip (fun () -> Txn.insert !txn ~rel:"Department" (dept name k))
                then pending := (`I, k) :: !pending
              end
          | `Del k -> (
              match Relation.lookup_one rel [| Value.Int k |] with
              | Some tu ->
                  if
                    not
                      (List.exists (fun (op, k') -> (op = `D || op = `U) && k' = k) !pending)
                  then begin
                    if declare_or_skip (fun () -> Txn.delete !txn ~rel:"Department" tu)
                    then pending := (`D, k) :: !pending
                  end
              | None -> ())
          | `Upd k -> (
              match Relation.lookup_one rel [| Value.Int k |] with
              | Some tu ->
                  if
                    not
                      (List.exists (fun (op, k') -> (op = `D || op = `U) && k' = k) !pending)
                  then begin
                    if
                      declare_or_skip (fun () ->
                          Txn.update !txn ~rel:"Department" tu ~col:0
                            (Value.Str (Printf.sprintf "u%d" k)))
                    then pending := (`U, k) :: !pending
                  end
              | None -> ())
          | `Commit ->
              (match Txn.commit !txn with
              | Ok () ->
                  List.iter
                    (fun (op, k) ->
                      match op with
                      | `I -> Hashtbl.replace committed k (Printf.sprintf "n%d" k)
                      | `D -> Hashtbl.remove committed k
                      | `U -> Hashtbl.replace committed k (Printf.sprintf "u%d" k))
                    (List.rev !pending)
              | Error _ -> ());
              pending := [];
              txn := Txn.begin_txn mgr
          | `Abort ->
              Txn.abort !txn;
              pending := [];
              txn := Txn.begin_txn mgr
          | `Checkpoint -> Txn.checkpoint_all mgr
          | `Propagate -> ignore (Log_device.propagate ~limit:3 (Txn.device mgr)))
        ops;
      (* crash with the live transaction possibly holding uncommitted work *)
      let state =
        Recovery.recover ~store:(Txn.store mgr) ~device:(Txn.device mgr)
          ~working_set:[ "Department" ]
      in
      Recovery.finish_background state;
      (match Recovery.issues state with
      | [] -> ()
      | is ->
          QCheck.Test.fail_reportf "clean crash produced issues: %a"
            (Fmt.list ~sep:Fmt.semi Recovery.pp_issue)
            is);
      let rel' =
        Option.get (Txn.relation (Recovery.manager state) "Department")
      in
      if Relation.count rel' <> Hashtbl.length committed then
        QCheck.Test.fail_reportf "count %d, model %d" (Relation.count rel')
          (Hashtbl.length committed);
      Hashtbl.iter
        (fun k name ->
          match Relation.lookup_one rel' [| Value.Int k |] with
          | Some tu ->
              if Tuple.get tu 0 <> Value.Str name then
                QCheck.Test.fail_reportf "key %d has wrong value" k
          | None -> QCheck.Test.fail_reportf "key %d lost" k)
        committed;
      (match Relation.validate rel' with
      | Ok () -> ()
      | Error m -> QCheck.Test.fail_reportf "validate: %s" m);
      true)

let () =
  Alcotest.run "mmdb_txn"
    [
      ( "locks",
        [
          Alcotest.test_case "grant/block/promote" `Quick test_lock_basics;
          Alcotest.test_case "reentrancy and upgrade" `Quick
            test_lock_reentrant_and_upgrade;
          Alcotest.test_case "deadlock detection" `Quick test_lock_deadlock;
          QCheck_alcotest.to_alcotest lock_manager_property;
        ] );
      ( "transactions",
        [
          Alcotest.test_case "commit visibility" `Quick test_txn_commit_visible;
          Alcotest.test_case "abort leaves no trace" `Quick
            test_txn_abort_invisible;
          Alcotest.test_case "read isolation via S locks" `Quick
            test_txn_read_own_isolation;
          Alcotest.test_case "update and delete" `Quick
            test_txn_update_and_delete;
          Alcotest.test_case "unique violation aborts atomically" `Quick
            test_txn_unique_violation_aborts;
          Alcotest.test_case "range read locking" `Quick test_txn_read_range;
          Alcotest.test_case "independent relations don't conflict" `Quick
            test_txn_two_writers_different_relations;
          Alcotest.test_case "growth lock serializes inserts" `Quick
            test_txn_insert_conflict_growth_lock;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "non-conflicting scripts" `Quick
            test_scheduler_serial_equivalent;
          Alcotest.test_case "conflicting writers serialize" `Quick
            test_scheduler_conflicting_writers;
          Alcotest.test_case "deadlock victim restarts" `Quick
            test_scheduler_deadlock_restart;
          Alcotest.test_case "round budget exhaustion reports a stall" `Quick
            test_scheduler_stall_budget;
          QCheck_alcotest.to_alcotest scheduler_conservation_property;
        ] );
      ( "log",
        [
          Alcotest.test_case "device propagation" `Quick
            test_log_device_propagation;
          Alcotest.test_case "checkpoint" `Quick test_checkpoint;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "round trip with log merge" `Quick
            test_recovery_round_trip;
          Alcotest.test_case "working set first" `Quick
            test_recovery_working_set_first;
          Alcotest.test_case "auto-commit DML survives a crash" `Quick
            test_recovery_autocommit;
          Alcotest.test_case "foreign-key pointer fixup" `Quick
            test_recovery_foreign_key_fixup;
          Alcotest.test_case "secondary indexes survive recovery" `Quick
            test_recovery_preserves_secondary_indexes;
          Alcotest.test_case "partial propagation" `Quick
            test_recovery_partial_propagation;
          Alcotest.test_case "update/delete of moved tuple after checkpoint"
            `Quick test_recovery_moved_partition;
          Alcotest.test_case "log records of a dropped relation" `Quick
            test_recovery_dropped_relation_records;
          Alcotest.test_case "empty working set" `Quick
            test_recovery_empty_working_set;
          QCheck_alcotest.to_alcotest recovery_roundtrip_property;
        ] );
    ]
