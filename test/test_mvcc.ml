(* MVCC snapshot-isolation semantics.

   The storage-level tests drive Version_store through Relation with a
   second domain standing in for the concurrent writer (a fresh domain
   has fresh DLS: no snapshot, no write scope — exactly the server's
   dispatcher/reader split).  The properties checked are the ones the
   subsystem exists for: repeatable reads within a statement, no dirty
   reads of an in-flight writer, aborted work leaving no visible
   versions, and a GC that never reclaims a version some live snapshot
   can still see (randomized; seed count via MMDB_CHAOS_SEEDS).

   The classification tests pin the server-facing contract: EXPLAIN /
   EXPLAIN ANALYZE and EXEC_PREPARED of a read-only statement must take
   the Read path, or they would barrier behind the writer for nothing. *)

open Mmdb_storage
module Rng = Mmdb_util.Rng
module Ast = Mmdb_lang.Ast
module Parser = Mmdb_lang.Parser
module Db = Mmdb_core.Db
module Mvcc = Mmdb_txn.Mvcc

let value = Alcotest.testable Value.pp Value.equal

let n_seeds =
  match Sys.getenv_opt "MMDB_CHAOS_SEEDS" with
  | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | _ -> 5)
  | None -> 5

(* The suite must be meaningful under MMDB_MVCC=0 too, so each test
   forces versioning on and restores the ambient setting after. *)
let with_mvcc f =
  let was = Version_store.enabled () in
  Version_store.set_enabled true;
  Fun.protect ~finally:(fun () -> Version_store.set_enabled was) f

let kv_schema () =
  Schema.make ~name:"KV"
    [ Schema.col ~ty:Schema.T_int "K"; Schema.col ~ty:Schema.T_int "V" ]

let mk_kv () =
  Relation.create ~schema:(kv_schema ())
    ~primary:
      {
        Relation.idx_name = "kv_pk";
        columns = [| 0 |];
        unique = true;
        structure = Relation.T_tree;
      }
    ()

let ins r k v =
  match Relation.insert r [| Value.Int k; Value.Int v |] with
  | Ok t -> t
  | Error e -> Alcotest.fail e

(* All rows visible from the calling context, as a sorted (k, v) list —
   under a snapshot this is the diverted, visibility-filtered scan. *)
let rows r =
  let acc = ref [] in
  Relation.iter r (fun t ->
      acc := (Tuple.get t 0, Tuple.get t 1) :: !acc);
  List.sort compare !acc

(* Run [f] on a fresh domain (fresh DLS: no inherited snapshot or write
   scope) and join it. *)
let on_writer_domain f = Domain.join (Domain.spawn f)

(* --- repeatable read ----------------------------------------------------- *)

let test_repeatable_read () =
  with_mvcc @@ fun () ->
  let r = mk_kv () in
  let t = ins r 1 10 in
  Version_store.with_snapshot (fun snap ->
      Alcotest.(check bool) "snapshot acquired" true (snap >= 0);
      Alcotest.check value "before write" (Value.Int 10) (Tuple.get t 1);
      on_writer_domain (fun () ->
          Version_store.with_write (fun () ->
              match Relation.update_field r t 1 (Value.Int 20) with
              | Ok () -> ()
              | Error e -> Alcotest.fail e));
      Alcotest.check value "unchanged within the statement" (Value.Int 10)
        (Tuple.get t 1);
      (match Relation.lookup ~index:"kv_pk" r [| Value.Int 1 |] with
      | [ tu ] ->
          Alcotest.check value "lookup sees the snapshot too" (Value.Int 10)
            (Tuple.get tu 1)
      | l -> Alcotest.failf "lookup returned %d tuples" (List.length l)));
  Alcotest.check value "new value after the snapshot" (Value.Int 20)
    (Tuple.get t 1)

(* --- no dirty reads ------------------------------------------------------ *)

let test_no_dirty_reads () =
  with_mvcc @@ fun () ->
  let r = mk_kv () in
  ignore (ins r 1 10);
  (* Hold the write scope open on this domain; a reader on another
     domain must not see the unpublished insert or update. *)
  Version_store.with_write (fun () ->
      ignore (ins r 2 20);
      let seen =
        on_writer_domain (fun () -> Version_store.with_snapshot (fun _ -> rows r))
      in
      Alcotest.(check (list (pair value value)))
        "in-flight insert invisible"
        [ (Value.Int 1, Value.Int 10) ]
        seen);
  (* Published at scope exit: a fresh snapshot now sees both rows. *)
  let seen =
    on_writer_domain (fun () -> Version_store.with_snapshot (fun _ -> rows r))
  in
  Alcotest.(check int) "published after scope exit" 2 (List.length seen)

(* --- abort leaves no visible versions ------------------------------------ *)

let test_abort_invisible () =
  with_mvcc @@ fun () ->
  let db = Db.create () in
  let sess = Mmdb_lang.Interp.session db in
  (match
     Mmdb_lang.Interp.exec_string sess
       "CREATE TABLE T (K int PRIMARY KEY, V int); INSERT INTO T VALUES (1, 10);"
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  (match
     Mmdb_lang.Interp.exec_string sess
       "BEGIN; INSERT INTO T VALUES (2, 20); ROLLBACK;"
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let r = Db.find_exn db "T" in
  Alcotest.(check int) "live count back to 1" 1 (Relation.count r);
  Version_store.with_snapshot (fun _ ->
      Alcotest.(check (list (pair value value)))
        "no snapshot sees the aborted insert"
        [ (Value.Int 1, Value.Int 10) ]
        (rows r);
      Alcotest.(check int) "snapshot count agrees" 1 (Relation.count r))

(* --- GC vs live snapshots (randomized) ----------------------------------- *)

(* A writer mutates and GCs while the main domain holds one snapshot:
   the rows visible under that snapshot must be identical before and
   after, whatever the writer and the GC did.  Then, with the snapshot
   released, GC must actually reclaim and converge to the live state. *)
let gc_round rng r ~live ~next_key =
  let pick_live () =
    let keys = List.of_seq (Hashtbl.to_seq_keys live) in
    match keys with
    | [] -> None
    | _ -> Some (List.nth keys (Rng.int rng (List.length keys)))
  in
  let tuple_of k =
    match Relation.lookup ~index:"kv_pk" r [| Value.Int k |] with
    | [ t ] -> t
    | l -> Alcotest.failf "key %d: %d tuples" k (List.length l)
  in
  for _ = 1 to 100 do
    match Rng.int rng 10 with
    | 0 | 1 -> (
        (* insert a fresh key *)
        let k = !next_key in
        incr next_key;
        match Relation.insert r [| Value.Int k; Value.Int (k * 7) |] with
        | Ok _ -> Hashtbl.replace live k (k * 7)
        | Error e -> Alcotest.fail e)
    | 2 | 3 -> (
        (* delete a live key *)
        match pick_live () with
        | None -> ()
        | Some k ->
            ignore (Relation.delete_tuple r (tuple_of k));
            Hashtbl.remove live k)
    | n -> (
        (* update a live key, deferred-scope half the time *)
        match pick_live () with
        | None -> ()
        | Some k ->
            let v = Rng.int rng 1_000_000 in
            let apply () =
              match Relation.update_field r (tuple_of k) 1 (Value.Int v) with
              | Ok () -> Hashtbl.replace live k v
              | Error e -> Alcotest.fail e
            in
            if n land 1 = 0 then Version_store.with_write apply else apply ())
  done;
  ignore (Mvcc.gc [ r ])

let test_gc_respects_snapshots () =
  with_mvcc @@ fun () ->
  for seed = 1 to n_seeds do
    let r = mk_kv () in
    let live = Hashtbl.create 64 in
    for k = 0 to 63 do
      ignore (ins r k (k * 7));
      Hashtbl.replace live k (k * 7)
    done;
    let next_key = ref 1000 in
    for round = 1 to 3 do
      Version_store.with_snapshot (fun _ ->
          let expected = rows r in
          on_writer_domain (fun () ->
              let rng = Rng.create ~seed:((seed * 1000) + round) () in
              gc_round rng r ~live ~next_key);
          let after = rows r in
          if after <> expected then
            Alcotest.failf
              "seed %d round %d: snapshot drifted (%d rows -> %d rows)" seed
              round (List.length expected) (List.length after))
    done;
    (* No snapshot held: GC may now prune everything behind the clock,
       and a fresh snapshot must agree with the live state. *)
    ignore (Mvcc.gc [ r ]);
    let live_rows = rows r in
    let snap_rows = Version_store.with_snapshot (fun _ -> rows r) in
    if snap_rows <> live_rows then
      Alcotest.failf "seed %d: post-GC snapshot disagrees with live state" seed;
    Alcotest.(check int)
      (Printf.sprintf "seed %d: model row count" seed)
      (Hashtbl.length live) (List.length live_rows)
  done;
  let st = Version_store.stats () in
  Alcotest.(check bool) "GC reclaimed something across the run" true
    (st.Version_store.st_versions_reclaimed > 0)

(* --- commit timestamps publish after their stamps ------------------------ *)

(* A write stamps its versions with a reserved timestamp while the clock
   is still below it, so a snapshot can never land on a timestamp whose
   stamps are half written; a later reservation publishes only after the
   earlier one. *)
let test_stamps_before_clock () =
  let before = Version_store.now () in
  let stamping = Atomic.make false and release = Atomic.make false in
  let first =
    Domain.spawn (fun () ->
        Version_store.stamp_with (fun ts ->
            Atomic.set stamping true;
            while not (Atomic.get release) do
              Domain.cpu_relax ()
            done;
            ts))
  in
  while not (Atomic.get stamping) do
    Domain.cpu_relax ()
  done;
  Alcotest.(check int) "the clock stays below a timestamp being stamped"
    before (Version_store.now ());
  let second = Domain.spawn (fun () -> Version_store.stamp_with Fun.id) in
  Unix.sleepf 0.02;
  Alcotest.(check int) "a later reservation waits for the earlier one"
    before (Version_store.now ());
  Atomic.set release true;
  let t1 = Domain.join first and t2 = Domain.join second in
  Alcotest.(check (list int)) "timestamps in reservation order"
    [ before + 1; before + 2 ] [ t1; t2 ];
  Alcotest.(check int) "both published" (before + 2) (Version_store.now ())

(* --- live-index reads vs a churning writer (torture) ---------------------- *)

(* A writer domain commits small insert/delete/update transactions on a
   relation with a T-tree primary, a B-tree on V and an extendible hash
   on W — keys churn, so the trees rebalance and the hash grows — and
   runs the GC every 64 commits.  Reader domains meanwhile run every read
   entry under a snapshot and compare it with what the snapshot must
   see, built here from the membership view: the tuples visible at [s]
   inside the entry's key bounds, sorted by its key.  Reads that walk the
   live index and reads that fall back must both show up, and a watchdog
   turns a traversal or a drain that never ends into a failure. *)

let key_space = 2048

let mk_kvw () =
  let schema =
    Schema.make ~name:"KVW"
      [
        Schema.col ~ty:Schema.T_int "K";
        Schema.col ~ty:Schema.T_int "V";
        Schema.col ~ty:Schema.T_int "W";
      ]
  in
  let r =
    Relation.create ~schema
      ~primary:
        {
          Relation.idx_name = "pk";
          columns = [| 0 |];
          unique = true;
          structure = Relation.T_tree;
        }
      ()
  in
  let index idx_name col structure =
    match Relation.create_index r ~idx_name ~columns:[| col |] ~structure with
    | Ok () -> ()
    | Error e -> Alcotest.fail e
  in
  index "by_v" 1 Relation.B_tree;
  index "by_w" 2 Relation.Extendible_hash;
  r

let random_row rng k =
  [| Value.Int k; Value.Int (Rng.int rng 200); Value.Int (Rng.int rng 4096) |]

let torture_writer rng r ~commits =
  for c = 1 to commits do
    Version_store.with_write (fun () ->
        for _ = 0 to Rng.int rng 4 do
          let k = Rng.int rng key_space in
          match Relation.lookup r [| Value.Int k |] with
          | [] -> ignore (Relation.insert r (random_row rng k))
          | tu :: _ -> (
              match Rng.int rng 4 with
              | 0 ->
                  ignore (Relation.update_field r tu 1 (Value.Int (Rng.int rng 200)))
              | 1 ->
                  ignore
                    (Relation.update_field r tu 2 (Value.Int (Rng.int rng 4096)))
              | _ -> ignore (Relation.delete_tuple r tu))
        done);
    if c mod 64 = 0 then begin
      ignore (Mvcc.gc [ r ]);
      (* a quiet moment, so snapshots also find the live index current *)
      Unix.sleepf 0.0005
    end
  done

(* One read entry under snapshot [s], checked against the view. *)
let torture_read rng r s =
  let row tu = (Tuple.id tu, Tuple.get tu 0, Tuple.get tu 1, Tuple.get tu 2) in
  let expect ~col ~keep =
    List.filter
      (fun tu -> Version_store.visible_at s tu && keep (Tuple.get tu col))
      (Atomic.get (Relation.view r).Version_store.tuples)
    |> List.sort (Tuple.compare_keyed ~columns:[| col |])
  in
  let collect run =
    let acc = ref [] in
    run (fun tu -> acc := tu :: !acc);
    List.rev !acc
  in
  let int bound = Value.Int (Rng.int rng bound) in
  let all _ = true in
  let name, got, want, ordered =
    match Rng.int rng 11 with
    | 0 ->
        let k = int key_space in
        ("lookup", Relation.lookup r [| k |], expect ~col:0 ~keep:(( = ) k), true)
    | 1 ->
        let w = int 4096 in
        ( "lookup (hash)",
          Relation.lookup ~index:"by_w" r [| w |],
          expect ~col:2 ~keep:(( = ) w),
          false )
    | 2 ->
        let lo = int key_space and hi = int key_space in
        ( "lookup_range",
          collect (Relation.lookup_range r ~lo:[| lo |] ~hi:[| hi |]),
          expect ~col:0 ~keep:(fun k -> lo <= k && k <= hi),
          true )
    | 3 ->
        let v = Rng.int rng 200 in
        let lo = Value.Int v and hi = Value.Int (v + 20) in
        ( "lookup_range (B-tree)",
          collect (Relation.lookup_range ~index:"by_v" r ~lo:[| lo |] ~hi:[| hi |]),
          expect ~col:1 ~keep:(fun v -> lo <= v && v <= hi),
          true )
    | 4 ->
        let v = int 200 in
        ( "lookup_from",
          collect (Relation.lookup_from ~index:"by_v" r [| v |]),
          expect ~col:1 ~keep:(fun x -> v <= x),
          true )
    | 5 -> ("iter", collect (Relation.iter r), expect ~col:0 ~keep:all, true)
    | 6 ->
        ( "iter_via (B-tree)",
          collect (Relation.iter_via ~index:"by_v" r),
          expect ~col:1 ~keep:all,
          true )
    | 7 ->
        ( "iter_via (hash)",
          collect (Relation.iter_via ~index:"by_w" r),
          expect ~col:2 ~keep:all,
          false )
    | 8 ->
        ("to_seq", List.of_seq (Relation.to_seq r), expect ~col:0 ~keep:all, true)
    | 9 ->
        ( "iter_batches",
          collect (fun f ->
              Relation.iter_batches ~key_col:1 ~size:64 r (fun b ->
                  for i = 0 to b.Batch.n - 1 do
                    f b.Batch.tuples.(i)
                  done)),
          expect ~col:0 ~keep:all,
          true )
    | _ ->
        let n = Relation.count r and want = expect ~col:0 ~keep:all in
        if n <> List.length want then
          failwith
            (Printf.sprintf "count at snapshot %d: %d, the view has %d" s n
               (List.length want));
        ("count", want, want, true)
  in
  let rows l =
    let l = List.map row l in
    if ordered then l else List.sort compare l
  in
  if rows got <> rows want then
    failwith
      (Printf.sprintf "%s at snapshot %d: %d tuples, the view has %d" name s
         (List.length got) (List.length want))

let test_torture () =
  with_mvcc @@ fun () ->
  let st0 = Version_store.stats () in
  for seed = 1 to n_seeds do
    let r = mk_kvw () in
    let rng = Rng.create ~seed:(seed * 7919) () in
    for k = 0 to 511 do
      ignore (Relation.insert r (random_row rng (k * 4)))
    done;
    let writer_done = Atomic.make false
    and failure = Atomic.make None
    and finished = Atomic.make 0 in
    let guarded f () =
      (try f () with e -> Atomic.set failure (Some (Printexc.to_string e)));
      Atomic.incr finished
    in
    let writer =
      Domain.spawn
        (guarded (fun () ->
             torture_writer (Rng.create ~seed ()) r ~commits:1500;
             Atomic.set writer_done true))
    in
    let reader i =
      Domain.spawn
        (guarded (fun () ->
             let rng = Rng.create ~seed:((seed * 100) + i) () in
             let n = ref 0 in
             while
               ((not (Atomic.get writer_done)) || !n < 50)
               && Atomic.get failure = None
             do
               Version_store.with_snapshot (fun s -> torture_read rng r s);
               incr n
             done))
    in
    let readers = [ reader 1; reader 2 ] in
    let deadline = Unix.gettimeofday () +. 60.0 in
    while Atomic.get finished < 3 && Unix.gettimeofday () < deadline do
      Unix.sleepf 0.005
    done;
    if Atomic.get finished < 3 then
      Alcotest.failf "seed %d: a domain is still running after 60 s" seed;
    Domain.join writer;
    List.iter Domain.join readers;
    (match Atomic.get failure with
    | Some msg -> Alcotest.failf "seed %d: %s" seed msg
    | None -> ());
    match Relation.validate r with
    | Ok () -> ()
    | Error e -> Alcotest.failf "seed %d: relation invalid: %s" seed e
  done;
  let st1 = Version_store.stats () in
  Alcotest.(check bool) "some reads walked the live index" true
    (st1.Version_store.st_fast_reads > st0.Version_store.st_fast_reads);
  Alcotest.(check bool) "some reads fell back to the view" true
    (st1.Version_store.st_fallback_reads > st0.Version_store.st_fallback_reads)

(* --- read-only classification edges -------------------------------------- *)

let parse_one sql =
  match Parser.parse sql with
  | Ok [ s ] -> s
  | Ok l -> Alcotest.failf "%S: %d statements" sql (List.length l)
  | Error e -> Alcotest.fail e

let test_read_only_edges () =
  let ro sql = Ast.is_read_only (parse_one sql) in
  Alcotest.(check bool) "SELECT" true (ro "SELECT K FROM T;");
  Alcotest.(check bool) "EXPLAIN" true (ro "EXPLAIN SELECT K FROM T;");
  Alcotest.(check bool) "EXPLAIN ANALYZE" true
    (ro "EXPLAIN ANALYZE SELECT K FROM T;");
  Alcotest.(check bool) "UPDATE is not" false
    (ro "UPDATE T SET V = 1 WHERE K = 1;");
  Alcotest.(check bool) "BEGIN is not" false (ro "BEGIN;");
  (* a read-only prepared statement stays read-only once bound *)
  let stmt = parse_one "SELECT V FROM T WHERE K = ?;" in
  Alcotest.(check int) "one parameter" 1 (Ast.param_count stmt);
  match Ast.substitute_params stmt [ Ast.L_int 42 ] with
  | Ok bound ->
      Alcotest.(check bool) "bound SELECT classifies Read" true
        (Ast.is_read_only bound)
  | Error e -> Alcotest.fail e

let () =
  Alcotest.run "mmdb_mvcc"
    [
      ( "snapshots",
        [
          Alcotest.test_case "repeatable read within a statement" `Quick
            test_repeatable_read;
          Alcotest.test_case "no dirty reads of an in-flight writer" `Quick
            test_no_dirty_reads;
          Alcotest.test_case "abort leaves no visible versions" `Quick
            test_abort_invisible;
          Alcotest.test_case "GC never reclaims what a snapshot sees" `Quick
            test_gc_respects_snapshots;
          Alcotest.test_case "stamps land before the clock moves" `Quick
            test_stamps_before_clock;
          Alcotest.test_case "live-index reads under a churning writer" `Quick
            test_torture;
        ] );
      ( "classification",
        [
          Alcotest.test_case "read-only edges" `Quick test_read_only_edges;
        ] );
    ]
