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

(* --- GC collapse and a bounded versioned list ---------------------------- *)

(* A chain whose only version began at or below the horizon and is still
   current collapses to empty, and its tuple leaves the versioned list;
   a live snapshot older than that version blocks the collapse. *)
let test_gc_collapse () =
  with_mvcc @@ fun () ->
  let r = mk_kv () in
  let t = ins r 1 10 in
  Alcotest.(check int) "a lazy insert is unversioned" 0 (Relation.versioned_count r);
  let slot, _ = Version_store.acquire_slot () in
  let u =
    Version_store.with_write (fun () ->
        match Relation.insert r [| Value.Int 2; Value.Int 20 |] with
        | Ok u -> u
        | Error e -> Alcotest.fail e)
  in
  Version_store.with_write (fun () ->
      match Relation.update_field r t 1 (Value.Int 11) with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
  Alcotest.(check int) "both tuples versioned" 2 (Relation.versioned_count r);
  ignore (Mvcc.gc [ r ]);
  Alcotest.(check int) "an older live snapshot blocks the collapse" 2
    (Relation.versioned_count r);
  Alcotest.(check int) "the inserted tuple keeps its version" 1
    (List.length u.Value.vers.Value.vs);
  Alcotest.(check int) "the updated tuple keeps its history" 2
    (List.length t.Value.vers.Value.vs);
  Version_store.release_slot slot;
  ignore (Mvcc.gc [ r ]);
  Alcotest.(check int) "the list is empty" 0 (Relation.versioned_count r);
  Alcotest.(check bool) "both chains are empty" true
    (u.Value.vers.Value.vs = [] && t.Value.vers.Value.vs = []);
  Version_store.with_snapshot (fun _ ->
      Alcotest.(check (list (pair value value)))
        "a snapshot reads the collapsed tuples live"
        [ (Value.Int 1, Value.Int 11); (Value.Int 2, Value.Int 20) ]
        (rows r))

(* Writes with versioning switched off at runtime must not leave a
   chain that contradicts the live fields: after re-enabling, a
   snapshot reads the updated value, not the version the write scope
   stamped before the switch, and a deleted tuple stays deleted.  The
   dropped chains leave the list, and the GC and later versioned
   writes go on as for a tuple that was never versioned. *)
let test_writes_with_mvcc_off () =
  with_mvcc @@ fun () ->
  let r = mk_kv () in
  let scoped_ins k v = Version_store.with_write (fun () -> ins r k v) in
  let t = scoped_ins 1 10 and u = scoped_ins 2 30 in
  Alcotest.(check int) "both inserts versioned" 2 (Relation.versioned_count r);
  Fun.protect
    ~finally:(fun () -> Version_store.set_enabled true)
    (fun () ->
      Version_store.set_enabled false;
      (match Relation.update_field r t 1 (Value.Int 20) with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
      Alcotest.(check bool) "delete" true (Relation.delete_tuple r u));
  Alcotest.(check int) "the stale chains left the list" 0
    (Relation.versioned_count r);
  Alcotest.(check bool) "both chains are empty" true
    (t.Value.vers.Value.vs = [] && u.Value.vers.Value.vs = []);
  let at_snapshot () = Version_store.with_snapshot (fun _ -> rows r) in
  Alcotest.(check (list (pair value value)))
    "a snapshot reads the live value; the delete holds"
    [ (Value.Int 1, Value.Int 20) ]
    (at_snapshot ());
  ignore (Mvcc.gc [ r ]);
  Alcotest.(check int) "the GC finds nothing listed" 0
    (Relation.versioned_count r);
  (* a later versioned write starts a fresh base from the live fields *)
  let slot, older = Version_store.acquire_slot () in
  Version_store.with_write (fun () ->
      match Relation.update_field r t 1 (Value.Int 21) with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
  Alcotest.(check int) "versioned again" 1 (Relation.versioned_count r);
  Alcotest.(check int) "base plus update" 2 (List.length t.Value.vers.Value.vs);
  Alcotest.(check (list (pair value value)))
    "an older snapshot reads the fresh base"
    [ (Value.Int 1, Value.Int 20) ]
    (Version_store.with_installed_snapshot older (fun () -> rows r));
  Version_store.release_slot slot;
  ignore (Mvcc.gc [ r ]);
  Alcotest.(check int) "the GC collapses it" 0 (Relation.versioned_count r);
  Alcotest.(check (list (pair value value)))
    "a snapshot reads the update" [ (Value.Int 1, Value.Int 21) ] (at_snapshot ())

(* 20k committed insert/delete transactions on a 10k-row relation with a
   GC pass every 64 writes, as the server runs it, while a snapshot
   taken at each pass stays live until the next: the list never holds
   more than the writes of two GC intervals, and a pass visits only the
   listed tuples. *)
let test_versioned_list_bounded () =
  with_mvcc @@ fun () ->
  let r = mk_kv () in
  let live = Queue.create () in
  for k = 0 to 9_999 do
    Queue.push (ins r k k) live
  done;
  let next = ref 10_000 and held = ref None and max_d = ref 0 in
  let gc_visited () = (Version_store.stats ()).Version_store.st_gc_visited in
  for i = 1 to 20_000 do
    Version_store.with_write (fun () ->
        if i land 1 = 1 then begin
          Queue.push (ins r !next !next) live;
          incr next
        end
        else if not (Relation.delete_tuple r (Queue.pop live)) then
          Alcotest.fail "delete");
    if i mod 64 = 0 then begin
      let d = Relation.versioned_count r in
      max_d := max !max_d d;
      let visited0 = gc_visited () in
      ignore (Mvcc.gc [ r ]);
      let visited = gc_visited () - visited0 in
      if visited > d then
        Alcotest.failf "write %d: the GC visited %d tuples, %d listed" i visited d;
      Option.iter Version_store.release_slot !held;
      held := Some (fst (Version_store.acquire_slot ()))
    end
  done;
  Option.iter Version_store.release_slot !held;
  Alcotest.(check bool)
    (Printf.sprintf "at most two GC intervals listed (max %d)" !max_d)
    true (!max_d <= 2 * 64);
  Alcotest.(check int) "the relation keeps 10k rows" 10_000 (Relation.count r)

(* --- one read entry per point SELECT ------------------------------------ *)

(* Planning reads cardinalities, not snapshot counts: a point SELECT
   under a snapshot enters the snapshot read path once, for its index
   lookup. *)
let test_point_select_one_read () =
  with_mvcc @@ fun () ->
  let db = Db.create () in
  let sess = Mmdb_lang.Interp.session db in
  let exec sql =
    match Mmdb_lang.Interp.exec_string sess sql with
    | Ok _ -> ()
    | Error e -> Alcotest.fail e
  in
  exec "CREATE TABLE P (K int PRIMARY KEY, V int);";
  for k = 1 to 200 do
    exec (Printf.sprintf "INSERT INTO P VALUES (%d, %d);" k (k * 3))
  done;
  let select = "SELECT V FROM P WHERE K = 17;" in
  (* the first run fills the statistics cache *)
  Version_store.with_snapshot (fun _ -> exec select);
  let reads () = (Version_store.stats ()).Version_store.st_snapshot_reads in
  let before = reads () in
  Version_store.with_snapshot (fun _ -> exec select);
  Alcotest.(check int) "read entries for one point SELECT" 1 (reads () - before)

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

(* --- snapshot reads vs a churning writer (torture) -------------------- *)

(* A writer domain commits small insert/delete/update transactions on a
   relation with a T-tree primary, a B-tree on V and an extendible hash
   on W — keys churn, so the trees rebalance and the hash grows — and
   runs the GC every 16 commits.  After each commit it publishes the
   commit timestamp with a persistent map of the committed rows to an
   append-only history.  Every 8th commit it also runs a transaction
   that fails at apply on a duplicate key and is unwound.  Reader
   domains meanwhile run every read entry under a snapshot [s] and
   compare it with the latest committed state at or below [s], an
   oracle that shares no code with the read path: the same tuples with
   the same fields, in the entry's index order (key, then identity)
   where it has one.  A watchdog turns a traversal or a drain that never
   ends into a failure. *)

module IM = Map.Make (Int)
module Txn = Mmdb_txn.Txn

type row = { id : int; k : int; v : int; w : int }

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

(* The fields a tuple shows from the calling context (its snapshot). *)
let row_of tu =
  let int i = match Tuple.get tu i with Value.Int n -> n | _ -> assert false in
  { id = Tuple.id tu; k = int 0; v = int 1; w = int 2 }

(* A transaction of a few real changes that then inserts a committed key
   it did not touch: the apply fails there and is unwound. *)
let failing_commit rng r mgr ~committed =
  let tx = Txn.begin_txn mgr and touched = ref [] in
  let ok = function Ok () -> () | Error _ -> failwith "declare" in
  for _ = 0 to Rng.int rng 3 do
    let k = Rng.int rng key_space in
    if not (List.mem k !touched) then begin
      touched := k :: !touched;
      match Relation.lookup r [| Value.Int k |] with
      | [] -> ok (Txn.insert tx ~rel:"KVW" (random_row rng k))
      | tu :: _ ->
          if Rng.bool rng then
            ok (Txn.update tx ~rel:"KVW" tu ~col:2 (Value.Int (Rng.int rng 4096)))
          else ok (Txn.delete tx ~rel:"KVW" tu)
    end
  done;
  match IM.find_first_opt (fun k -> not (List.mem k !touched)) committed with
  | None -> Txn.abort tx
  | Some (k, _) -> (
      ok (Txn.insert tx ~rel:"KVW" (random_row rng k));
      let ts = Version_store.now () in
      match Txn.commit tx with
      | Ok () -> failwith "a duplicate key committed"
      | Error _ ->
          if Version_store.now () <> ts then failwith "a failed commit published")

let torture_writer rng r ~history ~commits =
  let mgr = Txn.create_manager () in
  (match Txn.add_relation mgr r with Ok () -> () | Error e -> failwith e);
  let committed = ref (snd (List.hd (Atomic.get history))) in
  let insert k =
    match Relation.insert r (random_row rng k) with
    | Ok tu -> committed := IM.add k (row_of tu) !committed
    | Error e -> failwith e
  in
  let update tu col v =
    match Relation.update_field r tu col (Value.Int v) with
    | Ok () -> committed := IM.add (row_of tu).k (row_of tu) !committed
    | Error e -> failwith e
  in
  for c = 1 to commits do
    Version_store.with_write (fun () ->
        for _ = 0 to Rng.int rng 4 do
          let k = Rng.int rng key_space in
          match Relation.lookup r [| Value.Int k |] with
          | [] -> insert k
          | tu :: _ -> (
              match Rng.int rng 4 with
              | 0 -> update tu 1 (Rng.int rng 200)
              | 1 -> update tu 2 (Rng.int rng 4096)
              | _ ->
                  if not (Relation.delete_tuple r tu) then failwith "delete";
                  committed := IM.remove k !committed)
        done);
    Atomic.set history ((Version_store.now (), !committed) :: Atomic.get history);
    if c mod 8 = 0 then failing_commit rng r mgr ~committed:!committed;
    if c mod 16 = 0 then ignore (Mvcc.gc [ r ])
  done

(* The committed rows at snapshot [s]: the newest history entry at or
   below [s], once the writer has published that far. *)
let committed_at history ~failure s =
  while fst (List.hd (Atomic.get history)) < s do
    if Atomic.get failure <> None then failwith "the writer failed";
    Domain.cpu_relax ()
  done;
  snd (List.find (fun (ts, _) -> ts <= s) (Atomic.get history))

(* One read entry under snapshot [s], checked against the history. *)
let torture_read rng r ~history ~failure s =
  let state = committed_at history ~failure s in
  let expect keep =
    IM.fold (fun _ row acc -> if keep row then row :: acc else acc) state []
  in
  let by_k row = row.k and by_v row = row.v in
  let collect run =
    let acc = ref [] in
    run (fun tu -> acc := tu :: !acc);
    List.rev !acc
  in
  let all _ = true in
  (* each entry: its rows, the committed rows it must return, and the key
     it returns them in order of, if any *)
  let name, got, want, order =
    match Rng.int rng 11 with
    | 0 ->
        let k = Rng.int rng key_space in
        ( "lookup",
          Relation.lookup r [| Value.Int k |],
          expect (fun row -> row.k = k),
          None )
    | 1 ->
        let w = Rng.int rng 4096 in
        ( "lookup (hash)",
          Relation.lookup ~index:"by_w" r [| Value.Int w |],
          expect (fun row -> row.w = w),
          None )
    | 2 ->
        let lo = Rng.int rng key_space and hi = Rng.int rng key_space in
        ( "lookup_range",
          collect
            (Relation.lookup_range r ~lo:[| Value.Int lo |] ~hi:[| Value.Int hi |]),
          expect (fun row -> lo <= row.k && row.k <= hi),
          Some by_k )
    | 3 ->
        let lo = Rng.int rng 200 in
        let hi = lo + 20 in
        ( "lookup_range (B-tree)",
          collect
            (Relation.lookup_range ~index:"by_v" r ~lo:[| Value.Int lo |]
               ~hi:[| Value.Int hi |]),
          expect (fun row -> lo <= row.v && row.v <= hi),
          Some by_v )
    | 4 ->
        let lo = Rng.int rng 200 in
        ( "lookup_from",
          collect (Relation.lookup_from ~index:"by_v" r [| Value.Int lo |]),
          expect (fun row -> lo <= row.v),
          Some by_v )
    | 5 -> ("iter", collect (Relation.iter r), expect all, Some by_k)
    | 6 ->
        ( "iter_via (B-tree)",
          collect (Relation.iter_via ~index:"by_v" r),
          expect all,
          Some by_v )
    | 7 ->
        ("iter_via (hash)", collect (Relation.iter_via ~index:"by_w" r), expect all, None)
    | 8 ->
        let k = Rng.int rng key_space in
        ( "lookup_one",
          Option.to_list (Relation.lookup_one r [| Value.Int k |]),
          expect (fun row -> row.k = k),
          None )
    | 9 ->
        ( "iter_batches",
          collect (fun f ->
              Relation.iter_batches ~key_col:1 ~size:64 r (fun b ->
                  for i = 0 to b.Batch.n - 1 do
                    f b.Batch.tuples.(i)
                  done)),
          expect all,
          Some by_k )
    | _ ->
        let n = Relation.count r in
        if n <> IM.cardinal state then
          failwith
            (Printf.sprintf "count at snapshot %d: %d, %d committed" s n
               (IM.cardinal state));
        ("count", [], [], None)
  in
  let got = List.map row_of got in
  let rec sorted key = function
    | a :: (b :: _ as rest) -> key a <= key b && sorted key rest
    | _ -> true
  in
  if List.sort compare got <> List.sort compare want then
    failwith
      (Printf.sprintf "%s at snapshot %d: %d tuples, %d committed" name s
         (List.length got) (List.length want));
  match order with
  | Some key when not (sorted (fun row -> (key row, row.id)) got) ->
      failwith (Printf.sprintf "%s at snapshot %d: out of key order" name s)
  | _ -> ()

let test_torture () =
  with_mvcc @@ fun () ->
  let st0 = Version_store.stats () in
  for seed = 1 to n_seeds do
    let r = mk_kvw () in
    let rng = Rng.create ~seed:(seed * 7919) () in
    let initial = ref IM.empty in
    for k = 0 to 511 do
      match Relation.insert r (random_row rng (k * 4)) with
      | Ok tu -> initial := IM.add (k * 4) (row_of tu) !initial
      | Error e -> Alcotest.fail e
    done;
    let history = Atomic.make [ (Version_store.now (), !initial) ] in
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
             torture_writer (Rng.create ~seed ()) r ~history ~commits:1500;
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
               Version_store.with_snapshot (fun s ->
                   torture_read rng r ~history ~failure s);
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
    (match Relation.validate r with
    | Ok () -> ()
    | Error e -> Alcotest.failf "seed %d: relation invalid: %s" seed e);
    (* with no snapshot live, one pass collapses or sweeps every chain *)
    ignore (Mvcc.gc [ r ]);
    Alcotest.(check int)
      (Printf.sprintf "seed %d: no versioned tuples left" seed)
      0 (Relation.versioned_count r);
    Version_store.with_snapshot (fun s -> torture_read rng r ~history ~failure s)
  done;
  let st1 = Version_store.stats () in
  Alcotest.(check bool) "snapshot reads ran" true
    (st1.Version_store.st_snapshot_reads > st0.Version_store.st_snapshot_reads)

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
          Alcotest.test_case "GC collapses chains at the horizon" `Quick
            test_gc_collapse;
          Alcotest.test_case "writes with MVCC off drop stale chains" `Quick
            test_writes_with_mvcc_off;
          Alcotest.test_case "the versioned list stays bounded" `Quick
            test_versioned_list_bounded;
          Alcotest.test_case "a point SELECT makes one read entry" `Quick
            test_point_select_one_read;
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
