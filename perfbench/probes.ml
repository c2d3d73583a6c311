(* In-process layer probes for the traced runs.  Each times or counts
   calls into one layer's public functions on the workload's own
   database, and records a span per timed call. *)

open Mmdb_util
open Mmdb_storage
open Mmdb_core
open Mmdb_txn
module Interp = Mmdb_lang.Interp
module Parser = Mmdb_lang.Parser

let now = Spans.now

(* Run [f] as span [name]; returns its result and duration. *)
let timed tr ~req name f =
  let t0 = now () in
  let r = f () in
  let t1 = now () in
  ignore (Spans.record tr ~req name ~t0 ~t1);
  (r, t1 -. t0)

(* --- lang ------------------------------------------------------------------ *)

(* Replay a served stream's operations in issue order, in process, from
   the preloaded state, until [budget] seconds have passed: Parser then
   Interp (reads under a snapshot, as the server runs them), and each
   read once more through Optimizer and Executor.  Returns the live key
   range [lo, hi) afterwards, and (attempted, failed). *)
let replay_kv tr db (st : Served.stream) ~budget =
  let t = st.Served.tbl in
  let sess = Interp.session db in
  let deadline = now () +. budget in
  let lo = ref 0 and hi = ref t.Served.rows in
  let attempted = ref 0 and failed = ref 0 in
  let expect ok = if not ok then incr failed in
  let replay ((kind, k) as op) =
    incr attempted;
    let req = Spans.next_req tr in
    Spans.with_span tr ~req "replay.op" (fun root ->
        let span name f = Spans.with_span tr ~parent:root ~req name (fun _ -> f ()) in
        match span "lang.parse" (fun () -> Parser.parse (Served.sql st op)) with
        | Error _ -> expect false
        | Ok stmts -> (
            match kind with
            | Served.Read ->
                let want =
                  if k >= !lo then [ [| Value.Int (t.Served.value_of k) |] ] else []
                in
                let got =
                  Mvcc.with_snapshot (fun _ ->
                      span "lang.exec" (fun () -> List.map (Interp.exec sess) stmts))
                in
                expect
                  (match got with
                  | [ Ok (Interp.Rows tl) ] -> Temp_list.materialize tl = want
                  | _ -> false);
                let q =
                  Query.project
                    [ t.Served.name ^ "." ^ t.Served.vcol ]
                    (Query.where_eq "K" (Value.Int k) (Query.from t.Served.name))
                in
                let n =
                  Mvcc.with_snapshot (fun _ ->
                      let plan = span "optimizer.plan" (fun () -> Optimizer.plan db q) in
                      Temp_list.length
                        (span "executor.execute" (fun () -> Executor.execute plan)))
                in
                expect (n = List.length want)
            | Served.Insert | Served.Delete ->
                expect
                  (span "lang.exec" (fun () ->
                       List.for_all (fun s -> Result.is_ok (Interp.exec sess s)) stmts));
                if kind = Served.Insert then hi := k + 1 else lo := k + 1))
  in
  let rec go = function
    | op :: rest when now () < deadline ->
        replay op;
        go rest
    | _ -> ()
  in
  go (List.rev st.Served.issued);
  (!lo, !hi, !attempted, !failed)

(* The olap queries as SQL text through Parser and Interp, checked like
   the embedded runs; returns the number that failed. *)
let interp_cycle tr db d ~c =
  let sess = Interp.session db in
  List.fold_left
    (fun failed kind ->
      let req = Spans.next_req tr in
      let ok =
        Spans.with_span tr ~req "replay.op" (fun root ->
            let span name f = Spans.with_span tr ~parent:root ~req name (fun _ -> f ()) in
            match
              span "lang.parse" (fun () -> Parser.parse (Kernels.sql Kernels.olap kind ~c))
            with
            | Ok [ stmt ] -> (
                match span "lang.exec" (fun () -> Interp.exec sess stmt) with
                | Ok out -> Kernels.check d kind ~c out
                | Error _ -> false)
            | Ok _ | Error _ -> false)
      in
      if ok then failed else failed + 1)
    0 Kernels.kinds

(* Parse each text under a "replay.op" span. *)
let parse_texts tr texts =
  List.iter
    (fun text ->
      let req = Spans.next_req tr in
      Spans.with_span tr ~req "replay.op" (fun root ->
          ignore
            (Spans.with_span tr ~parent:root ~req "lang.parse" (fun _ ->
                 Parser.parse text))))
    texts

(* --- core -------------------------------------------------------------------- *)

(* Each kernel kind [cycles] times, spans "query.<kind>" over the calls. *)
let kernel_runs tr db shape ~c ~cycles =
  for _ = 1 to cycles do
    List.iter
      (fun kind ->
        let req = Spans.next_req tr in
        ignore
          (Spans.with_span tr ~req ("query." ^ Kernels.kind_name kind) (fun parent ->
               Kernels.run ~tr ~parent ~req db shape kind ~c)))
      Kernels.kinds
  done

(* Median executor time per kernel kind, and the aggregation step. *)
let kernel_times tr =
  List.map
    (fun kind ->
      let k = Kernels.kind_name kind in
      ( "executor." ^ k ^ "_ms",
        Report.median (Spans.durations ~parent:("query." ^ k) tr "executor.execute")
        *. 1e3 ))
    Kernels.kinds
  @ [ ("aggregate.group_ms", Report.median (Spans.durations tr "aggregate.group") *. 1e3) ]

(* The paper's §3.1 counts per result row of each kernel kind, from one
   counted pass; exact for a given seed. *)
let kernel_counts db shape ~c =
  List.concat_map
    (fun kind ->
      let out, cnt = Counters.with_counters (fun () -> Kernels.run db shape kind ~c) in
      let per v = float_of_int v /. float_of_int (max 1 (Kernels.rows out)) in
      let name f = Printf.sprintf "core.%s.%s" (Kernels.kind_name kind) f in
      [
        (name "comparisons", per cnt.Counters.comparisons);
        (name "ptr_derefs", per cnt.Counters.ptr_derefs);
        (name "hash_calls", per cnt.Counters.hash_calls);
        (name "data_moves", per cnt.Counters.data_moves);
      ])
    Kernels.kinds

(* Skew-handling events and batch production, cumulative. *)
type engine = { rp : int; rv : int; batches : int; batch_rows : int }

let engine () =
  let rp, rv = Join.skew_stats () in
  let b = Batch.stats () in
  { rp; rv; batches = b.Batch.st_batches; batch_rows = b.Batch.st_rows }

let engine_delta a b =
  [
    ("join.role_reversals", float_of_int (b.rv - a.rv));
    ("join.repartitions", float_of_int (b.rp - a.rp));
    ( "batch.rows_per_batch",
      if b.batches > a.batches then
        float_of_int (b.batch_rows - a.batch_rows) /. float_of_int (b.batches - a.batches)
      else 0.0 );
  ]

(* --- util ---------------------------------------------------------------------- *)

(* The sort kernel Qsort.choose picks for a batched sort of [n] keys,
   timed on [n] random keys (median of three); returns ns per key, the
   kernel's name, and whether every output was sorted. *)
let qsort_ns_per_key ~n ~seed =
  let rng = Rng.create ~seed () in
  let base = Array.init n (fun _ -> Value.Int (Rng.int rng 1_000_000_000)) in
  let kernel = Qsort.choose ~n ~batched:(Batch.enabled ()) in
  let runs =
    List.init 3 (fun _ ->
        let a = Array.copy base in
        let t0 = now () in
        Qsort.sort_with kernel ~cmp:Value.compare a;
        (now () -. t0, Qsort.is_sorted ~cmp:Value.compare a))
  in
  ( Report.median (List.map fst runs) *. 1e9 /. float_of_int n,
    Qsort.kernel_name kernel,
    List.for_all snd runs )

(* --- storage, index, txn ----------------------------------------------------------- *)

(* A two-column table keyed on K whose live keys are [lo, hi) and whose
   column 1 holds [value_of K]; keys from [fresh] up are unused. *)
type target = {
  db : Db.t;
  rel : Relation.t;
  value_of : int -> int;
  lo : int;
  hi : int;
  fresh : int;
}

type storage = {
  figures : (string * float) list;
  reclaimed : int;  (* versions this process's GC passes reclaimed *)
  max_chain : int;
  s_attempted : int;
  s_failed : int;
}

let storage tr t ~seed =
  let rng = Rng.create ~seed () in
  let cdf = Gen.zipf_cdf ~n:(t.hi - t.lo) ~s:0.99 in
  let key () = t.hi - 1 - Gen.zipf_draw rng cdf in
  let row k = [| Value.Int k; Value.Int (t.value_of k) |] in
  let attempted = ref 0 and failed = ref 0 in
  let expect ok =
    incr attempted;
    if not ok then incr failed
  in
  let found k = function
    | [ tu ] -> Value.equal (Tuple.get tu 1) (Value.Int (t.value_of k))
    | _ -> false
  in
  let lookup k () = Relation.lookup t.rel [| Value.Int k |] in
  let req = Spans.next_req tr in
  let plain =
    List.init 2000 (fun _ ->
        let k = key () in
        let r, dt = timed tr ~req "relation.lookup" (lookup k) in
        expect (found k r);
        dt)
  in
  let keys = List.init 200 (fun _ -> key ()) in
  let (), cnt =
    Counters.with_counters (fun () -> List.iter (fun k -> ignore (lookup k ())) keys)
  in
  (* a snapshot lookup sorts the relation, so these are bounded by time *)
  let deadline = now () +. 1.5 in
  let rec snaps acc n =
    if n >= 200 || (n >= 5 && now () > deadline) then acc
    else
      let k = key () in
      let dt =
        Mvcc.with_snapshot (fun _ ->
            let r, dt = timed tr ~req "relation.snapshot_lookup" (lookup k) in
            expect (found k r);
            dt)
      in
      snaps (dt :: acc) (n + 1)
  in
  let snap = snaps [] 0 in
  let acquire =
    List.init 2000 (fun _ ->
        snd (timed tr ~req "version_store.snapshot_acquire" (fun () -> Mvcc.with_snapshot ignore)))
  in
  let vs0 = Version_store.stats () in
  let ins = ref [] and del = ref [] and gc = ref [] in
  for round = 0 to 4 do
    let keys = List.init 50 (fun i -> t.fresh + (round * 50) + i) in
    List.iter
      (fun k ->
        let r, dt =
          timed tr ~req "relation.insert" (fun () ->
              Version_store.with_write (fun () -> Relation.insert t.rel (row k)))
        in
        expect (Result.is_ok r);
        ins := dt :: !ins)
      keys;
    List.iter
      (fun k ->
        match Relation.lookup_one t.rel [| Value.Int k |] with
        | None -> expect false
        | Some tu ->
            let ok, dt =
              timed tr ~req "relation.delete" (fun () ->
                  Version_store.with_write (fun () -> Relation.delete_tuple t.rel tu))
            in
            expect ok;
            del := dt :: !del)
      keys;
    gc := snd (timed tr ~req "version_store.gc" (fun () -> Mvcc.gc (Db.relations t.db))) :: !gc
  done;
  let vs1 = Version_store.stats () in
  (* begin, one insert or delete, commit: the txn part of a served write *)
  let mgr = Txn.create_manager () in
  expect (Result.is_ok (Txn.add_relation mgr t.rel));
  let rel = Relation.name t.rel in
  let retained () = List.length (Log_device.retained (Txn.device mgr)) in
  let log0 = retained () in
  let commits = ref [] in
  let commit declare =
    let r, dt =
      timed tr ~req "txn.commit" (fun () ->
          let tx = Txn.begin_txn mgr in
          match declare tx with
          | Ok () -> Version_store.with_write (fun () -> Txn.commit tx)
          | Error f ->
              Txn.abort tx;
              Error (Format.asprintf "%a" Txn.pp_failure f))
    in
    expect (Result.is_ok r);
    commits := dt :: !commits
  in
  for i = 0 to 99 do
    let k = t.fresh + 1000 + i in
    commit (fun tx -> Txn.insert tx ~rel (row k));
    match Relation.lookup_one t.rel [| Value.Int k |] with
    | None -> expect false
    | Some tu -> commit (fun tx -> Txn.delete tx ~rel tu)
  done;
  let us xs = Report.median xs *. 1e6 in
  {
    figures =
      [
        ("relation.lookup_us", us plain);
        ("relation.snapshot_lookup_us", us snap);
        ("version_store.snapshot_acquire_us", us acquire);
        ("relation.insert_us", us !ins);
        ("relation.delete_us", us !del);
        ("version_store.gc_ms", Report.median !gc *. 1e3);
        ( "index.lookup_comparisons",
          float_of_int cnt.Counters.comparisons /. float_of_int (List.length keys) );
        ("txn.commit_us", us !commits);
        ( "txn.log_records_per_commit",
          float_of_int (retained () - log0)
          /. float_of_int (max 1 (List.length !commits)) );
      ];
    reclaimed =
      vs1.Version_store.st_versions_reclaimed - vs0.Version_store.st_versions_reclaimed;
    max_chain = vs1.Version_store.st_max_chain;
    s_attempted = !attempted;
    s_failed = !failed;
  }
