(* Parallel-execution equivalence suite.

   The parallel operator paths must be observationally equivalent to the
   sequential ones: the same multiset of result tuples (tuple pointers,
   not copies), counters that merge to the sequential totals (exactly for
   scans and hash projection, within bookkeeping tolerance for the
   partitioned join and parallel sorts), at every pool size.  On top of
   the operators, the executor queue's single-writer/parallel-reader
   discipline and the server's read-only fan-out are checked end to end
   against serial references. *)

open Mmdb_util
open Mmdb_storage
open Mmdb_core
open Mmdb_net

let pool_sizes = [ 1; 2; 8 ]

(* Materialize a temp list into a sorted list of value rows for
   order-insensitive multiset comparison. *)
let multiset tl = List.sort compare (List.map Array.to_list (Temp_list.materialize tl))

let with_pool size f =
  let pool = Domain_pool.create ~size () in
  Fun.protect ~finally:(fun () -> Domain_pool.stop pool) (fun () -> f pool)

let spec n dup_pct = { Workload.cardinality = n; dup_pct; dup_stddev = 0.8 }

let make_pair ?(n = 6_000) ?(dup = 40.0) ~seed () =
  let rng = Rng.create ~seed () in
  Workload.relation_pair ~with_ttree:false rng ~outer:(spec n dup)
    ~inner:(spec n dup) ~semijoin_sel:80.0 ()

let counted f =
  Counters.reset ();
  Counters.with_counters f

(* --- partition-parallel sequential scan --------------------------------- *)

let test_scan_equivalence () =
  let r1, _ = make_pair ~seed:101 () in
  let n = Relation.count r1 in
  (* join-column values are drawn from a large integer domain; cut it
     roughly in half so the scan keeps a non-trivial subset *)
  let predicates =
    [
      Select.Between (Workload.jcol, Value.Int 0, Value.Int 500_000_000);
      Select.Filter (fun tup -> match Tuple.get tup Workload.seq_col with
        | Value.Int s -> s mod 3 <> 0
        | _ -> false);
    ]
  in
  let seq_result, seq_counters =
    counted (fun () -> Select.run r1 ~path:Select.Sequential_scan ~predicates)
  in
  let seq_rows = multiset seq_result in
  Alcotest.(check bool) "reference scan selects something" true
    (List.length seq_rows > 0 && List.length seq_rows < n);
  List.iter
    (fun size ->
      with_pool size (fun pool ->
          let par_result, par_counters =
            counted (fun () ->
                Select.run ~pool r1 ~path:Select.Sequential_scan ~predicates)
          in
          Alcotest.(check bool)
            (Printf.sprintf "size %d: same row multiset" size)
            true
            (multiset par_result = seq_rows);
          (* the parallel scan does the same tuple accesses, so merged
             counters equal the sequential totals exactly *)
          Alcotest.(check bool)
            (Printf.sprintf "size %d: counters merge exactly" size)
            true
            (par_counters = seq_counters)))
    pool_sizes

(* --- partitioned hash join ---------------------------------------------- *)

let test_hash_join_equivalence () =
  let r1, r2 = make_pair ~seed:102 () in
  let outer = { Join.rel = r1; col = Workload.jcol } in
  let inner = { Join.rel = r2; col = Workload.jcol } in
  let seq_result, seq_counters =
    counted (fun () -> Join.hash_join ~outer ~inner ())
  in
  let seq_rows = multiset seq_result in
  Alcotest.(check bool) "reference join produces pairs" true
    (List.length seq_rows > 0);
  List.iter
    (fun size ->
      with_pool size (fun pool ->
          let par_result, par_counters =
            counted (fun () -> Join.hash_join ~pool ~outer ~inner ())
          in
          Alcotest.(check bool)
            (Printf.sprintf "size %d: same pair multiset" size)
            true
            (multiset par_result = seq_rows);
          if size = 1 then
            (* a 1-domain pool takes the sequential code path verbatim *)
            Alcotest.(check bool) "size 1: counters identical" true
              (par_counters = seq_counters)
          else begin
            (* partitioned build+probe touches every tuple the same number
               of times but sees shorter chains, so counters stay within a
               small factor of the sequential run *)
            let within lo hi got name =
              if got < lo || got > hi then
                Alcotest.failf "size %d: %s %d outside [%d, %d]" size name
                  got lo hi
            in
            let s = seq_counters.Counters.hash_calls in
            within (s / 4) (4 * s) par_counters.Counters.hash_calls
              "hash calls";
            let s = seq_counters.Counters.comparisons in
            within (s / 4) (4 * s) par_counters.Counters.comparisons
              "comparisons"
          end))
    pool_sizes

(* --- parallel sort-merge join ------------------------------------------- *)

let test_sort_merge_equivalence () =
  let r1, r2 = make_pair ~seed:103 () in
  let outer = { Join.rel = r1; col = Workload.jcol } in
  let inner = { Join.rel = r2; col = Workload.jcol } in
  let seq_rows = multiset (Join.sort_merge ~outer ~inner ()) in
  Alcotest.(check bool) "reference join produces pairs" true
    (List.length seq_rows > 0);
  List.iter
    (fun size ->
      with_pool size (fun pool ->
          let par_rows = multiset (Join.sort_merge ~pool ~outer ~inner ()) in
          Alcotest.(check bool)
            (Printf.sprintf "size %d: same pair multiset" size)
            true (par_rows = seq_rows)))
    pool_sizes

(* --- parallel projection ------------------------------------------------ *)

let test_project_equivalence () =
  let r1, _ = make_pair ~seed:104 ~dup:70.0 () in
  let input = Temp_list.of_relation r1 in
  let jcol_label =
    List.nth (Descriptor.labels (Temp_list.descriptor input)) Workload.jcol
  in
  List.iter
    (fun method_ ->
      let name = Project.method_name method_ in
      let seq_result, seq_counters =
        counted (fun () -> Project.run method_ input [ jcol_label ])
      in
      let seq_rows = multiset seq_result in
      Alcotest.(check bool)
        (name ^ ": reference deduplicates")
        true
        (List.length seq_rows > 0
        && List.length seq_rows < Temp_list.length input);
      List.iter
        (fun size ->
          with_pool size (fun pool ->
              let par_result, par_counters =
                counted (fun () -> Project.run ~pool method_ input [ jcol_label ])
              in
              Alcotest.(check bool)
                (Printf.sprintf "%s size %d: same distinct multiset" name size)
                true
                (multiset par_result = seq_rows);
              if method_ = Project.Hashing then
                (* hash routing preserves bucket structure, so the merged
                   hash/comparison counts are exactly the sequential ones *)
                Alcotest.(check bool)
                  (Printf.sprintf "%s size %d: counters merge exactly" name
                     size)
                  true
                  (par_counters.Counters.hash_calls
                   = seq_counters.Counters.hash_calls
                  && par_counters.Counters.comparisons
                     = seq_counters.Counters.comparisons)))
        pool_sizes)
    [ Project.Sort_scan; Project.Hashing ]

(* --- executor queue: single writer, parallel readers --------------------- *)

let test_exec_queue_reader_overlap () =
  let q = Exec_queue.create ~readers:4 () in
  let m = Mutex.create () in
  let active_reads = ref 0 in
  let max_concurrent = ref 0 in
  let writer_active = ref false in
  let violations = ref 0 in
  let locked f = Mutex.lock m; let r = f () in Mutex.unlock m; r in
  let write_job () =
    locked (fun () ->
        if !active_reads > 0 then incr violations;
        writer_active := true);
    Thread.delay 0.002;
    locked (fun () -> writer_active := false)
  in
  let read_job () =
    locked (fun () ->
        if !writer_active then incr violations;
        incr active_reads;
        if !active_reads > !max_concurrent then
          max_concurrent := !active_reads);
    Thread.delay 0.005;
    locked (fun () -> decr active_reads)
  in
  let promises = ref [] in
  let push kind job =
    promises := Exec_queue.submit q ~kind job :: !promises
  in
  for _ = 1 to 3 do
    push Exec_queue.Write write_job;
    for _ = 1 to 6 do
      push Exec_queue.Read read_job
    done
  done;
  push Exec_queue.Write write_job;
  List.iter
    (fun p ->
      match Exec_queue.wait p with
      | Ok () -> ()
      | Error e -> Alcotest.fail ("job failed: " ^ Printexc.to_string e))
    (List.rev !promises);
  Exec_queue.stop q;
  Alcotest.(check int) "no read/write overlap" 0 !violations;
  Alcotest.(check bool) "readers overlapped each other" true
    (!max_concurrent >= 2)

(* --- server: parallel read-only clients vs a serial reference ------------ *)

let test_config =
  {
    Server.default_config with
    Server.port = 0;
    request_timeout = 10.0;
    idle_timeout = 0.0;
  }

let with_server ?(config = test_config) f =
  let db = Db.create () in
  let srv = Server.start ~config db in
  Fun.protect ~finally:(fun () -> Server.shutdown srv) (fun () -> f srv)

(* A serving counter as STATS reports it. *)
let stat srv section key =
  let module J = Mmdb_util.Json in
  match J.parse (Server.stats_json_text srv) with
  | Ok j ->
      Option.bind (J.member section j) (J.member key)
      |> Fun.flip Option.bind J.to_int_opt
      |> Option.value ~default:(-1)
  | Error e -> Alcotest.fail e

let connect srv =
  match Client.connect ~host:"127.0.0.1" ~port:(Server.port srv) () with
  | Ok c -> c
  | Error m -> Alcotest.fail ("connect failed: " ^ m)

let expect_ok c sql =
  match Client.query c sql with
  | Ok (Protocol.Error (code, msg)) ->
      Alcotest.fail
        (Printf.sprintf "%S failed (%s): %s" sql
           (Protocol.err_code_name code) msg)
  | Ok resp -> resp
  | Error m -> Alcotest.fail (Printf.sprintf "%S transport error: %s" sql m)

let rows_of = function
  | Protocol.Results { rows; _ } -> rows
  | r ->
      Alcotest.fail (Fmt.str "expected a result set, got %a" Protocol.pp_response r)

let test_server_parallel_readers () =
  with_server (fun srv ->
      let setup = connect srv in
      ignore (expect_ok setup "CREATE TABLE KV (K int PRIMARY KEY, V int);");
      for i = 1 to 64 do
        ignore
          (expect_ok setup
             (Printf.sprintf "INSERT INTO KV VALUES (%d, %d);" i (i * 10)))
      done;
      let queries =
        [
          "SELECT K, V FROM KV;";
          "SELECT V FROM KV WHERE K = 7;";
          "SELECT K FROM KV WHERE V = 420;";
        ]
      in
      (* serial reference answers, computed before the concurrent phase *)
      let reference =
        List.map
          (fun q -> (q, List.sort compare (rows_of (expect_ok setup q))))
          queries
      in
      let n_clients = 6 and rounds = 8 in
      let failures = Mutex.create () and failed = ref [] in
      let worker () =
        let c = connect srv in
        for r = 0 to rounds - 1 do
          List.iteri
            (fun qi (q, expected) ->
              match Client.query c q with
              | Ok (Protocol.Results { rows; _ })
                when List.sort compare rows = expected ->
                  ()
              | Ok resp ->
                  Mutex.lock failures;
                  failed :=
                    Printf.sprintf "round %d query %d: %s" r qi
                      (Fmt.str "%a" Protocol.pp_response resp)
                    :: !failed;
                  Mutex.unlock failures
              | Error m ->
                  Mutex.lock failures;
                  failed := ("transport: " ^ m) :: !failed;
                  Mutex.unlock failures)
            reference
        done;
        ignore (Client.quit c)
      in
      let threads = List.init n_clients (fun _ -> Thread.create worker ()) in
      List.iter Thread.join threads;
      (match !failed with
      | [] -> ()
      | e :: _ ->
          Alcotest.failf "%d mismatches under concurrency, first: %s"
            (List.length !failed) e);
      (* the read-only statements really took the parallel-reader path *)
      Alcotest.(check bool) "read jobs dispatched" true
        (stat srv "requests" "read_jobs" >= n_clients * rounds);
      (* writes and reads both flowed through, and the database is intact *)
      let final = List.sort compare (rows_of (expect_ok setup "SELECT K, V FROM KV;")) in
      Alcotest.(check int) "all inserts visible after the storm" 64
        (List.length final))

let test_server_statement_cache () =
  with_server (fun srv ->
      let c = connect srv in
      ignore (expect_ok c "CREATE TABLE T (A int PRIMARY KEY);");
      ignore (expect_ok c "INSERT INTO T VALUES (1);");
      let q = "SELECT A FROM T;" in
      for _ = 1 to 3 do
        Alcotest.(check int) "stable answer" 1
          (List.length (rows_of (expect_ok c q)))
      done;
      let hits = stat srv "requests" "stmt_cache_hits" in
      Alcotest.(check bool)
        (Printf.sprintf "cache hits (%d) >= 2" hits)
        true (hits >= 2);
      Alcotest.(check bool) "misses recorded too" true
        (stat srv "requests" "stmt_cache_misses" >= 1))

let () =
  Alcotest.run "mmdb_parallel"
    [
      ( "operators",
        [
          Alcotest.test_case "scan equivalence" `Quick test_scan_equivalence;
          Alcotest.test_case "hash join equivalence" `Quick
            test_hash_join_equivalence;
          Alcotest.test_case "sort-merge equivalence" `Quick
            test_sort_merge_equivalence;
          Alcotest.test_case "projection equivalence" `Quick
            test_project_equivalence;
        ] );
      ( "exec_queue",
        [
          Alcotest.test_case "reader overlap, writer exclusion" `Quick
            test_exec_queue_reader_overlap;
        ] );
      ( "server",
        [
          Alcotest.test_case "parallel readers vs serial reference" `Quick
            test_server_parallel_readers;
          Alcotest.test_case "statement cache" `Quick
            test_server_statement_cache;
        ] );
    ]
