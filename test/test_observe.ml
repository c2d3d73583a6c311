(* Observability tests: the cardinality-feedback store, the Prometheus
   exposition, workload capture (normalization, rotation, parameter
   round-trips) and an in-process capture -> replay loop that must come
   back clean. *)

open Mmdb_net
module Feedback = Mmdb_core.Feedback

(* --- cardinality feedback ---------------------------------------------- *)

let test_feedback_err () =
  Alcotest.(check (float 1e-9)) "perfect" 1.0 (Feedback.err ~est:10 ~actual:10);
  Alcotest.(check (float 1e-9)) "over" 10.0 (Feedback.err ~est:100 ~actual:10);
  Alcotest.(check (float 1e-9)) "under" 10.0 (Feedback.err ~est:10 ~actual:100);
  (* zero rows clamp to one: no infinities out of empty results *)
  Alcotest.(check (float 1e-9)) "zero actual" 7.0 (Feedback.err ~est:7 ~actual:0);
  Alcotest.(check (float 1e-9)) "zero both" 1.0 (Feedback.err ~est:0 ~actual:0)

let test_feedback_estimate_warmup () =
  Feedback.reset ();
  let key = "sel:T:scan:eq" in
  Feedback.observe ~key ~est:10 ~actual:100;
  Alcotest.(check (option int)) "1 obs: no signal" None (Feedback.estimate ~key);
  Feedback.observe ~key ~est:10 ~actual:100;
  Alcotest.(check (option int)) "2 obs: no signal" None (Feedback.estimate ~key);
  Feedback.observe ~key ~est:10 ~actual:100;
  Alcotest.(check (option int))
    "3 obs: average actual" (Some 100) (Feedback.estimate ~key);
  Alcotest.(check (option int))
    "unknown key" None (Feedback.estimate ~key:"sel:nowhere");
  Alcotest.(check int) "observations counted" 3 (Feedback.total_observations ())

let test_feedback_worst () =
  Feedback.reset ();
  Feedback.observe ~key:"good" ~est:100 ~actual:100;
  Feedback.observe ~key:"bad" ~est:1 ~actual:1000;
  Feedback.observe ~key:"middling" ~est:10 ~actual:50;
  (match Feedback.worst () with
  | { Feedback.fb_key = "bad"; fb_worst_err; fb_last_est; fb_last_actual; _ }
    :: rest ->
      Alcotest.(check (float 1e-9)) "worst ratio" 1000.0 fb_worst_err;
      Alcotest.(check int) "last est" 1 fb_last_est;
      Alcotest.(check int) "last actual" 1000 fb_last_actual;
      (match rest with
      | { Feedback.fb_key = "middling"; _ } :: _ -> ()
      | _ -> Alcotest.fail "second-worst must follow")
  | _ -> Alcotest.fail "worst misestimate must rank first");
  Alcotest.(check int) "limit" 1 (List.length (Feedback.worst ~limit:1 ()));
  Feedback.reset ();
  Alcotest.(check int) "reset empties" 0 (List.length (Feedback.worst ()))

let test_feedback_bounded () =
  Feedback.reset ();
  for i = 1 to 1000 do
    Feedback.observe ~key:(Printf.sprintf "shape-%d" i) ~est:1 ~actual:i
  done;
  (* 256 distinct shapes plus at most one catch-all *)
  Alcotest.(check bool)
    (Printf.sprintf "bounded (size %d)" (Feedback.size ()))
    true
    (Feedback.size () <= 257);
  Alcotest.(check int) "no observation dropped" 1000
    (Feedback.total_observations ());
  Feedback.reset ()

(* --- Prometheus exposition --------------------------------------------- *)

let lines_of s = String.split_on_char '\n' s

let has_line ~prefix text =
  List.exists (fun l -> String.starts_with ~prefix l) (lines_of text)

let sample_value ~name text =
  List.find_map
    (fun l ->
      if String.starts_with ~prefix:(name ^ " ") l then
        float_of_string_opt
          (String.sub l (String.length name + 1)
             (String.length l - String.length name - 1))
      else None)
    (lines_of text)

let test_prometheus_render () =
  let m = Metrics.create () in
  Metrics.conn_accepted m;
  Metrics.request ~kind:"select" m ~latency:0.002;
  Metrics.request ~kind:"insert" m ~latency:0.010;
  Metrics.request ~kind:"select" m ~latency:0.0005;
  Metrics.error m;
  Metrics.shed m;
  Metrics.statement_captured m;
  let text = Metrics.prometheus m ~active:3 ~readers:2 ~domains:4 in
  Alcotest.(check (option (float 1e-9)))
    "request counter" (Some 3.0)
    (sample_value ~name:"mmdb_requests_total" text);
  Alcotest.(check (option (float 1e-9)))
    "captured counter" (Some 1.0)
    (sample_value ~name:"mmdb_captured_statements_total" text);
  Alcotest.(check (option (float 1e-9)))
    "active gauge" (Some 3.0)
    (sample_value ~name:"mmdb_active_connections" text);
  (* the latency histogram: cumulative buckets, and the +Inf bucket
     equals the _count sample *)
  let buckets =
    List.filter_map
      (fun l ->
        if
          String.starts_with ~prefix:"mmdb_request_latency_seconds_bucket{" l
        then
          match String.rindex_opt l ' ' with
          | Some i ->
              float_of_string_opt
                (String.sub l (i + 1) (String.length l - i - 1))
          | None -> None
        else None)
      (lines_of text)
  in
  Alcotest.(check bool) "has buckets" true (List.length buckets >= 2);
  ignore
    (List.fold_left
       (fun prev v ->
         Alcotest.(check bool) "buckets cumulative" true (v >= prev);
         v)
       0.0 buckets);
  let count = sample_value ~name:"mmdb_request_latency_seconds_count" text in
  Alcotest.(check (option (float 1e-9)))
    "+Inf bucket = count"
    (Some (List.nth buckets (List.length buckets - 1)))
    count;
  (* no line may start with a bare '#' other than HELP/TYPE *)
  List.iter
    (fun l ->
      if String.starts_with ~prefix:"#" l then
        Alcotest.(check bool) ("comment is HELP/TYPE: " ^ l) true
          (String.starts_with ~prefix:"# HELP " l
          || String.starts_with ~prefix:"# TYPE " l))
    (lines_of text)

(* --- the registry: every family in every rendering ----------------------- *)

module J = Mmdb_util.Json

(* A value at a STATS path; "[]" steps into the first element of a row
   list. *)
let rec json_at path j =
  match path with
  | [] -> Some j
  | "[]" :: rest -> (
      match j with J.List (x :: _) -> json_at rest x | _ -> None)
  | k :: rest -> Option.bind (J.member k j) (json_at rest)

let parse_stats text =
  match J.parse text with Ok j -> j | Error e -> Alcotest.fail e

(* A fixed state: serving-counter bumps, a trace, and a
   planner run with feedback and an advisor-created index. *)
let populated () =
  let open Mmdb_storage in
  let open Mmdb_core in
  Feedback.reset ();
  Advisor.reset ();
  let m = Metrics.create () in
  Metrics.conn_accepted m;
  Metrics.request ~kind:"select" m ~latency:0.002;
  Metrics.request ~kind:"insert" m ~latency:0.010;
  Metrics.request ~kind:"select" m ~latency:0.0005;
  Metrics.error m;
  Metrics.shed m;
  Metrics.statement_captured m;
  Metrics.cache_hit m;
  Metrics.cache_hit m;
  Metrics.cache_miss m;
  let tr = Mmdb_util.Trace.create () in
  Mmdb_util.Trace.run tr ~name:"query" (fun () ->
      Mmdb_util.Trace.with_span "select" ignore);
  Metrics.record_trace m (Option.get (Mmdb_util.Trace.root tr));
  let db = Db.create () in
  let schema =
    Schema.make ~name:"Hot"
      [ Schema.col ~ty:Schema.T_int "Id"; Schema.col ~ty:Schema.T_int "Grp" ]
  in
  ignore (Db.create_relation db ~schema ~primary_key:"Id");
  for i = 1 to 500 do
    ignore (Db.insert db ~rel:"Hot" [| Value.Int i; Value.Int (i mod 50) |])
  done;
  let cost = Optimizer.cost_based () in
  Optimizer.set_cost_based true;
  Fun.protect
    ~finally:(fun () -> Optimizer.set_cost_based cost)
    (fun () ->
      for _ = 1 to 20 do
        ignore
          (Executor.query db Query.(from "Hot" |> where_eq "Grp" (Value.Int 7)))
      done;
      ignore (Advisor.run db));
  m

let test_every_family_everywhere () =
  let m = populated () in
  let status = Metrics.render m ~active:3 ~readers:2 ~domains:4 in
  let stats = parse_stats (Metrics.stats_json m ~active:3 ~readers:2 ~domains:4) in
  let prom = Metrics.prometheus m ~active:3 ~readers:2 ~domains:4 in
  Mmdb_core.Advisor.reset ();
  Feedback.reset ();
  (* a section's STATUS block: its line and the indented lines below *)
  let block section =
    let rec from = function
      | [] -> []
      | l :: rest when String.starts_with ~prefix:(section ^ ":") l ->
          let rec body = function
            | l :: rest when String.starts_with ~prefix:" " l -> l :: body rest
            | _ -> []
          in
          l :: body rest
      | _ :: rest -> from rest
    in
    from (lines_of status)
  in
  let contains ~sub s =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  (* a key anywhere under a STATS section, rows and tables included *)
  let rec has_key key = function
    | J.Obj kvs -> List.exists (fun (k, j) -> k = key || has_key key j) kvs
    | J.List rows -> List.exists (has_key key) rows
    | _ -> false
  in
  Alcotest.(check bool) "registry is not empty" true (Metrics.family_names <> []);
  List.iter
    (fun (section, key, name) ->
      let key = if key = "" then "n" else key in
      let what = Printf.sprintf "%s.%s (%s)" section key name in
      Alcotest.(check bool) ("STATUS carries " ^ what) true
        (List.exists (contains ~sub:(key ^ "=")) (block section));
      Alcotest.(check bool) ("STATS carries " ^ what) true
        (match J.member section stats with
        | Some j -> has_key key j
        | None -> false);
      Alcotest.(check bool) ("METRICS types " ^ what) true
        (has_line ~prefix:("# TYPE " ^ name ^ " ") prom);
      Alcotest.(check bool) ("METRICS samples " ^ what) true
        (List.exists
           (fun l ->
             List.exists
               (fun suffix ->
                 String.starts_with ~prefix:(name ^ suffix ^ " ") l
                 || String.starts_with ~prefix:(name ^ suffix ^ "{") l)
               [ ""; "_count" ])
           (lines_of prom)))
    Metrics.family_names;
  (* every top-level STATS section has a STATUS line *)
  match stats with
  | J.Obj sections ->
      List.iter
        (fun (section, _) ->
          Alcotest.(check bool) ("STATUS line for " ^ section) true
            (block section <> []))
        sections
  | _ -> Alcotest.fail "STATS is not an object"

(* --- one reply, one snapshot ------------------------------------------- *)

(* A scrape racing a stream of requests must still agree with itself:
   the request total, the latency histogram's count and the per-kind
   counts all come from one snapshot. *)
let test_one_snapshot_per_reply () =
  let m = Metrics.create () in
  let stop = Atomic.make false in
  let bumper =
    Domain.spawn (fun () ->
        let i = ref 0 in
        while not (Atomic.get stop) do
          incr i;
          Metrics.request m
            ~kind:(if !i mod 3 = 0 then "insert" else "select")
            ~latency:1e-4
        done)
  in
  let value l =
    match String.rindex_opt l ' ' with
    | Some i -> float_of_string (String.sub l (i + 1) (String.length l - i - 1))
    | None -> nan
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Domain.join bumper)
    (fun () ->
      for scrape = 1 to 200 do
        let text = Metrics.prometheus m ~active:0 ~readers:1 ~domains:1 in
        let total = sample_value ~name:"mmdb_requests_total" text
        and count = sample_value ~name:"mmdb_request_latency_seconds_count" text
        and by_kind =
          List.fold_left
            (fun acc l ->
              if String.starts_with ~prefix:"mmdb_kind_requests_total{" l then
                acc +. value l
              else acc)
            0.0 (lines_of text)
        in
        let label = Printf.sprintf "scrape %d: " scrape in
        Alcotest.(check (option (float 0.0)))
          (label ^ "total = histogram count") total count;
        Alcotest.(check (option (float 0.0)))
          (label ^ "total = sum of per-kind counts") total (Some by_kind)
      done)

(* --- names the consumers read ------------------------------------------ *)

(* Every STATS path and Prometheus sample the renderings carried before
   the registry, pinned as literals: the bench's served workloads, the
   client's --watch and the smoke scripts read these. *)
let pinned_stats_paths =
  [
    "server.uptime_s"; "server.revision"; "server.domains"; "server.readers";
    "connections.active"; "connections.accepted"; "connections.rejected";
    "connections.closed"; "connections.idle_reaped"; "requests.total";
    "requests.errors"; "requests.timeouts"; "requests.conflicts";
    "requests.protocol_errors"; "requests.slow"; "requests.shed";
    "requests.quota_killed"; "requests.write_timeouts"; "requests.read_jobs";
    "requests.stmt_cache_hits"; "requests.stmt_cache_misses";
    "requests.captured"; "requests.capture_rotation_failed"; "planner.name";
    "planner.cost_based"; "advisor.runs"; "advisor.created";
    "advisor.dropped"; "advisor.active"; "last_60s.qps";
    "last_60s.errors_per_s"; "last_60s.shed_per_s"; "last_60s.p50_ms";
    "last_60s.p99_ms"; "latency.n"; "latency.p50_ms"; "latency.p99_ms";
    "latency.max_ms"; "mvcc.enabled"; "mvcc.commit_ts";
    "mvcc.snapshots_taken"; "mvcc.live_snapshots"; "mvcc.oldest_snapshot_age";
    "mvcc.gc_runs"; "mvcc.versions_created"; "mvcc.versions_reclaimed";
    "mvcc.tuples_swept"; "mvcc.max_chain"; "mvcc.versioned_tuples";
    "mvcc.horizon_lag"; "snapshot_reads.n"; "snapshot_reads.waited";
    "batch.enabled"; "batch.size";
    "batch.batches"; "batch.rows"; "batch.join_role_reversals";
    "by_kind.select.n"; "by_kind.select.p50_ms"; "by_kind.select.p99_ms";
    "by_kind.select.max_ms"; "by_kind.insert.n"; "by_kind.insert.p50_ms";
    "by_kind.insert.p99_ms"; "by_kind.insert.max_ms";
    "worst_misestimates.[].key"; "worst_misestimates.[].n";
    "worst_misestimates.[].avg_est"; "worst_misestimates.[].avg_actual";
    "worst_misestimates.[].worst_err"; "worst_misestimates.[].last_est";
    "worst_misestimates.[].last_actual"; "operators.[].operator";
    "operators.[].calls"; "operators.[].time_ms"; "operators.[].comparisons";
    "operators.[].data_moves"; "operators.[].hash_calls";
    "operators.[].ptr_derefs";
  ]

(* (family, type, label names of its samples) *)
let pinned_families =
  [
    ("mmdb_requests_total", "counter", []);
    ("mmdb_errors_total", "counter", []);
    ("mmdb_timeouts_total", "counter", []);
    ("mmdb_conflicts_total", "counter", []);
    ("mmdb_protocol_errors_total", "counter", []);
    ("mmdb_slow_queries_total", "counter", []);
    ("mmdb_shed_total", "counter", []);
    ("mmdb_quota_killed_total", "counter", []);
    ("mmdb_write_timeouts_total", "counter", []);
    ("mmdb_connections_accepted_total", "counter", []);
    ("mmdb_connections_rejected_total", "counter", []);
    ("mmdb_connections_closed_total", "counter", []);
    ("mmdb_connections_reaped_total", "counter", []);
    ("mmdb_stmt_cache_hits_total", "counter", []);
    ("mmdb_stmt_cache_misses_total", "counter", []);
    ("mmdb_read_jobs_total", "counter", []);
    ("mmdb_captured_statements_total", "counter", []);
    ("mmdb_capture_rotation_failed_total", "counter", []);
    ("mmdb_uptime_seconds", "gauge", []);
    ("mmdb_active_connections", "gauge", []);
    ("mmdb_executor_readers", "gauge", []);
    ("mmdb_domains", "gauge", []);
    ("mmdb_qps", "gauge", [ "window" ]);
    ("mmdb_error_rate", "gauge", [ "window" ]);
    ("mmdb_shed_rate", "gauge", [ "window" ]);
    ("mmdb_kind_requests_total", "counter", [ "kind" ]);
    ("mmdb_kind_latency_seconds", "gauge", [ "kind"; "quantile" ]);
    ( "mmdb_kind_latency_seconds_windowed", "gauge",
      [ "kind"; "quantile"; "window" ] );
    ("mmdb_mvcc_enabled", "gauge", []);
    ("mmdb_mvcc_snapshots_total", "counter", []);
    ("mmdb_mvcc_live_snapshots", "gauge", []);
    ("mmdb_mvcc_gc_runs_total", "counter", []);
    ("mmdb_mvcc_versions_created_total", "counter", []);
    ("mmdb_mvcc_versions_reclaimed_total", "counter", []);
    ("mmdb_mvcc_versioned_tuples", "gauge", []);
    ("mmdb_mvcc_horizon_lag", "gauge", []);
    ("mmdb_snapshot_reads_total", "counter", []);
    ("mmdb_snapshot_reads_waited_total", "counter", []);
    ("mmdb_batch_enabled", "gauge", []);
    ("mmdb_batches_total", "counter", []);
    ("mmdb_batch_rows_total", "counter", []);
    ("mmdb_join_role_reversals_total", "counter", []);
    ("mmdb_cost_based_enabled", "gauge", []);
    ("mmdb_advisor_runs_total", "counter", []);
    ("mmdb_advisor_indices_created_total", "counter", []);
    ("mmdb_advisor_indices_dropped_total", "counter", []);
    ("mmdb_advisor_active_indices", "gauge", []);
    ("mmdb_feedback_shapes", "gauge", []);
    ("mmdb_feedback_observations_total", "counter", []);
    ("mmdb_feedback_worst_err", "gauge", [ "key" ]);
    ("mmdb_request_latency_seconds", "histogram", []);
  ]

let test_consumer_names_survive () =
  let open Mmdb_util in
  let m = populated () in
  let mvcc = Mmdb_storage.Version_store.stats () in
  let stats = parse_stats (Metrics.stats_json m ~active:3 ~readers:2 ~domains:4) in
  let prom = Metrics.prometheus m ~active:3 ~readers:2 ~domains:4 in
  Mmdb_core.Advisor.reset ();
  Feedback.reset ();
  List.iter
    (fun path ->
      Alcotest.(check bool) ("STATS carries " ^ path) true
        (json_at (String.split_on_char '.' path) stats <> None))
    pinned_stats_paths;
  let samples =
    List.filter_map
      (fun l ->
        if l = "" || l.[0] = '#' then None
        else
          let key = String.sub l 0 (String.rindex l ' ') in
          match String.index_opt key '{' with
          | None -> Some (key, [])
          | Some i ->
              let body = String.sub key (i + 1) (String.length key - i - 2) in
              Some
                ( String.sub key 0 i,
                  List.map
                    (fun kv -> String.sub kv 0 (String.index kv '='))
                    (String.split_on_char ',' body) ))
      (lines_of prom)
  in
  List.iter
    (fun (family, typ, labels) ->
      Alcotest.(check bool) (Printf.sprintf "%s is a %s" family typ) true
        (has_line ~prefix:(Printf.sprintf "# TYPE %s %s" family typ) prom);
      let names =
        if typ = "histogram" then
          [ (family ^ "_bucket", [ "le" ]); (family ^ "_sum", []); (family ^ "_count", []) ]
        else [ (family, labels) ]
      in
      List.iter
        (fun (name, labels) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s{%s} sampled" name (String.concat "," labels))
            true
            (List.mem (name, labels) samples))
        names)
    pinned_families;
  (* the figures the bench, --watch and the smoke scripts read, with the
     values this state implies *)
  let stat path conv =
    Option.bind (json_at (String.split_on_char '.' path) stats) conv
  in
  let ms samples p =
    let h = Histogram.create () in
    List.iter (Histogram.add h) samples;
    Option.map (fun s -> s *. 1000.0) (Histogram.percentile h p)
  in
  let approx = Alcotest.(option (float 1e-6)) in
  Alcotest.(check (option int)) "requests.stmt_cache_hits" (Some 2)
    (stat "requests.stmt_cache_hits" J.to_int_opt);
  Alcotest.(check (option int)) "requests.stmt_cache_misses" (Some 1)
    (stat "requests.stmt_cache_misses" J.to_int_opt);
  Alcotest.(check (option int)) "mvcc.versions_reclaimed"
    (Some mvcc.Mmdb_storage.Version_store.st_versions_reclaimed)
    (stat "mvcc.versions_reclaimed" J.to_int_opt);
  Alcotest.(check (option int)) "mvcc.max_chain"
    (Some mvcc.Mmdb_storage.Version_store.st_max_chain)
    (stat "mvcc.max_chain" J.to_int_opt);
  Alcotest.(check (option int)) "by_kind.select.n" (Some 2)
    (stat "by_kind.select.n" J.to_int_opt);
  Alcotest.check approx "by_kind.select.p50_ms" (ms [ 0.002; 0.0005 ] 50.0)
    (stat "by_kind.select.p50_ms" J.to_float_opt);
  Alcotest.check approx "by_kind.select.p99_ms" (ms [ 0.002; 0.0005 ] 99.0)
    (stat "by_kind.select.p99_ms" J.to_float_opt);
  Alcotest.(check (option int)) "by_kind.insert.n" (Some 1)
    (stat "by_kind.insert.n" J.to_int_opt);
  let sample name = sample_value ~name prom in
  Alcotest.check approx "latency sum" (Some 0.0125)
    (sample "mmdb_request_latency_seconds_sum");
  Alcotest.check approx "latency count" (Some 3.0)
    (sample "mmdb_request_latency_seconds_count");
  Alcotest.check approx "qps" (Some (3.0 /. 60.0))
    (sample {|mmdb_qps{window="60s"}|});
  Alcotest.check approx "error rate" (Some (1.0 /. 60.0))
    (sample {|mmdb_error_rate{window="60s"}|});
  Alcotest.check approx "shed rate" (Some (1.0 /. 60.0))
    (sample {|mmdb_shed_rate{window="60s"}|});
  Alcotest.check approx "active connections" (Some 3.0)
    (sample "mmdb_active_connections")

(* --- capture: normalization, parameters, rotation ----------------------- *)

let test_normalize_sql () =
  let n = Capture.normalize_sql in
  Alcotest.(check string) "whitespace collapses" "SELECT 1;"
    (n "  SELECT\n\t 1;  ");
  Alcotest.(check string) "leading comment stripped" "SELECT * FROM T;"
    (n "-- header comment\nSELECT * FROM T;");
  Alcotest.(check string) "trailing comment stripped" "SELECT 1;"
    (n "SELECT 1; -- trailing");
  Alcotest.(check string) "comment mid-statement" "SELECT A FROM T;"
    (n "SELECT A -- pick a column\nFROM T;");
  Alcotest.(check string) "dashes inside quotes survive"
    "SELECT '--not a comment' FROM T;"
    (n "SELECT '--not a comment' FROM T;");
  Alcotest.(check string) "spaces inside quotes survive"
    "INSERT INTO T VALUES ('a  b');"
    (n "INSERT  INTO T\nVALUES ('a  b');");
  Alcotest.(check string) "comment-only input is empty" "" (n "-- nothing\n")

let test_capture_params_roundtrip () =
  let open Mmdb_storage in
  List.iter
    (fun v ->
      Alcotest.(check bool)
        (Fmt.str "value %a round-trips" Value.pp v)
        true
        (Value.equal v (Capture.value_of_json (Capture.value_to_json v))))
    [
      Value.Int 42; Value.Int min_int; Value.Float 1.5; Value.Str "x";
      Value.Str ""; Value.Bool true; Value.Bool false; Value.Null;
    ];
  (* structured JSON degrades to Null rather than exploding *)
  match Capture.value_of_json (Mmdb_util.Json.Obj []) with
  | Value.Null -> ()
  | v -> Alcotest.failf "expected Null, got %s" (Value.to_string v)

let test_capture_rotation () =
  let path = Filename.temp_file "mmdb_capture" ".jsonl" in
  let rotated = path ^ ".1" in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove path with Sys_error _ -> ());
      try Sys.remove rotated with Sys_error _ -> ())
    (fun () ->
      let c = Capture.create ~max_bytes:4096 ~path () in
      for i = 1 to 50 do
        let sql =
          Printf.sprintf "INSERT INTO KV VALUES (%d, %s);" i
            (String.make 120 '9')
        in
        Capture.record c ~ts:(float_of_int i) ~session:1 ~kind:"insert" ~sql
          ~elapsed_ms:0.1 ~rows:0 ~status:"ok" ~snapshot:(-1) ()
      done;
      Capture.close c;
      Alcotest.(check int) "all records counted" 50 (Capture.count c);
      Alcotest.(check bool) "rotated file exists" true (Sys.file_exists rotated);
      let size p = (Unix.stat p).Unix.st_size in
      Alcotest.(check bool) "current file within bound" true (size path <= 4096);
      Alcotest.(check bool) "rotated file within bound" true
        (size rotated <= 4096);
      (* rotation is single-level, so older generations are clobbered —
         but the two surviving files must hold a contiguous tail of the
         stream, ending at the newest record *)
      let parsed p =
        match Replay.load p with
        | Ok (records, skipped) ->
            Alcotest.(check int) ("no skips in " ^ p) 0 skipped;
            List.map
              (fun r ->
                Scanf.sscanf r.Replay.r_sql "INSERT INTO KV VALUES (%d,"
                  Fun.id)
              records
        | Error m -> Alcotest.fail m
      in
      let tail = parsed rotated @ parsed path in
      Alcotest.(check bool) "both generations non-empty" true
        (List.length tail >= 2);
      List.iteri
        (fun off i ->
          Alcotest.(check int) "contiguous tail"
            (50 - List.length tail + 1 + off)
            i)
        tail)

(* Regression: a failing rotation (rename target unwritable) must not
   lose records.  The old code closed the live channel first and
   re-opened the path with O_TRUNC, so a failed rename clobbered every
   buffered record; now the rename goes first and on failure the sink
   keeps appending past the bound, bumping [rotation_failed]. *)
let test_capture_rotation_failure () =
  let path = Filename.temp_file "mmdb_capture" ".jsonl" in
  let rotated = path ^ ".1" in
  (* a non-empty directory at the rename target makes Sys.rename fail *)
  Unix.mkdir rotated 0o755;
  let blocker = Filename.concat rotated "keep" in
  let oc = open_out blocker in
  output_string oc "x";
  close_out oc;
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove blocker with Sys_error _ -> ());
      (try Unix.rmdir rotated with Unix.Unix_error _ -> ());
      try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let failures_before = Capture.rotation_failed () in
      let c = Capture.create ~max_bytes:1024 ~path () in
      for i = 1 to 50 do
        let sql =
          Printf.sprintf "INSERT INTO KV VALUES (%d, %s);" i
            (String.make 120 '9')
        in
        Capture.record c ~ts:(float_of_int i) ~session:1 ~kind:"insert" ~sql
          ~elapsed_ms:0.1 ~rows:0 ~status:"ok" ~snapshot:(-1) ()
      done;
      Capture.close c;
      Alcotest.(check bool) "failures counted" true
        (Capture.rotation_failed () > failures_before);
      (* every record is still on disk, in order, despite the bound *)
      match Replay.load path with
      | Error m -> Alcotest.fail m
      | Ok (records, skipped) ->
          Alcotest.(check int) "no skips" 0 skipped;
          Alcotest.(check int) "no record lost" 50 (List.length records);
          List.iteri
            (fun off r ->
              Alcotest.(check int) "in order" (off + 1)
                (Scanf.sscanf r.Replay.r_sql "INSERT INTO KV VALUES (%d,"
                   Fun.id))
            records)

(* --- protocol: METRICS request / response ------------------------------- *)

let test_metrics_protocol_roundtrip () =
  let strip_len frame = String.sub frame 4 (String.length frame - 4) in
  (match
     Protocol.decode_request (strip_len (Protocol.encode_request Protocol.Metrics))
   with
  | Ok Protocol.Metrics -> ()
  | Ok _ -> Alcotest.fail "METRICS decoded as something else"
  | Error m -> Alcotest.fail m);
  let text = "# TYPE mmdb_up gauge\nmmdb_up 1\n" in
  match
    Protocol.decode_response
      (strip_len (Protocol.encode_response (Protocol.Metrics_text text)))
  with
  | Ok (Protocol.Metrics_text got) ->
      Alcotest.(check string) "payload survives" text got
  | Ok _ -> Alcotest.fail "METRICS text decoded as something else"
  | Error m -> Alcotest.fail m

(* --- end to end: capture a session, replay it clean --------------------- *)

let expect_ok c sql =
  match Client.query c sql with
  | Ok (Protocol.Error (code, msg)) ->
      Alcotest.fail
        (Printf.sprintf "%S failed (%s): %s" sql
           (Protocol.err_code_name code) msg)
  | Ok resp -> resp
  | Error m -> Alcotest.fail (Printf.sprintf "%S transport error: %s" sql m)

let connect srv =
  match Client.connect ~host:"127.0.0.1" ~port:(Server.port srv) () with
  | Ok c -> c
  | Error m -> Alcotest.fail ("connect failed: " ^ m)

(* --- snapshot read paths ------------------------------------------------- *)

(* With no writer anywhere, a cached served point read makes exactly one
   snapshot read entry (planning reads cardinalities, not snapshot
   counts), and none of them waits on a write mark. *)
let test_point_reads_fast_path () =
  let config =
    {
      Server.default_config with
      Server.port = 0;
      request_timeout = 10.0;
      idle_timeout = 0.0;
      mvcc = true;
    }
  in
  let srv = Server.start ~config (Mmdb_core.Db.create ()) in
  Fun.protect
    ~finally:(fun () -> Server.shutdown srv)
    (fun () ->
      let c = connect srv in
      ignore (expect_ok c "CREATE TABLE KV (K int PRIMARY KEY, V int);");
      for i = 1 to 200 do
        ignore (expect_ok c (Printf.sprintf "INSERT INTO KV VALUES (%d, %d);" i i))
      done;
      let reads key =
        match J.parse (Server.stats_json_text srv) with
        | Ok j ->
            Option.bind (J.member "snapshot_reads" j) (J.member key)
            |> Fun.flip Option.bind J.to_int_opt
            |> Option.value ~default:(-1)
        | Error e -> Alcotest.fail e
      in
      let select i =
        match expect_ok c (Printf.sprintf "SELECT V FROM KV WHERE K = %d;" i) with
        | Protocol.Results { rows = [ [| Mmdb_storage.Value.Int v |] ]; _ } ->
            Alcotest.(check int) "the row read" i v
        | r -> Alcotest.failf "unexpected reply %a" Protocol.pp_response r
      in
      (* the first read fills the statement and statistics caches *)
      select 1;
      let n0 = reads "n" and waited0 = reads "waited" in
      for i = 1 to 100 do
        select i
      done;
      Alcotest.(check int) "one read entry per point read" 100 (reads "n" - n0);
      Alcotest.(check int) "no point read waited on a write mark" 0
        (reads "waited" - waited0);
      Client.close c)

let test_capture_replay_e2e () =
  Feedback.reset ();
  let capture_path = Filename.temp_file "mmdb_e2e" ".jsonl" in
  Sys.remove capture_path;
  Fun.protect
    ~finally:(fun () ->
      try Sys.remove capture_path with Sys_error _ -> ())
    (fun () ->
      (* phase 1: drive a capturing server with a self-contained workload,
         errors included *)
      let config =
        {
          Server.default_config with
          Server.port = 0;
          request_timeout = 10.0;
          idle_timeout = 0.0;
          capture = Some capture_path;
        }
      in
      let db = Mmdb_core.Db.create () in
      let srv = Server.start ~config db in
      let statements = ref 0 in
      Fun.protect
        ~finally:(fun () -> Server.shutdown srv)
        (fun () ->
          let c = connect srv in
          let run sql =
            incr statements;
            ignore (expect_ok c sql)
          in
          run "CREATE TABLE KV (K int PRIMARY KEY, V int);";
          run "CREATE INDEX kv_v ON KV (V) USING ttree;";
          for i = 1 to 20 do
            run (Printf.sprintf "INSERT INTO KV VALUES (%d, %d);" i (i * 10))
          done;
          (* a prepared execution: replay must re-prepare and bind *)
          (match Client.prepare c "INSERT INTO KV VALUES (?, ?);" with
          | Ok (id, _) ->
              List.iter
                (fun k ->
                  incr statements;
                  match
                    Client.exec_prepared c id
                      [ Mmdb_storage.Value.Int k; Mmdb_storage.Value.Int 0 ]
                  with
                  | Ok (Protocol.Error (code, msg)) ->
                      Alcotest.failf "prepared insert failed (%s): %s"
                        (Protocol.err_code_name code) msg
                  | Ok _ -> ()
                  | Error m -> Alcotest.fail m)
                [ 100; 101; 102 ]
          | Error m -> Alcotest.fail ("prepare failed: " ^ m));
          run "SELECT K FROM KV WHERE V BETWEEN 50 AND 120;";
          run "SELECT COUNT(*) FROM KV;";
          run "UPDATE KV SET V = 999 WHERE K = 7;";
          run "DELETE FROM KV WHERE K = 9;";
          (* a captured error must replay as an error *)
          incr statements;
          (match Client.query c "INSERT INTO KV VALUES (1, 1);" with
          | Ok (Protocol.Error _) -> ()
          | Ok _ -> Alcotest.fail "duplicate key must error"
          | Error m -> Alcotest.fail m);
          run "SELECT K, V FROM KV WHERE K = 1;";
          Client.close c);
      (* phase 2: the capture replays clean against a fresh server *)
      (match Replay.load capture_path with
      | Ok (records, 0) ->
          Alcotest.(check int) "every statement captured" !statements
            (List.length records)
      | Ok (_, skipped) -> Alcotest.failf "%d malformed capture lines" skipped
      | Error m -> Alcotest.fail m);
      let config2 =
        {
          Server.default_config with
          Server.port = 0;
          request_timeout = 10.0;
          idle_timeout = 0.0;
        }
      in
      let db2 = Mmdb_core.Db.create () in
      let srv2 = Server.start ~config:config2 db2 in
      Fun.protect
        ~finally:(fun () -> Server.shutdown srv2)
        (fun () ->
          let c = connect srv2 in
          (match Replay.run_file c capture_path with
          | Ok outcome ->
              Alcotest.(check int) "statements replayed" !statements
                outcome.Replay.o_statements;
              Alcotest.(check int) "row mismatches" 0
                outcome.Replay.o_row_mismatches;
              Alcotest.(check int) "status mismatches" 0
                outcome.Replay.o_status_mismatches;
              Alcotest.(check int) "transport errors" 0
                outcome.Replay.o_transport_errors;
              Alcotest.(check bool) "clean" true (Replay.clean outcome);
              let report = Replay.render outcome in
              Alcotest.(check bool) "report says clean" true
                (let needle = "replay clean" in
                 let n = String.length needle in
                 let rec find i =
                   i + n <= String.length report
                   && (String.sub report i n = needle || find (i + 1))
                 in
                 find 0)
          | Error m -> Alcotest.fail m);
          Client.close c))

(* --- EXPLAIN ANALYZE over the join kernels --------------------------- *)

(* The join kernels count in per-call tallies, published on the domain
   that ran them before the join span closes, so EXPLAIN ANALYZE's
   exclusive operator counters still tile the total row exactly, and
   the join row holds the kernel's own counts. *)
let test_analyze_join_tiling () =
  let module W = Mmdb_core.Workload in
  let rng = Mmdb_util.Rng.create ~seed:31 () in
  let spec = { W.cardinality = 3_000; dup_pct = 40.0; dup_stddev = 0.8 } in
  let r1, r2 =
    W.relation_pair ~with_ttree:false rng ~outer:spec ~inner:spec
      ~semijoin_sel:80.0 ()
  in
  let db = Mmdb_core.Db.create () in
  List.iter
    (fun rel ->
      match Mmdb_core.Db.add db rel with
      | Ok () -> ()
      | Error e -> Alcotest.fail e)
    [ r1; r2 ];
  let session = Mmdb_lang.Interp.session db in
  let int_at (row : Mmdb_storage.Value.t array) i =
    match row.(i) with Mmdb_storage.Value.Int v -> v | _ -> 0
  in
  let name_of (row : Mmdb_storage.Value.t array) =
    match row.(0) with
    | Mmdb_storage.Value.Str s -> String.trim s
    | _ -> ""
  in
  List.iter
    (fun using ->
      let sql =
        Printf.sprintf
          "EXPLAIN ANALYZE SELECT * FROM R1 JOIN R2 ON R1.jcol = R2.jcol USING %s;"
          using
      in
      match Mmdb_lang.Interp.exec_string session sql with
      | Ok [ Mmdb_lang.Interp.Table r ] ->
          let rows = r.Mmdb_core.Aggregate.rows in
          let ops = List.filter (fun row -> name_of row <> "total") rows in
          let total = List.find (fun row -> name_of row = "total") rows in
          List.iteri
            (fun off col ->
              let summed =
                List.fold_left (fun acc row -> acc + int_at row (5 + off)) 0 ops
              in
              Alcotest.(check int)
                (Printf.sprintf "%s: %s rows sum to the total" using col)
                (int_at total (5 + off)) summed)
            [ "comparisons"; "data_moves"; "hash_calls"; "ptr_derefs" ];
          let join = List.find (fun row -> name_of row = "join") ops in
          Alcotest.(check bool)
            (using ^ ": the join row holds the kernel's comparisons")
            true
            (int_at join 5 > 0 && int_at join 5 = int_at total 5)
      | Ok _ -> Alcotest.fail ("expected a table for " ^ sql)
      | Error e -> Alcotest.fail e)
    [ "HASH"; "SORT_MERGE" ]

let () =
  Alcotest.run "observe"
    [
      ( "feedback",
        [
          Alcotest.test_case "symmetric error ratio" `Quick test_feedback_err;
          Alcotest.test_case "estimate needs warm-up" `Quick
            test_feedback_estimate_warmup;
          Alcotest.test_case "worst misestimates rank" `Quick
            test_feedback_worst;
          Alcotest.test_case "bounded shape table" `Quick test_feedback_bounded;
        ] );
      ( "prometheus",
        [ Alcotest.test_case "exposition renders" `Quick test_prometheus_render ] );
      ( "registry",
        [
          Alcotest.test_case "every family in every rendering" `Quick
            test_every_family_everywhere;
          Alcotest.test_case "one snapshot per reply" `Quick
            test_one_snapshot_per_reply;
          Alcotest.test_case "consumer names survive" `Quick
            test_consumer_names_survive;
        ] );
      ( "analyze",
        [
          Alcotest.test_case "join counters tile the total" `Quick
            test_analyze_join_tiling;
        ] );
      ( "capture",
        [
          Alcotest.test_case "normalize_sql" `Quick test_normalize_sql;
          Alcotest.test_case "parameter json round-trip" `Quick
            test_capture_params_roundtrip;
          Alcotest.test_case "size-bounded rotation" `Quick
            test_capture_rotation;
          Alcotest.test_case "failed rotation loses nothing" `Quick
            test_capture_rotation_failure;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "METRICS roundtrip" `Quick
            test_metrics_protocol_roundtrip;
        ] );
      ( "snapshot_reads",
        [
          Alcotest.test_case "point reads take the fast path" `Quick
            test_point_reads_fast_path;
        ] );
      ( "replay",
        [
          Alcotest.test_case "capture then replay clean" `Quick
            test_capture_replay_e2e;
        ] );
    ]
