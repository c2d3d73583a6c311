(* Per-server serving metrics, in the spirit of [Mmdb_util.Counters]:
   cheap monotonic counters bumped on the hot path, summarized on demand
   (STATUS / STATS request or SIGUSR1).  Latencies go into log-bucketed
   {!Mmdb_util.Histogram}s — one total plus one per statement kind — so
   percentiles cover the server's whole life and kinds roll up by bucket
   addition, unlike the old sampling reservoir which forgot.  Traced
   requests additionally feed a per-operator aggregate table (exclusive
   time and §3.1 counters per span name).  All access is mutex-guarded:
   session threads and the accept thread bump concurrently. *)

open Mmdb_util

(* Per-operator aggregate accumulated from trace span trees: exclusive
   time and counters, so operator rows sum to the "query" root row. *)
type op_stat = {
  mutable op_calls : int;
  mutable op_secs : float;
  mutable op_counters : Counters.snapshot;
}

type t = {
  m : Mutex.t;
  created : float;  (* Unix.gettimeofday at create: uptime base *)
  mutable accepted : int;  (* connections admitted *)
  mutable rejected : int;  (* admission-gate refusals (Busy) *)
  mutable closed : int;  (* sessions torn down *)
  mutable reaped : int;  (* sessions closed by the idle reaper *)
  mutable requests : int;  (* requests answered (any outcome) *)
  mutable errors : int;  (* requests answered with Error *)
  mutable timeouts : int;  (* per-request timeouts *)
  mutable conflicts : int;  (* lock-conflict / deadlock errors *)
  mutable proto_errors : int;  (* malformed frames / requests *)
  mutable cache_hits : int;  (* statement-cache hits *)
  mutable cache_misses : int;  (* statement-cache misses (fresh parses) *)
  mutable ro_jobs : int;  (* jobs dispatched on the parallel-reader path *)
  mutable slow : int;  (* requests over the slow-query threshold *)
  mutable shed : int;  (* requests dropped at the overload watermark *)
  mutable quota : int;  (* requests killed by a per-query quota *)
  mutable write_timeouts : int;  (* sessions cut for not draining writes *)
  mutable captured : int;  (* statements appended to the capture file *)
  latencies : Histogram.t;  (* seconds, per answered request *)
  by_kind : (string, Histogram.t) Hashtbl.t;  (* per statement kind *)
  ops : (string, op_stat) Hashtbl.t;  (* per-operator, from traces *)
  (* 120 x 1 s ring buffers behind the windowed figures (qps, error/shed
     rates, recent p50/p99) that METRICS exports and --watch renders;
     the all-time histograms above answer "since boot" instead. *)
  ts_requests : Timeseries.t;
  ts_errors : Timeseries.t;
  ts_shed : Timeseries.t;
  ts_latency : Timeseries.hist;
  ts_by_kind : (string, Timeseries.hist) Hashtbl.t;
}

(* The per-kind tables are bounded: statement kinds are a small closed
   set today (select/insert/.../control), but the keys arrive off the
   wire, so a cap keeps a misbehaving or future caller from growing the
   table forever — overflow folds into the "other" bucket. *)
let max_kinds = 16

let create () =
  {
    m = Mutex.create ();
    created = Unix.gettimeofday ();
    accepted = 0;
    rejected = 0;
    closed = 0;
    reaped = 0;
    requests = 0;
    errors = 0;
    timeouts = 0;
    conflicts = 0;
    proto_errors = 0;
    cache_hits = 0;
    cache_misses = 0;
    ro_jobs = 0;
    slow = 0;
    shed = 0;
    quota = 0;
    write_timeouts = 0;
    captured = 0;
    latencies = Histogram.create ();
    by_kind = Hashtbl.create 8;
    ops = Hashtbl.create 16;
    ts_requests = Timeseries.create ();
    ts_errors = Timeseries.create ();
    ts_shed = Timeseries.create ();
    ts_latency = Timeseries.create_hist ();
    ts_by_kind = Hashtbl.create 8;
  }

let locked t f =
  Mutex.lock t.m;
  let r = f () in
  Mutex.unlock t.m;
  r

let uptime t = Unix.gettimeofday () -. t.created

let conn_accepted t = locked t (fun () -> t.accepted <- t.accepted + 1)
let conn_rejected t = locked t (fun () -> t.rejected <- t.rejected + 1)

let conn_closed ?(reaped = false) t =
  locked t (fun () ->
      t.closed <- t.closed + 1;
      if reaped then t.reaped <- t.reaped + 1)

(* The canonical kind bucket: an existing key, or — at the cap — the
   overflow "other" bucket instead of a fresh entry.  Called under the
   lock; [by_kind] and [ts_by_kind] always share a key set. *)
let kind_bucket t kind =
  if Hashtbl.mem t.by_kind kind then kind
  else if Hashtbl.length t.by_kind >= max_kinds then "other"
  else kind

let request ?(kind = "other") t ~latency =
  locked t (fun () ->
      t.requests <- t.requests + 1;
      Histogram.add t.latencies latency;
      Timeseries.add t.ts_requests 1.0;
      Timeseries.observe t.ts_latency latency;
      let kind = kind_bucket t kind in
      let h =
        match Hashtbl.find_opt t.by_kind kind with
        | Some h -> h
        | None ->
            let h = Histogram.create () in
            Hashtbl.replace t.by_kind kind h;
            h
      in
      Histogram.add h latency;
      let ring =
        match Hashtbl.find_opt t.ts_by_kind kind with
        | Some r -> r
        | None ->
            let r = Timeseries.create_hist () in
            Hashtbl.replace t.ts_by_kind kind r;
            r
      in
      Timeseries.observe ring latency)

let error t =
  locked t (fun () ->
      t.errors <- t.errors + 1;
      Timeseries.add t.ts_errors 1.0)

let timeout t = locked t (fun () -> t.timeouts <- t.timeouts + 1)
let conflict t = locked t (fun () -> t.conflicts <- t.conflicts + 1)
let proto_error t = locked t (fun () -> t.proto_errors <- t.proto_errors + 1)
let cache_hit t = locked t (fun () -> t.cache_hits <- t.cache_hits + 1)
let cache_miss t = locked t (fun () -> t.cache_misses <- t.cache_misses + 1)
let read_job t = locked t (fun () -> t.ro_jobs <- t.ro_jobs + 1)
let slow_query t = locked t (fun () -> t.slow <- t.slow + 1)

let shed t =
  locked t (fun () ->
      t.shed <- t.shed + 1;
      Timeseries.add t.ts_shed 1.0)

let quota_killed t = locked t (fun () -> t.quota <- t.quota + 1)

let statement_captured t = locked t (fun () -> t.captured <- t.captured + 1)

let write_timeout t =
  locked t (fun () -> t.write_timeouts <- t.write_timeouts + 1)

(* Fold a finished trace into the per-operator table.  Exclusive times
   and counters, so each operator's row charges only its own work. *)
let record_trace t root =
  locked t (fun () ->
      ignore
        (Trace.fold
           (fun () ~depth:_ sp ->
             let excl_secs =
               List.fold_left
                 (fun s (c : Trace.span) -> s -. c.Trace.sp_elapsed)
                 sp.Trace.sp_elapsed sp.Trace.sp_children
             in
             let st =
               match Hashtbl.find_opt t.ops sp.Trace.sp_name with
               | Some st -> st
               | None ->
                   let st =
                     { op_calls = 0; op_secs = 0.0; op_counters = Counters.zero }
                   in
                   Hashtbl.replace t.ops sp.Trace.sp_name st;
                   st
             in
             st.op_calls <- st.op_calls + 1;
             st.op_secs <- st.op_secs +. Float.max 0.0 excl_secs;
             st.op_counters <-
               Counters.add st.op_counters (Trace.exclusive_counters sp))
           () ~depth:0 root))

(* --- one reply's view ----------------------------------------------------- *)

(* Everything one STATUS / STATS / METRICS reply reports, read once under
   the lock, so a reply's request total, latency histogram and per-kind
   rows always agree.  The engine subsystems' figures are read there too,
   one call each: they take their own locks, never the other way round. *)
type view = {
  c : t;  (* a copy of [t]: its counters, frozen *)
  latency : Histogram.t;
  recent : Histogram.t;  (* the trailing window *)
  kinds : (string * Histogram.t * Histogram.t) list;  (* since boot, window *)
  ops : (string * op_stat) list;
  qps : float;
  err_rate : float;
  shed_rate : float;
  active : int;
  readers : int;
  domains : int;
  mvcc : Mmdb_storage.Version_store.stats;
  batch : Mmdb_storage.Batch.stats;
  reversals : int;
  cost_based : bool;
  planner : string;
  advisor : Mmdb_core.Advisor.stats;
  shapes : int;
  observations : int;
  worst : Mmdb_core.Feedback.entry list;
  rotation_failed : int;
}

let window = 60.0

let copy h = Histogram.merge h (Histogram.create ())

let read t ~active ~readers ~domains =
  let sorted f tbl =
    List.sort compare (Hashtbl.fold (fun k x acc -> f k x :: acc) tbl [])
  in
  locked t (fun () ->
      {
        c = { t with accepted = t.accepted };
        latency = copy t.latencies;
        recent = Timeseries.merged t.ts_latency ~window;
        kinds =
          sorted
            (fun kind h ->
              let ring = Hashtbl.find t.ts_by_kind kind in
              (kind, copy h, Timeseries.merged ring ~window))
            t.by_kind;
        ops = sorted (fun name st -> (name, { st with op_calls = st.op_calls }))
            t.ops;
        qps = Timeseries.rate t.ts_requests ~window;
        err_rate = Timeseries.rate t.ts_errors ~window;
        shed_rate = Timeseries.rate t.ts_shed ~window;
        active;
        readers;
        domains;
        mvcc = Mmdb_storage.Version_store.stats ();
        batch = Mmdb_storage.Batch.stats ();
        reversals = snd (Mmdb_core.Join.skew_stats ());
        cost_based = Mmdb_core.Optimizer.cost_based ();
        planner = Mmdb_core.Optimizer.planner_name ();
        advisor = Mmdb_core.Advisor.stats ();
        shapes = Mmdb_core.Feedback.size ();
        observations = Mmdb_core.Feedback.total_observations ();
        worst = Mmdb_core.Feedback.worst ~limit:8 ();
        rotation_failed = Capture.rotation_failed ();
      })

(* --- the registry ------------------------------------------------------- *)

type value =
  | Int of int
  | Float of float
  | Bool of bool  (* 1 or 0 in Prometheus *)
  | Secs of float option
      (* milliseconds in STATS and STATUS, seconds in Prometheus; [None]
         (no samples) is null there and no sample here *)
  | Info of string
      (* Prometheus: 1, with the string as a label named by the key *)
  | Hist of Histogram.t
      (* Prometheus: cumulative [le] buckets; STATS and STATUS: fields n,
         p50_ms, p99_ms and max_ms stand in for the key *)

(* Where a family's rows sit in STATS. *)
type table =
  | Scalar  (* section.key *)
  | Keyed  (* section.<label>.key *)
  | Rows of string option
      (* a list of row objects at section (or section.sub), each holding
         its labels and one field per family *)

type family = {
  section : string;
  key : string;
  table : table;
  name : string;  (* Prometheus family *)
  help : string;
  typ : string;  (* counter, gauge or histogram *)
  labels : string list;
  const : (string * string) list;  (* fixed labels, Prometheus only *)
  read : view -> (string list * value) list;  (* label values, value *)
}

let family ?(table = Scalar) ?(labels = []) ?(const = []) typ (section, key)
    name help read =
  { section; key; table; name; help; typ; labels; const; read }

let one ?const typ at name help f =
  family ?const typ at name help (fun v -> [ ([], f v) ])

let counter at name help f = one "counter" at name help (fun v -> Int (f v))
let gauge ?const at name help f = one ?const "gauge" at name help f

(* A column of a labelled table: one row per element of [rows v]. *)
let column table labels rows ?const typ at name help f =
  family ~table ~labels ?const typ at name help (fun v -> List.map f (rows v))

let kind ?const typ key name help f =
  column Keyed [ "kind" ] (fun v -> v.kinds) ?const typ ("by_kind", key) name
    help (fun (k, h, r) -> ([ k ], f h r))

let misestimate key name help f =
  column (Rows None) [ "key" ] (fun v -> v.worst) "gauge"
    ("worst_misestimates", key) name help (fun (e : Mmdb_core.Feedback.entry) ->
      ([ e.fb_key ], f e))

let op key name help f =
  column (Rows None) [ "operator" ] (fun v -> v.ops) "counter"
    ("operators", key) name help (fun (n, st) -> ([ n ], f st))

let q50 = ("quantile", "0.5") and q99 = ("quantile", "0.99")
let win = ("window", "60s")
let pct h p = Secs (Histogram.percentile h p)

(* Every metric the server reports, defined once, in the order all three
   renderings list them. *)
let families =
  [
    gauge ("server", "uptime_s") "mmdb_uptime_seconds"
      "Seconds since server start" (fun v -> Float (uptime v.c));
    gauge ("server", "revision") "mmdb_build_info"
      "Git revision of the server build" (fun _ -> Info (Build.git_rev ()));
    gauge ("server", "domains") "mmdb_domains" "Domains in the execution pool"
      (fun v -> Int v.domains);
    gauge ("server", "readers") "mmdb_executor_readers"
      "Parallel read-job slots" (fun v -> Int v.readers);
    gauge ("connections", "active") "mmdb_active_connections"
      "Currently live sessions" (fun v -> Int v.active);
    counter ("connections", "accepted") "mmdb_connections_accepted_total"
      "Connections admitted" (fun v -> v.c.accepted);
    counter ("connections", "rejected") "mmdb_connections_rejected_total"
      "Admission-gate refusals" (fun v -> v.c.rejected);
    counter ("connections", "closed") "mmdb_connections_closed_total"
      "Sessions torn down" (fun v -> v.c.closed);
    counter ("connections", "idle_reaped") "mmdb_connections_reaped_total"
      "Sessions closed by the idle reaper" (fun v -> v.c.reaped);
    counter ("requests", "total") "mmdb_requests_total"
      "Requests answered (any outcome)" (fun v -> v.c.requests);
    counter ("requests", "errors") "mmdb_errors_total"
      "Requests answered with an error" (fun v -> v.c.errors);
    counter ("requests", "timeouts") "mmdb_timeouts_total"
      "Per-request timeouts" (fun v -> v.c.timeouts);
    counter ("requests", "conflicts") "mmdb_conflicts_total"
      "Lock-conflict / deadlock errors" (fun v -> v.c.conflicts);
    counter ("requests", "protocol_errors") "mmdb_protocol_errors_total"
      "Malformed frames or requests" (fun v -> v.c.proto_errors);
    counter ("requests", "slow") "mmdb_slow_queries_total"
      "Requests over the slow-query threshold" (fun v -> v.c.slow);
    counter ("requests", "shed") "mmdb_shed_total"
      "Requests dropped at the overload watermark" (fun v -> v.c.shed);
    counter ("requests", "quota_killed") "mmdb_quota_killed_total"
      "Requests killed by a per-query quota" (fun v -> v.c.quota);
    counter ("requests", "write_timeouts") "mmdb_write_timeouts_total"
      "Sessions cut for not draining their replies" (fun v ->
        v.c.write_timeouts);
    counter ("requests", "read_jobs") "mmdb_read_jobs_total"
      "Jobs dispatched on the parallel-reader path" (fun v -> v.c.ro_jobs);
    counter ("requests", "stmt_cache_hits") "mmdb_stmt_cache_hits_total"
      "Statement-cache hits" (fun v -> v.c.cache_hits);
    counter ("requests", "stmt_cache_misses") "mmdb_stmt_cache_misses_total"
      "Statement-cache misses" (fun v -> v.c.cache_misses);
    counter ("requests", "captured") "mmdb_captured_statements_total"
      "Statements appended to the workload capture file" (fun v ->
        v.c.captured);
    counter ("requests", "capture_rotation_failed")
      "mmdb_capture_rotation_failed_total"
      "Capture-file rotations that failed (file kept growing, no loss)"
      (fun v -> v.rotation_failed);
    gauge ("planner", "name") "mmdb_planner_info" "The active planner"
      (fun v -> Info v.planner);
    gauge ("planner", "cost_based") "mmdb_cost_based_enabled"
      "1 when the cost-based planner is active" (fun v -> Bool v.cost_based);
    counter ("advisor", "runs") "mmdb_advisor_runs_total"
      "Index-advisor passes executed" (fun v -> v.advisor.adv_runs);
    counter ("advisor", "created") "mmdb_advisor_indices_created_total"
      "Secondary indices the advisor has created" (fun v ->
        v.advisor.adv_created);
    counter ("advisor", "dropped") "mmdb_advisor_indices_dropped_total"
      "Advisor-created indices dropped as stale" (fun v ->
        v.advisor.adv_dropped);
    gauge ("advisor", "active_indices") "mmdb_advisor_active_indices"
      "Advisor-owned indices currently live" (fun v ->
        Int (List.length v.advisor.adv_active));
    column (Rows (Some "active")) [ "relation" ]
      (fun v -> v.advisor.adv_active)
      "gauge" ("advisor", "index") "mmdb_advisor_active_index"
      "An advisor-owned index currently live" (fun (rel, idx) ->
        ([ rel ], Info idx));
    gauge ~const:[ win ] ("last_60s", "qps") "mmdb_qps"
      "Requests per second over the trailing window" (fun v -> Float v.qps);
    gauge ~const:[ win ] ("last_60s", "errors_per_s") "mmdb_error_rate"
      "Errors per second over the trailing window" (fun v -> Float v.err_rate);
    gauge ~const:[ win ] ("last_60s", "shed_per_s") "mmdb_shed_rate"
      "Shed requests per second over the trailing window" (fun v ->
        Float v.shed_rate);
    gauge ~const:[ q50; win ] ("last_60s", "p50_ms")
      "mmdb_recent_latency_seconds"
      "Request latency quantiles over the trailing window" (fun v ->
        pct v.recent 50.0);
    gauge ~const:[ q99; win ] ("last_60s", "p99_ms")
      "mmdb_recent_latency_seconds"
      "Request latency quantiles over the trailing window" (fun v ->
        pct v.recent 99.0);
    one "histogram" ("latency", "") "mmdb_request_latency_seconds"
      "Request latency since boot" (fun v -> Hist v.latency);
    gauge ("mvcc", "enabled") "mmdb_mvcc_enabled"
      "1 when the MVCC read path is on" (fun v -> Bool v.mvcc.st_enabled);
    gauge ("mvcc", "commit_ts") "mmdb_mvcc_commit_ts" "Latest commit timestamp"
      (fun v -> Int v.mvcc.st_commit_ts);
    counter ("mvcc", "snapshots_taken") "mmdb_mvcc_snapshots_total"
      "Statement snapshots taken" (fun v -> v.mvcc.st_snapshots_taken);
    gauge ("mvcc", "live_snapshots") "mmdb_mvcc_live_snapshots"
      "Currently live snapshots" (fun v -> Int v.mvcc.st_live_snapshots);
    gauge ("mvcc", "oldest_snapshot_age") "mmdb_mvcc_oldest_snapshot_age"
      "Age of the oldest live snapshot, in commits" (fun v ->
        Int v.mvcc.st_oldest_snapshot_age);
    counter ("mvcc", "gc_runs") "mmdb_mvcc_gc_runs_total"
      "Version-store GC passes" (fun v -> v.mvcc.st_gc_runs);
    counter ("mvcc", "versions_created") "mmdb_mvcc_versions_created_total"
      "Tuple versions created" (fun v -> v.mvcc.st_versions_created);
    counter ("mvcc", "versions_reclaimed") "mmdb_mvcc_versions_reclaimed_total"
      "Tuple versions reclaimed" (fun v -> v.mvcc.st_versions_reclaimed);
    counter ("mvcc", "tuples_swept") "mmdb_mvcc_tuples_swept_total"
      "Tuples whose version chains GC has swept" (fun v ->
        v.mvcc.st_tuples_swept);
    gauge ("mvcc", "max_chain") "mmdb_mvcc_max_chain"
      "Longest version chain seen" (fun v -> Int v.mvcc.st_max_chain);
    gauge ("mvcc", "versioned_tuples") "mmdb_mvcc_versioned_tuples"
      "Tuples with a non-empty version chain, over every relation: what \
       each snapshot read and GC pass walks"
      (fun v -> Int v.mvcc.st_versioned_tuples);
    gauge ("mvcc", "horizon_lag") "mmdb_mvcc_horizon_lag"
      "Commits since the horizon the latest GC pass pruned to" (fun v ->
        Int v.mvcc.st_horizon_lag);
    counter ("snapshot_reads", "n") "mmdb_snapshot_reads_total"
      "Snapshot read entries: a live-index pass plus the versioned tuples"
      (fun v -> v.mvcc.st_snapshot_reads);
    counter ("snapshot_reads", "waited") "mmdb_snapshot_reads_waited_total"
      "Snapshot read entries that first waited out a held write mark"
      (fun v -> v.mvcc.st_waited_reads);
    gauge ("batch", "enabled") "mmdb_batch_enabled"
      "1 when batches carry more than one tuple" (fun v ->
        Bool v.batch.st_enabled);
    gauge ("batch", "size") "mmdb_batch_size" "Tuples per execution batch"
      (fun v -> Int v.batch.st_size);
    counter ("batch", "batches") "mmdb_batches_total" "Batches formed" (fun v ->
        v.batch.st_batches);
    counter ("batch", "rows") "mmdb_batch_rows_total" "Rows carried in batches"
      (fun v -> v.batch.st_rows);
    counter ("batch", "join_role_reversals") "mmdb_join_role_reversals_total"
      "Skew-triggered build/probe role reversals in the partitioned join"
      (fun v -> v.reversals);
    gauge ("feedback", "shapes") "mmdb_feedback_shapes"
      "Distinct plan shapes in the feedback store" (fun v -> Int v.shapes);
    counter ("feedback", "observations") "mmdb_feedback_observations_total"
      "Operator executions recorded in the feedback store" (fun v ->
        v.observations);
    kind "counter" "n" "mmdb_kind_requests_total" "Requests per statement kind"
      (fun h _ -> Int (Histogram.count h));
    kind ~const:[ q50 ] "gauge" "p50_ms" "mmdb_kind_latency_seconds"
      "Per-statement-kind latency quantiles since boot" (fun h _ -> pct h 50.0);
    kind ~const:[ q99 ] "gauge" "p99_ms" "mmdb_kind_latency_seconds"
      "Per-statement-kind latency quantiles since boot" (fun h _ -> pct h 99.0);
    kind "gauge" "max_ms" "mmdb_kind_latency_max_seconds"
      "Per-statement-kind latency maximum since boot" (fun h _ ->
        Secs (Histogram.max_sample h));
    kind ~const:[ q50; win ] "gauge" "p50_60s_ms"
      "mmdb_kind_latency_seconds_windowed"
      "Per-statement-kind latency quantiles over the trailing window"
      (fun _ r -> pct r 50.0);
    kind ~const:[ q99; win ] "gauge" "p99_60s_ms"
      "mmdb_kind_latency_seconds_windowed"
      "Per-statement-kind latency quantiles over the trailing window"
      (fun _ r -> pct r 99.0);
    misestimate "n" "mmdb_feedback_shape_observations"
      "Observations per plan shape (top offenders)" (fun e -> Int e.fb_n);
    misestimate "avg_est" "mmdb_feedback_avg_est_rows"
      "Average estimated rows per plan shape (top offenders)" (fun e ->
        Float e.fb_avg_est);
    misestimate "avg_actual" "mmdb_feedback_avg_actual_rows"
      "Average actual rows per plan shape (top offenders)" (fun e ->
        Float e.fb_avg_actual);
    misestimate "worst_err" "mmdb_feedback_worst_err"
      "Worst symmetric misestimation ratio per plan shape (top offenders)"
      (fun e -> Float e.fb_worst_err);
    misestimate "last_est" "mmdb_feedback_last_est_rows"
      "Last estimated rows per plan shape (top offenders)" (fun e ->
        Int e.fb_last_est);
    misestimate "last_actual" "mmdb_feedback_last_actual_rows"
      "Last actual rows per plan shape (top offenders)" (fun e ->
        Int e.fb_last_actual);
    op "calls" "mmdb_operator_calls_total" "Traced executions per operator"
      (fun st -> Int st.op_calls);
    op "time_ms" "mmdb_operator_seconds_total"
      "Exclusive traced time per operator" (fun st -> Secs (Some st.op_secs));
    op "comparisons" "mmdb_operator_comparisons_total"
      "Key comparisons per operator (paper section 3.1)" (fun st ->
        Int st.op_counters.Counters.comparisons);
    op "data_moves" "mmdb_operator_data_moves_total"
      "Data moves per operator (paper section 3.1)" (fun st ->
        Int st.op_counters.Counters.data_moves);
    op "hash_calls" "mmdb_operator_hash_calls_total"
      "Hash-function calls per operator (paper section 3.1)" (fun st ->
        Int st.op_counters.Counters.hash_calls);
    op "ptr_derefs" "mmdb_operator_ptr_derefs_total"
      "Pointer dereferences per operator (paper section 3.1)" (fun st ->
        Int st.op_counters.Counters.ptr_derefs);
  ]

let family_names = List.map (fun f -> (f.section, f.key, f.name)) families

(* --- STATS and STATUS: the families set into one JSON tree -------------- *)

(* A step into the tree: an object key, or the row of a row list whose
   label fields are these. *)
type step = K of string | R of (string * Json.t) list

(* [kvs] with [k]'s value (or [init], appended) passed through [f]. *)
let rec upd k ~init f = function
  | [] -> [ (k, f init) ]
  | (k', x) :: rest when k' = k -> (k, f x) :: rest
  | kv :: rest -> kv :: upd k ~init f rest

(* Set [x] at [path] in [j], creating objects and rows on the way; an
   object set onto an object merges into it, and an empty container
   leaves an existing one alone. *)
let rec insert path x j =
  match (path, j, x) with
  | [], Json.Obj a, Json.Obj b ->
      Json.Obj (List.fold_left (fun a (k, y) -> upd k ~init:y Fun.id a) a b)
  | [], Json.List _, Json.List [] -> j
  | [], _, _ -> x
  | K k :: rest, Json.Obj kvs, _ ->
      let init = match rest with R _ :: _ -> Json.List [] | _ -> Json.Obj [] in
      Json.Obj (upd k ~init (insert rest x) kvs)
  | R ids :: rest, Json.List rows, _ ->
      let mine = function
        | Json.Obj kvs -> List.for_all (fun kv -> List.mem kv kvs) ids
        | _ -> false
      in
      if List.exists mine rows then
        Json.List
          (List.map (fun r -> if mine r then insert rest x r else r) rows)
      else Json.List (rows @ [ insert rest x (Json.Obj ids) ])
  | _ -> j

let rec json = function
  | Int n -> Json.Int n
  | Float x -> Json.Float x
  | Bool b -> Json.Bool b
  | Secs s ->
      Option.fold ~none:Json.Null ~some:(fun x -> Json.Float (x *. 1000.0)) s
  | Info s -> Json.Str s
  | Hist h ->
      Json.Obj
        [
          ("n", Json.Int (Histogram.count h));
          ("p50_ms", json (Secs (Histogram.percentile h 50.0)));
          ("p99_ms", json (Secs (Histogram.percentile h 99.0)));
          ("max_ms", json (Secs (Histogram.max_sample h)));
        ]

let tree v =
  List.fold_left
    (fun tree f ->
      let base =
        K f.section :: (match f.table with Rows (Some s) -> [ K s ] | _ -> [])
      in
      let empty =
        match f.table with Rows _ -> Json.List [] | _ -> Json.Obj []
      in
      List.fold_left
        (fun tree (labels, x) ->
          let row =
            match f.table with
            | Scalar -> []
            | Keyed -> [ K (List.hd labels) ]
            | Rows _ ->
                [ R (List.map2 (fun k l -> (k, Json.Str l)) f.labels labels) ]
          in
          let key = match x with Hist _ -> [] | _ -> [ K f.key ] in
          insert (base @ row @ key) (json x) tree)
        (insert base empty tree) (f.read v))
    (Json.Obj []) families

(* STATUS: the STATS tree as text.  A section's scalar fields share its
   line; each nested table follows, one row per line. *)
let text tree =
  let scalar = function
    | Json.Float x when not (Float.is_integer x) -> Printf.sprintf "%.3f" x
    | Json.Str s -> s
    | x -> Json.to_string x
  in
  let nested = function Json.Obj _ | Json.List _ -> true | _ -> false in
  let kvs = function Json.Obj kvs -> kvs | _ -> [] in
  let fields j =
    List.filter_map
      (fun (k, x) -> if nested x then None else Some (k ^ "=" ^ scalar x))
      (kvs j)
  in
  let rec lines indent (k, j) =
    let head = indent ^ k ^ ":" in
    (if fields j = [] then head
     else String.concat " " (Printf.sprintf "%-12s" head :: fields j))
    ::
    (match j with
    | Json.List rows ->
        List.map (fun r -> indent ^ "  " ^ String.concat " " (fields r)) rows
    | j ->
        List.concat_map (lines (indent ^ "  "))
          (List.filter (fun (_, x) -> nested x) (kvs j)))
  in
  String.concat "\n" (List.concat_map (lines "") (kvs tree))

(* --- Prometheus text exposition ----------------------------------------- *)

(* Hand-rendered like [Util.Json]: no dependency, no surprises.  The
   format is the v0.0.4 text exposition — "# HELP"/"# TYPE" preambles,
   one sample per line, histograms as cumulative [_bucket{le="..."}]
   series plus [_sum]/[_count].  Everything carries the [mmdb_] prefix.
   Counters here are monotonic for the life of the process (scrapers
   detect restarts via [mmdb_uptime_seconds] resetting). *)

let prom_float v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%g" v

(* Label values per the exposition format: backslash, double-quote and
   newline escaped. *)
let prom_label_value s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b {|\\|}
      | '"' -> Buffer.add_string b {|\"|}
      | '\n' -> Buffer.add_string b {|\n|}
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Families sharing a name (one per quantile) are adjacent in the
   registry and share one preamble. *)
let exposition v =
  let b = Buffer.create 4096 in
  let sample name labels x =
    let l =
      List.map
        (fun (k, s) -> Printf.sprintf "%s=\"%s\"" k (prom_label_value s))
        labels
    in
    Printf.bprintf b "%s%s %s\n" name
      (if l = [] then "" else "{" ^ String.concat "," l ^ "}")
      (prom_float x)
  in
  let prev = ref "" in
  List.iter
    (fun f ->
      if f.name <> !prev then
        Printf.bprintf b "# HELP %s %s\n# TYPE %s %s\n" f.name f.help f.name
          f.typ;
      prev := f.name;
      List.iter
        (fun (l, x) ->
          let labels = List.combine f.labels l @ f.const in
          match x with
          | Int n -> sample f.name labels (float_of_int n)
          | Float x -> sample f.name labels x
          | Bool b -> sample f.name labels (if b then 1.0 else 0.0)
          | Secs s -> Option.iter (sample f.name labels) s
          | Info s -> sample f.name (labels @ [ (f.key, s) ]) 1.0
          | Hist h ->
              let cum = ref 0 and n = float_of_int (Histogram.count h) in
              List.iter
                (fun (ub, k) ->
                  cum := !cum + k;
                  sample (f.name ^ "_bucket")
                    (labels @ [ ("le", Printf.sprintf "%g" ub) ])
                    (float_of_int !cum))
                (Histogram.buckets h);
              sample (f.name ^ "_bucket") (labels @ [ ("le", "+Inf") ]) n;
              sample (f.name ^ "_sum") labels (Histogram.sum h);
              sample (f.name ^ "_count") labels n)
        (f.read v))
    families;
  Buffer.contents b

let render t ~active ~readers ~domains =
  text (tree (read t ~active ~readers ~domains))

let stats_json t ~active ~readers ~domains =
  Json.to_string (tree (read t ~active ~readers ~domains))

let prometheus t ~active ~readers ~domains =
  exposition (read t ~active ~readers ~domains)
