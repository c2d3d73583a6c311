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
  ts_timeouts : Timeseries.t;
  ts_shed : Timeseries.t;
  ts_quota : Timeseries.t;
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
    ts_timeouts = Timeseries.create ();
    ts_shed = Timeseries.create ();
    ts_quota = Timeseries.create ();
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

let timeout t =
  locked t (fun () ->
      t.timeouts <- t.timeouts + 1;
      Timeseries.add t.ts_timeouts 1.0)
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

let quota_killed t =
  locked t (fun () ->
      t.quota <- t.quota + 1;
      Timeseries.add t.ts_quota 1.0)

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

type snapshot = {
  s_accepted : int;
  s_rejected : int;
  s_closed : int;
  s_reaped : int;
  s_requests : int;
  s_errors : int;
  s_timeouts : int;
  s_conflicts : int;
  s_proto_errors : int;
  s_cache_hits : int;
  s_cache_misses : int;
  s_ro_jobs : int;
  s_slow : int;
  s_shed : int;
  s_quota : int;
  s_write_timeouts : int;
  s_captured : int;
  s_uptime : float;
  s_lat_n : int;
  s_p50_ms : float option;
  s_p99_ms : float option;
  s_max_ms : float option;
  s_qps_60s : float;  (* windowed: from the 120 x 1 s rings *)
  s_err_60s : float;
  s_shed_60s : float;
  s_p50_60s_ms : float option;
  s_p99_60s_ms : float option;
}

let snapshot t =
  locked t (fun () ->
      let ms = Option.map (fun s -> s *. 1000.0) in
      let recent = Timeseries.merged t.ts_latency ~window:60.0 in
      {
        s_accepted = t.accepted;
        s_rejected = t.rejected;
        s_closed = t.closed;
        s_reaped = t.reaped;
        s_requests = t.requests;
        s_errors = t.errors;
        s_timeouts = t.timeouts;
        s_conflicts = t.conflicts;
        s_proto_errors = t.proto_errors;
        s_cache_hits = t.cache_hits;
        s_cache_misses = t.cache_misses;
        s_ro_jobs = t.ro_jobs;
        s_slow = t.slow;
        s_shed = t.shed;
        s_quota = t.quota;
        s_write_timeouts = t.write_timeouts;
        s_captured = t.captured;
        s_uptime = uptime t;
        s_lat_n = Histogram.count t.latencies;
        s_p50_ms = ms (Histogram.percentile t.latencies 50.0);
        s_p99_ms = ms (Histogram.percentile t.latencies 99.0);
        s_max_ms = ms (Histogram.max_sample t.latencies);
        s_qps_60s = Timeseries.rate t.ts_requests ~window:60.0;
        s_err_60s = Timeseries.rate t.ts_errors ~window:60.0;
        s_shed_60s = Timeseries.rate t.ts_shed ~window:60.0;
        s_p50_60s_ms = ms (Histogram.percentile recent 50.0);
        s_p99_60s_ms = ms (Histogram.percentile recent 99.0);
      })

(* Sorted copies of the breakdown tables, taken under the lock. *)
let kind_rows t =
  locked t (fun () ->
      Hashtbl.fold
        (fun kind h acc ->
          ( kind,
            Histogram.count h,
            Histogram.percentile h 50.0,
            Histogram.percentile h 99.0,
            Histogram.max_sample h )
          :: acc)
        t.by_kind []
      |> List.sort compare)

let op_rows t =
  locked t (fun () ->
      Hashtbl.fold
        (fun name st acc ->
          (name, st.op_calls, st.op_secs, st.op_counters) :: acc)
        t.ops []
      |> List.sort compare)

let render t ~active ~readers ~domains =
  let s = snapshot t in
  let pct = function
    | None -> "-"
    | Some v -> Printf.sprintf "%.3fms" v
  in
  let base =
    [
      Printf.sprintf "server:      uptime=%.1fs revision=%s domains=%d"
        s.s_uptime (Build.git_rev ()) domains;
      Printf.sprintf
        "connections: active=%d accepted=%d rejected=%d closed=%d idle_reaped=%d"
        active s.s_accepted s.s_rejected s.s_closed s.s_reaped;
      Printf.sprintf
        "requests:    total=%d errors=%d timeouts=%d conflicts=%d protocol_errors=%d slow=%d"
        s.s_requests s.s_errors s.s_timeouts s.s_conflicts s.s_proto_errors
        s.s_slow;
      Printf.sprintf
        "overload:    shed=%d quota_killed=%d write_timeouts=%d" s.s_shed
        s.s_quota s.s_write_timeouts;
      Printf.sprintf
        "executor:    readers=%d read_jobs=%d stmt_cache_hits=%d stmt_cache_misses=%d"
        readers s.s_ro_jobs s.s_cache_hits s.s_cache_misses;
      Printf.sprintf "latency:     samples=%d p50=%s p99=%s max=%s" s.s_lat_n
        (pct s.s_p50_ms) (pct s.s_p99_ms) (pct s.s_max_ms);
      Printf.sprintf
        "last 60s:    qps=%.2f errors/s=%.2f shed/s=%.2f p50=%s p99=%s"
        s.s_qps_60s s.s_err_60s s.s_shed_60s (pct s.s_p50_60s_ms)
        (pct s.s_p99_60s_ms);
      Printf.sprintf "capture:     statements=%d rotation_failed=%d"
        s.s_captured
        (Capture.rotation_failed ());
      Printf.sprintf "planner:     %s" (Mmdb_core.Optimizer.planner_name ());
      (let a = Mmdb_core.Advisor.stats () in
       Printf.sprintf
         "advisor:     runs=%d created=%d dropped=%d active=%d%s" a.adv_runs
         a.adv_created a.adv_dropped
         (List.length a.adv_active)
         (match a.adv_active with
         | [] -> ""
         | l ->
             " ["
             ^ String.concat ", "
                 (List.map (fun (r, i) -> r ^ "." ^ i) l)
             ^ "]"));
      (let v = Mmdb_storage.Version_store.stats () in
       Printf.sprintf
         "mvcc:        enabled=%b commit_ts=%d snapshots=%d live=%d \
          oldest_age=%d gc_runs=%d created=%d reclaimed=%d swept=%d \
          max_chain=%d"
         v.st_enabled v.st_commit_ts v.st_snapshots_taken v.st_live_snapshots
         v.st_oldest_snapshot_age v.st_gc_runs v.st_versions_created
         v.st_versions_reclaimed v.st_tuples_swept v.st_max_chain);
      (let b = Mmdb_storage.Batch.stats () in
       let _, reversals = Mmdb_core.Join.skew_stats () in
       Printf.sprintf
         "batch:       enabled=%b size=%d batches=%d rows=%d \
          join_role_reversals=%d"
         b.st_enabled b.st_size b.st_batches b.st_rows reversals);
    ]
  in
  let kinds =
    List.map
      (fun (kind, n, p50, p99, mx) ->
        Printf.sprintf "  %-8s n=%d p50=%s p99=%s max=%s" kind n
          (pct (Option.map (fun v -> v *. 1000.0) p50))
          (pct (Option.map (fun v -> v *. 1000.0) p99))
          (pct (Option.map (fun v -> v *. 1000.0) mx)))
      (kind_rows t)
  in
  let ops =
    List.map
      (fun (name, calls, secs, (c : Counters.snapshot)) ->
        Printf.sprintf
          "  %-14s calls=%d time=%.3fms cmp=%d moves=%d hash=%d derefs=%d" name
          calls (secs *. 1000.0) c.Counters.comparisons c.Counters.data_moves
          c.Counters.hash_calls c.Counters.ptr_derefs)
      (op_rows t)
  in
  (* The cardinality-feedback worst offenders: where the optimizer's
     estimates are furthest from what executing the shape produced. *)
  let feedback =
    List.filter_map
      (fun (e : Mmdb_core.Feedback.entry) ->
        if e.fb_worst_err <= 1.0 then None
        else
          Some
            (Printf.sprintf
               "  %-40s n=%d avg_est=%.0f avg_actual=%.0f worst_err=%.1fx"
               e.fb_key e.fb_n e.fb_avg_est e.fb_avg_actual e.fb_worst_err))
      (Mmdb_core.Feedback.worst ~limit:8 ())
  in
  String.concat "\n"
    (base
    @ (if kinds = [] then [] else "by kind:" :: kinds)
    @ (if feedback = [] then [] else "worst misestimates:" :: feedback)
    @ if ops = [] then [] else "operators:" :: ops)

(* Machine-readable twin of [render], served by the STATS request. *)
let stats_json t ~active ~readers ~domains =
  let s = snapshot t in
  let ms v = Option.fold ~none:Json.Null ~some:(fun x -> Json.Float x) v in
  let hist_obj n p50 p99 mx =
    Json.Obj
      [
        ("n", Json.Int n);
        ("p50_ms", ms (Option.map (fun v -> v *. 1000.0) p50));
        ("p99_ms", ms (Option.map (fun v -> v *. 1000.0) p99));
        ("max_ms", ms (Option.map (fun v -> v *. 1000.0) mx));
      ]
  in
  Json.to_string
    (Json.Obj
       [
         ( "server",
           Json.Obj
             [
               ("uptime_s", Json.Float s.s_uptime);
               ("revision", Json.Str (Build.git_rev ()));
               ("domains", Json.Int domains);
               ("readers", Json.Int readers);
             ] );
         ( "connections",
           Json.Obj
             [
               ("active", Json.Int active);
               ("accepted", Json.Int s.s_accepted);
               ("rejected", Json.Int s.s_rejected);
               ("closed", Json.Int s.s_closed);
               ("idle_reaped", Json.Int s.s_reaped);
             ] );
         ( "requests",
           Json.Obj
             [
               ("total", Json.Int s.s_requests);
               ("errors", Json.Int s.s_errors);
               ("timeouts", Json.Int s.s_timeouts);
               ("conflicts", Json.Int s.s_conflicts);
               ("protocol_errors", Json.Int s.s_proto_errors);
               ("slow", Json.Int s.s_slow);
               ("shed", Json.Int s.s_shed);
               ("quota_killed", Json.Int s.s_quota);
               ("write_timeouts", Json.Int s.s_write_timeouts);
               ("read_jobs", Json.Int s.s_ro_jobs);
               ("stmt_cache_hits", Json.Int s.s_cache_hits);
               ("stmt_cache_misses", Json.Int s.s_cache_misses);
               ("captured", Json.Int s.s_captured);
               ("capture_rotation_failed", Json.Int (Capture.rotation_failed ()));
             ] );
         ( "planner",
           Json.Obj
             [
               ("name", Json.Str (Mmdb_core.Optimizer.planner_name ()));
               ("cost_based", Json.Bool (Mmdb_core.Optimizer.cost_based ()));
             ] );
         ( "advisor",
           let a = Mmdb_core.Advisor.stats () in
           Json.Obj
             [
               ("runs", Json.Int a.adv_runs);
               ("created", Json.Int a.adv_created);
               ("dropped", Json.Int a.adv_dropped);
               ( "active",
                 Json.List
                   (List.map
                      (fun (rel, idx) ->
                        Json.Obj
                          [ ("relation", Json.Str rel); ("index", Json.Str idx) ])
                      a.adv_active) );
             ] );
         ( "last_60s",
           Json.Obj
             [
               ("qps", Json.Float s.s_qps_60s);
               ("errors_per_s", Json.Float s.s_err_60s);
               ("shed_per_s", Json.Float s.s_shed_60s);
               ("p50_ms", ms s.s_p50_60s_ms);
               ("p99_ms", ms s.s_p99_60s_ms);
             ] );
         ( "latency",
           hist_obj s.s_lat_n
             (Option.map (fun v -> v /. 1000.0) s.s_p50_ms)
             (Option.map (fun v -> v /. 1000.0) s.s_p99_ms)
             (Option.map (fun v -> v /. 1000.0) s.s_max_ms) );
         ( "mvcc",
           let v = Mmdb_storage.Version_store.stats () in
           Json.Obj
             [
               ("enabled", Json.Bool v.st_enabled);
               ("commit_ts", Json.Int v.st_commit_ts);
               ("snapshots_taken", Json.Int v.st_snapshots_taken);
               ("live_snapshots", Json.Int v.st_live_snapshots);
               ("oldest_snapshot_age", Json.Int v.st_oldest_snapshot_age);
               ("gc_runs", Json.Int v.st_gc_runs);
               ("versions_created", Json.Int v.st_versions_created);
               ("versions_reclaimed", Json.Int v.st_versions_reclaimed);
               ("tuples_swept", Json.Int v.st_tuples_swept);
               ("max_chain", Json.Int v.st_max_chain);
             ] );
         ( "batch",
           let b = Mmdb_storage.Batch.stats () in
           let _, reversals = Mmdb_core.Join.skew_stats () in
           Json.Obj
             [
               ("enabled", Json.Bool b.st_enabled);
               ("size", Json.Int b.st_size);
               ("batches", Json.Int b.st_batches);
               ("rows", Json.Int b.st_rows);
               ("join_role_reversals", Json.Int reversals);
             ] );
         ( "by_kind",
           Json.Obj
             (List.map
                (fun (kind, n, p50, p99, mx) -> (kind, hist_obj n p50 p99 mx))
                (kind_rows t)) );
         ( "worst_misestimates",
           Json.List
             (List.map
                (fun (e : Mmdb_core.Feedback.entry) ->
                  Json.Obj
                    [
                      ("key", Json.Str e.fb_key);
                      ("n", Json.Int e.fb_n);
                      ("avg_est", Json.Float e.fb_avg_est);
                      ("avg_actual", Json.Float e.fb_avg_actual);
                      ("worst_err", Json.Float e.fb_worst_err);
                      ("last_est", Json.Int e.fb_last_est);
                      ("last_actual", Json.Int e.fb_last_actual);
                    ])
                (Mmdb_core.Feedback.worst ~limit:8 ())) );
         ( "operators",
           Json.List
             (List.map
                (fun (name, calls, secs, (c : Counters.snapshot)) ->
                  Json.Obj
                    [
                      ("operator", Json.Str name);
                      ("calls", Json.Int calls);
                      ("time_ms", Json.Float (secs *. 1000.0));
                      ("comparisons", Json.Int c.Counters.comparisons);
                      ("data_moves", Json.Int c.Counters.data_moves);
                      ("hash_calls", Json.Int c.Counters.hash_calls);
                      ("ptr_derefs", Json.Int c.Counters.ptr_derefs);
                    ])
                (op_rows t)) );
       ])

(* --- Prometheus text exposition ------------------------------------------ *)

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

let prometheus t ~active ~readers ~domains =
  let s = snapshot t in
  let b = Buffer.create 4096 in
  let header name kind help =
    Buffer.add_string b (Printf.sprintf "# HELP %s %s\n" name help);
    Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" name kind)
  in
  let sample ?(labels = []) name v =
    let l =
      match labels with
      | [] -> ""
      | ls ->
          "{"
          ^ String.concat ","
              (List.map
                 (fun (k, v) ->
                   Printf.sprintf "%s=\"%s\"" k (prom_label_value v))
                 ls)
          ^ "}"
    in
    Buffer.add_string b (Printf.sprintf "%s%s %s\n" name l (prom_float v))
  in
  let counter name help v =
    header name "counter" help;
    sample name (float_of_int v)
  in
  let gauge name help v =
    header name "gauge" help;
    sample name v
  in
  (* counters *)
  counter "mmdb_requests_total" "Requests answered (any outcome)" s.s_requests;
  counter "mmdb_errors_total" "Requests answered with an error" s.s_errors;
  counter "mmdb_timeouts_total" "Per-request timeouts" s.s_timeouts;
  counter "mmdb_conflicts_total" "Lock-conflict / deadlock errors" s.s_conflicts;
  counter "mmdb_protocol_errors_total" "Malformed frames or requests"
    s.s_proto_errors;
  counter "mmdb_slow_queries_total" "Requests over the slow-query threshold"
    s.s_slow;
  counter "mmdb_shed_total" "Requests dropped at the overload watermark"
    s.s_shed;
  counter "mmdb_quota_killed_total" "Requests killed by a per-query quota"
    s.s_quota;
  counter "mmdb_write_timeouts_total"
    "Sessions cut for not draining their replies" s.s_write_timeouts;
  counter "mmdb_connections_accepted_total" "Connections admitted" s.s_accepted;
  counter "mmdb_connections_rejected_total" "Admission-gate refusals"
    s.s_rejected;
  counter "mmdb_connections_closed_total" "Sessions torn down" s.s_closed;
  counter "mmdb_connections_reaped_total" "Sessions closed by the idle reaper"
    s.s_reaped;
  counter "mmdb_stmt_cache_hits_total" "Statement-cache hits" s.s_cache_hits;
  counter "mmdb_stmt_cache_misses_total" "Statement-cache misses"
    s.s_cache_misses;
  counter "mmdb_read_jobs_total" "Jobs dispatched on the parallel-reader path"
    s.s_ro_jobs;
  counter "mmdb_captured_statements_total"
    "Statements appended to the workload capture file" s.s_captured;
  counter "mmdb_capture_rotation_failed_total"
    "Capture-file rotations that failed (file kept growing, no loss)"
    (Capture.rotation_failed ());
  (* gauges *)
  gauge "mmdb_uptime_seconds" "Seconds since server start" s.s_uptime;
  gauge "mmdb_active_connections" "Currently live sessions"
    (float_of_int active);
  gauge "mmdb_executor_readers" "Parallel read-job slots"
    (float_of_int readers);
  gauge "mmdb_domains" "Domains in the execution pool" (float_of_int domains);
  (* windowed gauges from the ring buffers *)
  header "mmdb_qps" "gauge" "Requests per second over the trailing window";
  sample ~labels:[ ("window", "60s") ] "mmdb_qps" s.s_qps_60s;
  header "mmdb_error_rate" "gauge" "Errors per second over the trailing window";
  sample ~labels:[ ("window", "60s") ] "mmdb_error_rate" s.s_err_60s;
  header "mmdb_shed_rate" "gauge"
    "Shed requests per second over the trailing window";
  sample ~labels:[ ("window", "60s") ] "mmdb_shed_rate" s.s_shed_60s;
  (* per-kind request counts and latency quantiles, as labelled series *)
  let kinds = kind_rows t in
  header "mmdb_kind_requests_total" "counter" "Requests per statement kind";
  List.iter
    (fun (kind, n, _, _, _) ->
      sample ~labels:[ ("kind", kind) ] "mmdb_kind_requests_total"
        (float_of_int n))
    kinds;
  header "mmdb_kind_latency_seconds" "gauge"
    "Per-statement-kind latency quantiles since boot";
  List.iter
    (fun (kind, _, p50, p99, _) ->
      Option.iter
        (fun v ->
          sample
            ~labels:[ ("kind", kind); ("quantile", "0.5") ]
            "mmdb_kind_latency_seconds" v)
        p50;
      Option.iter
        (fun v ->
          sample
            ~labels:[ ("kind", kind); ("quantile", "0.99") ]
            "mmdb_kind_latency_seconds" v)
        p99)
    kinds;
  (* the same quantiles over the trailing window, from the per-kind rings *)
  let windowed =
    locked t (fun () ->
        Hashtbl.fold
          (fun kind ring acc ->
            let h = Timeseries.merged ring ~window:60.0 in
            (kind, Histogram.percentile h 50.0, Histogram.percentile h 99.0)
            :: acc)
          t.ts_by_kind []
        |> List.sort compare)
  in
  header "mmdb_kind_latency_seconds_windowed" "gauge"
    "Per-statement-kind latency quantiles over the trailing window";
  List.iter
    (fun (kind, p50, p99) ->
      Option.iter
        (fun v ->
          sample
            ~labels:[ ("kind", kind); ("quantile", "0.5"); ("window", "60s") ]
            "mmdb_kind_latency_seconds_windowed" v)
        p50;
      Option.iter
        (fun v ->
          sample
            ~labels:[ ("kind", kind); ("quantile", "0.99"); ("window", "60s") ]
            "mmdb_kind_latency_seconds_windowed" v)
        p99)
    windowed;
  (* MVCC and batch figures: monotonic engine-level counters *)
  (let v = Mmdb_storage.Version_store.stats () in
   gauge "mmdb_mvcc_enabled" "1 when the MVCC read path is on"
     (if v.st_enabled then 1.0 else 0.0);
   counter "mmdb_mvcc_snapshots_total" "Statement snapshots taken"
     v.st_snapshots_taken;
   gauge "mmdb_mvcc_live_snapshots" "Currently live snapshots"
     (float_of_int v.st_live_snapshots);
   counter "mmdb_mvcc_gc_runs_total" "Version-store GC passes" v.st_gc_runs;
   counter "mmdb_mvcc_versions_created_total" "Tuple versions created"
     v.st_versions_created;
   counter "mmdb_mvcc_versions_reclaimed_total" "Tuple versions reclaimed"
     v.st_versions_reclaimed);
  (let bt = Mmdb_storage.Batch.stats () in
   let _, reversals = Mmdb_core.Join.skew_stats () in
   gauge "mmdb_batch_enabled" "1 when batches carry more than one tuple"
     (if bt.st_enabled then 1.0 else 0.0);
   counter "mmdb_batches_total" "Batches formed" bt.st_batches;
   counter "mmdb_batch_rows_total" "Rows carried in batches" bt.st_rows;
   counter "mmdb_join_role_reversals_total"
     "Skew-triggered build/probe role reversals in the partitioned join"
     reversals);
  (* planner and index advisor *)
  gauge "mmdb_cost_based_enabled" "1 when the cost-based planner is active"
    (if Mmdb_core.Optimizer.cost_based () then 1.0 else 0.0);
  (let a = Mmdb_core.Advisor.stats () in
   counter "mmdb_advisor_runs_total" "Index-advisor passes executed" a.adv_runs;
   counter "mmdb_advisor_indices_created_total"
     "Secondary indices the advisor has created" a.adv_created;
   counter "mmdb_advisor_indices_dropped_total"
     "Advisor-created indices dropped as stale" a.adv_dropped;
   gauge "mmdb_advisor_active_indices" "Advisor-owned indices currently live"
     (float_of_int (List.length a.adv_active)));
  (* cardinality feedback *)
  gauge "mmdb_feedback_shapes" "Distinct plan shapes in the feedback store"
    (float_of_int (Mmdb_core.Feedback.size ()));
  counter "mmdb_feedback_observations_total"
    "Operator executions recorded in the feedback store"
    (Mmdb_core.Feedback.total_observations ());
  header "mmdb_feedback_worst_err" "gauge"
    "Worst symmetric misestimation ratio per plan shape (top offenders)";
  List.iter
    (fun (e : Mmdb_core.Feedback.entry) ->
      sample
        ~labels:[ ("key", e.fb_key) ]
        "mmdb_feedback_worst_err" e.fb_worst_err)
    (Mmdb_core.Feedback.worst ~limit:8 ());
  (* the full request-latency histogram, cumulative per the format *)
  header "mmdb_request_latency_seconds" "histogram"
    "Request latency since boot";
  let buckets, total_count, total_sum =
    locked t (fun () ->
        ( Histogram.buckets t.latencies,
          Histogram.count t.latencies,
          Histogram.sum t.latencies ))
  in
  let cum = ref 0 in
  List.iter
    (fun (ub, n) ->
      if n > 0 then begin
        cum := !cum + n;
        sample
          ~labels:[ ("le", Printf.sprintf "%g" ub) ]
          "mmdb_request_latency_seconds_bucket" (float_of_int !cum)
      end)
    buckets;
  sample
    ~labels:[ ("le", "+Inf") ]
    "mmdb_request_latency_seconds_bucket" (float_of_int total_count);
  sample "mmdb_request_latency_seconds_sum" total_sum;
  sample "mmdb_request_latency_seconds_count" (float_of_int total_count);
  Buffer.contents b
