(** Serving metrics: mutex-guarded counters bumped on the hot path,
    summarized on demand (STATUS / STATS request, SIGUSR1 dump).
    Latencies go into log-bucketed {!Mmdb_util.Histogram}s — one total
    plus one per statement kind — so percentiles cover the server's
    whole life.  Traced requests also feed a per-operator aggregate
    table of exclusive times and §3.1 counters. *)

type t

val create : unit -> t

val conn_accepted : t -> unit
val conn_rejected : t -> unit
val conn_closed : ?reaped:bool -> t -> unit

val request : ?kind:string -> t -> latency:float -> unit
(** One answered request; [latency] in seconds, [kind] the statement-kind
    bucket ("select", "insert", "txn", ... — default "other").  The
    per-kind tables are bounded at 16 distinct kinds; overflow folds
    into the "other" bucket.  Alongside the since-boot histograms, the
    request feeds 120 x 1 s ring buffers ({!Mmdb_util.Timeseries})
    behind the windowed qps / error-rate / recent-quantile figures. *)

val error : t -> unit
val timeout : t -> unit
val conflict : t -> unit
val proto_error : t -> unit

val cache_hit : t -> unit
(** Statement-cache hit (parse skipped). *)

val cache_miss : t -> unit
(** Statement-cache miss (fresh parse). *)

val read_job : t -> unit
(** A job dispatched on the parallel-reader path. *)

val slow_query : t -> unit
(** A request over the slow-query threshold (also logged as JSONL). *)

val shed : t -> unit
(** A request dropped unexecuted at the overload watermark. *)

val quota_killed : t -> unit
(** A request killed by a per-query quota (rows or tuple budget). *)

val write_timeout : t -> unit
(** A session cut because the peer stopped draining a response. *)

val statement_captured : t -> unit
(** A statement appended to the workload-capture file. *)

val record_trace : t -> Mmdb_util.Trace.span -> unit
(** Fold a finished trace tree into the per-operator aggregates
    (exclusive time and counters per span name). *)

(** {1 Renderings}

    One registry of metric families defines every figure the server
    reports: its STATS section and key, its Prometheus name, help, type
    and labels, and how to read it.  Each rendering below reads one view
    (the serving state copied under one lock, then the engine's
    MVCC, batch, planner, advisor, feedback and capture figures) and
    renders every family from it. *)

val family_names : (string * string * string) list
(** Every family as [(stats_section, stats_key, prometheus_name)], in
    rendering order.  A histogram's key is empty: its [n], [p50_ms],
    [p99_ms] and [max_ms] fields stand in for it.  Families sharing a
    Prometheus name (one per quantile) are adjacent. *)

val render : t -> active:int -> readers:int -> domains:int -> string
(** STATUS text: the STATS tree as one [section: key=value ...] line per
    section, each table's rows on indented lines below it. *)

val stats_json : t -> active:int -> readers:int -> domains:int -> string
(** STATS JSON: one object per section; labelled families become tables
    ([by_kind] keyed by kind, [operators], [worst_misestimates] and
    [advisor.active] lists of rows). *)

val prometheus : t -> active:int -> readers:int -> domains:int -> string
(** Prometheus text exposition (v0.0.4), served by the METRICS request:
    [mmdb_]-prefixed families; string values as 1-valued gauges with the
    string as a label; the request-latency histogram as cumulative [le]
    buckets.  Hand-rendered, no dependencies. *)
