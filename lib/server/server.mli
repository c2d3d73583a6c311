(** The mmdb network server: a TCP front end over the SQL-like language.

    One accept thread (admission control), one handler thread per
    connection (socket I/O only), a single-writer/parallel-reader
    executor — mutating statements serialize on one dispatcher domain,
    read-only statements fan out across reader domains (see
    {!Exec_queue}) — and one reaper thread for idle sessions.  Repeated
    non-prepared query texts skip the parser through a bounded LRU
    statement cache. *)

open Mmdb_core

type config = {
  host : string;
  port : int;  (** 0 picks an ephemeral port; read it back with {!port} *)
  max_connections : int;
  request_timeout : float;  (** seconds; [<= 0.] disables *)
  idle_timeout : float;  (** seconds; [<= 0.] disables reaping *)
  max_frame : int;  (** request-frame size limit, bytes *)
  stmt_cache : int;  (** parsed-AST cache entries; [<= 0] disables *)
  trace : bool;
      (** trace every statement into the per-operator aggregates even
          with no slow log configured *)
  slow_log : string option;
      (** JSONL sink for queries at/over [slow_threshold]; configuring
          one implies tracing *)
  slow_threshold : float;  (** seconds; default 0.1 *)
  fault : Mmdb_txn.Fault.t;
      (** injector the [net.*] wire points and [exec.stall] report to;
          {!Mmdb_txn.Fault.none} (the default) never fires *)
  write_timeout : float;
      (** seconds each response write may take before the session is cut
          (slowloris-reader defence); [<= 0.] disables *)
  sndbuf : int;
      (** SO_SNDBUF for accepted sockets, bytes; [<= 0] keeps the OS
          default (small values make write deadlines testable) *)
  shed_watermark : int;
      (** executor queue depth at/over which read-only requests are
          dropped unexecuted with {!Protocol.Overloaded}; [<= 0]
          disables.  Writes are never shed. *)
  max_result_rows : int;
      (** per-query result-row quota; over it the reply becomes a typed
          [Quota] error; [<= 0] disables *)
  tuple_budget : int;
      (** per-query intermediate-tuple quota, charged by
          {!Mmdb_storage.Temp_list} appends inside the executor job;
          [<= 0] disables *)
  mvcc : bool;
      (** snapshot-isolation reads: read-only statements run under an
          MVCC snapshot on the reader pool, concurrently with the
          writer, instead of barriering behind it.  [start] seeds
          {!Mmdb_storage.Version_store.set_enabled} from this, so the
          flag is authoritative for the whole process.  Off reproduces
          the paper's §2.4 lock-only blocking behavior. *)
  capture : string option;
      (** workload-capture sink: one {!Capture} JSONL record per
          executed statement batch (shed requests excluded); [None]
          disables *)
  capture_max_bytes : int;
      (** rotate the capture file to [path ^ ".1"] past this size;
          default 64 MiB *)
  cost : bool;
      (** cost-based planning: statistics-driven access paths and join
          algorithm.  [false] reproduces the
          paper's §4 rule-based preference ordering.  Default: the
          [MMDB_COST] knob (on unless set to [0]).  Seeds the
          process-wide {!Mmdb_core.Optimizer.set_cost_based} flag. *)
  advisor_every : int;
      (** run the {!Mmdb_core.Advisor} every N executed statement
          batches, as an exclusive writer job; [<= 0] disables.
          Default: the [MMDB_ADVISOR] knob (off unless a positive
          count). *)
}

val default_config : config
(** 127.0.0.1:7478, 64 connections, 30 s request timeout, 300 s idle
    timeout, {!Protocol.max_frame_default} frames, 256 cached
    statements, tracing off, no slow log, 0.1 s slow threshold, no
    fault injection, 30 s write timeout, OS socket buffers, shedding
    and quotas off, MVCC per the [MMDB_MVCC] environment knob
    (default on). *)

type t

val start : ?config:config -> ?mgr:Mmdb_txn.Txn.manager -> Db.t -> t
(** Bind, listen and spawn the server threads.  All sessions share [db]
    and one lock manager ([mgr], fresh by default), so transactions from
    different connections really contend.  Raises [Unix.Unix_error] if
    the address cannot be bound. *)

val port : t -> int
(** The actually bound port (useful with [port = 0]). *)

val db : t -> Db.t
val manager : t -> Mmdb_txn.Txn.manager
val active_sessions : t -> int
val metrics : t -> Metrics.t

val metrics_text : t -> string
(** Human-readable metrics summary (the STATUS response body). *)

val stats_json_text : t -> string
(** Machine-readable metrics summary (the STATS response body). *)

val prometheus_text : t -> string
(** Prometheus text-exposition metrics (the METRICS response body). *)

val shutdown : t -> unit
(** Graceful shutdown: stop admissions, nudge every session off its
    socket, drain in-flight requests, roll back open BEGIN blocks, join
    all threads, then stop the executor.  Idempotent. *)

val crash : t -> unit
(** Simulated kill-9: cut every session abruptly (no farewell frames —
    clients see a reset), abandon queued-but-unstarted work, stop the
    machinery.  Afterwards discard {!db} and {!manager} and hand the
    manager's {!Mmdb_txn.Txn.store} and {!Mmdb_txn.Txn.device} to
    {!Mmdb_txn.Recovery.recover}, as after a real crash.  Idempotent
    with {!shutdown}. *)
