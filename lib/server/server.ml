(* The mmdb network server: TCP front end over the SQL-like language.

   Architecture (see DESIGN.md "Serving layer"):

   - one ACCEPT thread admits connections (admission gate: at most
     [max_connections] live sessions, refusals answered with a Busy
     frame);
   - one HANDLER thread per connection reads frames, decodes requests,
     and ships statement execution to the executor;
   - one EXECUTOR (see {!Exec_queue}): mutating statements run serially
     on a single dispatcher domain — the storage layer is not
     write-thread-safe, so that is the only place the shared [Db.t] /
     [Txn.manager] is ever mutated after startup — while statements
     classified read-only ([Ast.is_read_only], outside a BEGIN block)
     fan out across a pool of reader domains, overlapping each other but
     never overlapping a write;
   - one REAPER thread shuts down sessions idle past [idle_timeout].

   Repeated non-prepared query texts skip the lexer/parser through a
   bounded LRU statement cache (hit/miss counters in STATUS).

   Result sets are materialized (deep-copied) inside the executor job:
   temporary lists hold tuple pointers, and another session's DML must
   not mutate tuples between execution and rendering.

   Per-request timeouts abandon the promise (result discarded, job
   skipped if not yet started) and answer a Timeout error — a running
   statement is never interrupted mid-mutation.  Graceful [shutdown]
   stops admissions, nudges every session off its socket, lets in-flight
   jobs finish, rolls back open BEGIN blocks, and only then stops the
   executor. *)

open Mmdb_storage
open Mmdb_core
open Mmdb_lang

type config = {
  host : string;
  port : int;  (* 0 = ephemeral; read the bound port with {!port} *)
  max_connections : int;
  request_timeout : float;  (* seconds; <= 0 disables *)
  idle_timeout : float;  (* seconds; <= 0 disables reaping *)
  max_frame : int;  (* request-frame size limit, bytes *)
  stmt_cache : int;  (* parsed-AST cache entries; <= 0 disables *)
  trace : bool;  (* trace every statement into the operator aggregates *)
  slow_log : string option;  (* JSONL file for over-threshold queries *)
  slow_threshold : float;  (* seconds; queries at/over this are logged *)
  fault : Mmdb_txn.Fault.t;  (* injector the net/exec fault points use *)
  write_timeout : float;  (* seconds per response write; <= 0 disables *)
  sndbuf : int;  (* SO_SNDBUF for accepted sockets; <= 0 = OS default *)
  shed_watermark : int;  (* shed reads at this queue depth; <= 0 off *)
  max_result_rows : int;  (* per-query result-row quota; <= 0 off *)
  tuple_budget : int;  (* per-query intermediate-tuple quota; <= 0 off *)
  mvcc : bool;
      (* snapshot-isolation reads: read-only statements run under an MVCC
         snapshot on the reader pool, concurrently with the writer.  Off
         reproduces the paper's lock-only blocking behavior. *)
  capture : string option;  (* workload-capture JSONL sink; None = off *)
  capture_max_bytes : int;  (* rotate the capture file past this size *)
  cost : bool;
      (* cost-based planning (statistics-driven access paths and join
         methods); off reproduces the paper's §4 rule-based preference
         ordering. *)
  advisor_every : int;
      (* run the index advisor every N executed statement batches;
         <= 0 disables it.  Runs are exclusive writer jobs. *)
}

let default_config =
  {
    host = "127.0.0.1";
    port = 7478;
    max_connections = 64;
    request_timeout = 30.0;
    idle_timeout = 300.0;
    max_frame = Protocol.max_frame_default;
    stmt_cache = 256;
    trace = false;
    slow_log = None;
    slow_threshold = 0.1;
    fault = Mmdb_txn.Fault.none;
    write_timeout = 30.0;
    sndbuf = 0;
    shed_watermark = 0;
    max_result_rows = 0;
    tuple_budget = 0;
    mvcc = Version_store.enabled () (* the MMDB_MVCC knob; default on *);
    capture = None;
    capture_max_bytes = 64 * 1024 * 1024;
    cost = Optimizer.cost_based () (* the MMDB_COST knob; default on *);
    advisor_every = Advisor.default_every () (* MMDB_ADVISOR; default off *);
  }

module Fault = Mmdb_txn.Fault

(* The executor-side fault point: [exec.stall] (Delay) holds the job on
   its executor domain, the deterministic way to pile up queue depth for
   overload tests. *)
let () = Fault.register_points [ "exec.stall" ]

type session = Protocol.response Session.t

type t = {
  cfg : config;
  db : Db.t;
  mgr : Mmdb_txn.Txn.manager;
  exec : Exec_queue.t;
  metrics : Metrics.t;
  cache_m : Mutex.t;  (* guards [cache]: hit from every handler thread *)
  cache : (string, Ast.stmt list) Mmdb_util.Lru.t option;
  listen_fd : Unix.file_descr;
  bound_port : int;
  stop_r : Unix.file_descr;  (* self-pipe that wakes the accept loop *)
  stop_w : Unix.file_descr;
  slow_m : Mutex.t;  (* serializes slow-log lines across handlers *)
  slow_out : out_channel option;  (* open slow-log sink, if configured *)
  capture : Capture.t option;  (* open workload-capture sink, if any *)
  gc_tick : int Atomic.t;  (* Write statements since the last MVCC GC *)
  m : Mutex.t;  (* guards sessions / handlers / next_sid / state *)
  sessions : (int, session) Hashtbl.t;
  mutable handlers : Thread.t list;
  mutable next_sid : int;
  mutable shutting_down : bool;
  mutable accept_thread : Thread.t option;
  mutable reaper_thread : Thread.t option;
}

let port t = t.bound_port
let db t = t.db
let manager t = t.mgr

let active_sessions t =
  Mutex.lock t.m;
  let n = Hashtbl.length t.sessions in
  Mutex.unlock t.m;
  n

(* The domain-pool size reported in STATUS/STATS: what intra-query
   parallel operators fan out across (MMDB_DOMAINS). *)
let domain_count () = Mmdb_util.Domain_pool.default_size ()

let rendered render t =
  render t.metrics ~active:(active_sessions t)
    ~readers:(Exec_queue.readers t.exec) ~domains:(domain_count ())

let metrics_text = rendered Metrics.render
let stats_json_text = rendered Metrics.stats_json
let prometheus_text = rendered Metrics.prometheus

let metrics t = t.metrics

(* Tracing is on when asked for explicitly or implied by a slow log:
   a slow-query line without its trace tree would name the offender but
   not the operator that made it slow. *)
let tracing_on t = t.cfg.trace || t.slow_out <> None

(* Parse through the bounded LRU statement cache: repeated non-prepared
   query texts skip the lexer/parser entirely.  Only successful parses
   are cached (failures are cheap and unlikely to repeat), and the cached
   statement list is immutable, so sharing it between sessions is safe. *)
let parse_cached t sql =
  match t.cache with
  | None -> Parser.parse sql
  | Some cache -> (
      Mutex.lock t.cache_m;
      let hit = Mmdb_util.Lru.find cache sql in
      Mutex.unlock t.cache_m;
      match hit with
      | Some stmts ->
          Metrics.cache_hit t.metrics;
          Ok stmts
      | None -> (
          Metrics.cache_miss t.metrics;
          match Parser.parse sql with
          | Ok stmts as ok ->
              Mutex.lock t.cache_m;
              Mmdb_util.Lru.add cache sql stmts;
              Mutex.unlock t.cache_m;
              ok
          | Error _ as err -> err))

(* --- request handling (handler-thread side) ---------------------------- *)

(* Responses go out under the per-session write deadline: a peer that
   stops draining (slowloris reader) raises [Write_timeout], which cuts
   the session instead of pinning its handler thread forever. *)
let send t s resp =
  let deadline =
    if t.cfg.write_timeout > 0.0 then
      Some (Unix.gettimeofday () +. t.cfg.write_timeout)
    else None
  in
  try
    Protocol.write_frame ~fault:t.cfg.fault ?deadline s.Session.fd
      (Protocol.encode_response resp)
  with Protocol.Write_timeout as e ->
    Metrics.write_timeout t.metrics;
    (try Unix.shutdown s.Session.fd Unix.SHUTDOWN_ALL
     with Unix.Unix_error _ -> ());
    raise e

let try_send t s resp = try send t s resp with _ -> ()

(* Classify an interpreter error string into a wire error code.  The
   interpreter renders lock failures through [Txn.pp_failure], so the
   two concurrency outcomes have stable spellings. *)
let classify_exec_error msg =
  let contains needle =
    let n = String.length needle and m = String.length msg in
    let rec go i = i + n <= m && (String.sub msg i n = needle || go (i + 1)) in
    go 0
  in
  if contains "would block" || contains "deadlock" then Protocol.Conflict
  else Protocol.Exec

(* Deep-copy a result row and strip tuple pointers: runs on the executor,
   while the pointed-to tuples are guaranteed unchanged. *)
let sanitize_row =
  Array.map (fun (v : Value.t) ->
      match v with
      | Value.Ref _ | Value.Refs _ -> Value.Str (Value.to_string v)
      | v -> v)

let render_outcome : Interp.outcome -> Protocol.response = function
  | Interp.Rows tl ->
      Protocol.Results
        {
          columns = Descriptor.labels (Temp_list.descriptor tl);
          rows = List.map sanitize_row (Temp_list.materialize tl);
        }
  | Interp.Table r ->
      Protocol.Results
        { columns = r.Aggregate.header; rows = List.map sanitize_row r.Aggregate.rows }
  | Interp.Message m -> Protocol.Message m
  | Interp.Plan_text p -> Protocol.Message p

(* Execute parsed statements serially inside one executor job; the reply
   reflects the last statement (or the first failure). *)
let exec_stmts_job interp stmts () : Protocol.response =
  let rec go = function
    | [] -> Protocol.Message "(nothing to execute)"
    | [ last ] -> (
        match Interp.exec interp last with
        | Ok o -> render_outcome o
        | Error msg -> Protocol.Error (classify_exec_error msg, msg))
    | stmt :: rest -> (
        match Interp.exec interp stmt with
        | Ok _ -> go rest
        | Error msg -> Protocol.Error (classify_exec_error msg, msg))
  in
  go stmts

(* Statements eligible for the parallel-reader path: every statement in
   the batch is read-only and the session is not inside a BEGIN block
   (in-transaction reads stay serial so they order with their own
   transaction's writes). *)
let kind_of interp stmts : Exec_queue.kind =
  if List.for_all Ast.is_read_only stmts && not (Interp.in_txn interp) then
    Exec_queue.Read
  else Exec_queue.Write

(* Statement-kind bucket for the per-kind latency histograms; a batch is
   bucketed by its last statement (the one whose reply the client sees). *)
let stmt_kind : Ast.stmt -> string = function
  | Ast.Select _ -> "select"
  | Ast.Explain _ -> "explain"
  | Ast.Insert _ -> "insert"
  | Ast.Update _ -> "update"
  | Ast.Delete _ -> "delete"
  | Ast.Create_table _ | Ast.Create_index _ -> "ddl"
  | Ast.Begin_txn | Ast.Commit_txn | Ast.Rollback_txn -> "txn"
  | Ast.Show_tables | Ast.Describe _ -> "meta"

let batch_kind stmts =
  match List.rev stmts with last :: _ -> stmt_kind last | [] -> "other"

(* Ship a job to the executor and wait, honouring the request timeout. *)
let run_on_executor t (s : session) ?(kind = Exec_queue.Write) job :
    Protocol.response =
  if kind = Exec_queue.Read then Metrics.read_job t.metrics;
  let p = Exec_queue.submit t.exec ~notify:s.Session.wake_w ~kind job in
  s.Session.pending <- Some p;
  let result =
    if t.cfg.request_timeout <= 0.0 then `Done (Exec_queue.wait p)
    else
      Exec_queue.await p ~wakeup:s.Session.wake_r
        ~deadline:(Unix.gettimeofday () +. t.cfg.request_timeout)
  in
  s.Session.pending <- None;
  match result with
  | `Done (Ok resp) -> resp
  | `Done (Error exn) ->
      Protocol.Error
        (Protocol.Exec, "internal error: " ^ Printexc.to_string exn)
  | `Timeout ->
      Exec_queue.abandon p;
      (* The job may still be running (MVCC reads are not even behind
         the cleanup Write barrier): teardown waits out [orphans] before
         closing the wake pipe the job would poke. *)
      s.Session.orphans <- p :: s.Session.orphans;
      Metrics.timeout t.metrics;
      Protocol.Error
        ( Protocol.Timeout,
          Printf.sprintf "request exceeded the %.3fs timeout; result discarded"
            t.cfg.request_timeout )

let interp_of s =
  match s.Session.interp with
  | Some i -> i
  | None -> failwith "session has no interpreter" (* unreachable after open *)

(* One JSONL line per slow query: timestamp, session, statement, outcome,
   and the full trace tree (per-operator times and §3.1 counters).  The
   line is written by the handler thread; [slow_m] keeps concurrent
   offenders from interleaving bytes. *)
let slow_log_line t (s : session) ~sql ~elapsed ~resp root =
  match t.slow_out with
  | None -> ()
  | Some oc ->
      Metrics.slow_query t.metrics;
      let status =
        match (resp : Protocol.response) with
        | Protocol.Error (code, _) -> Protocol.err_code_name code
        | _ -> "ok"
      in
      let line =
        Mmdb_util.Json.to_string
          (Mmdb_util.Json.Obj
             [
               ("ts", Mmdb_util.Json.Float (Unix.gettimeofday ()));
               ("session", Mmdb_util.Json.Int s.Session.sid);
               ("kind", Mmdb_util.Json.Str s.Session.last_kind);
               ("elapsed_ms", Mmdb_util.Json.Float (elapsed *. 1000.0));
               ( "threshold_ms",
                 Mmdb_util.Json.Float (t.cfg.slow_threshold *. 1000.0) );
               ("status", Mmdb_util.Json.Str status);
               ( "snapshot",
                 (* MVCC snapshot ts the statement read under; -1 = none
                    (a write, or versioning off) *)
                 Mmdb_util.Json.Int s.Session.last_snap );
               ("sql", Mmdb_util.Json.Str sql);
               ("trace", Mmdb_util.Trace.to_json root);
             ])
      in
      Mutex.lock t.slow_m;
      output_string oc line;
      output_char oc '\n';
      flush oc;
      Mutex.unlock t.slow_m

(* Overload shedding: when the executor queue is already [shed_watermark]
   jobs deep, drop read-only requests unexecuted with a typed Overloaded
   answer instead of letting them queue behind work that will time out
   anyway.  Writes are never shed — they carry client state (BEGIN
   blocks) and their latency under backlog is the back-pressure signal.
   The retry-after hint scales with how far past the watermark the queue
   is. *)
let shed_check t (kind : Exec_queue.kind) =
  if kind = Exec_queue.Read && t.cfg.shed_watermark > 0 then begin
    let depth = Exec_queue.depth t.exec in
    if depth >= t.cfg.shed_watermark then begin
      Metrics.shed t.metrics;
      let retry_after_ms =
        25.0 *. Float.max 1.0 (float_of_int depth /. float_of_int t.cfg.shed_watermark)
      in
      Some
        (Protocol.Overloaded
           {
             retry_after_ms;
             msg =
               Printf.sprintf
                 "executor queue depth %d at/over watermark %d; read shed"
                 depth t.cfg.shed_watermark;
           })
    end
    else None
  end
  else None

(* Per-query quotas, enforced inside the executor job: a domain-local
   intermediate-tuple budget around the whole batch ([Temp_list] charges
   it on every append), plus a result-row cap checked on the rendered
   reply.  Both kill only the offending request, with a typed Quota
   error.  [exec.stall] fires here too — on the executor domain — so
   tests can deterministically hold the queue. *)
let guard_quotas t job () : Protocol.response =
  Fault.hit t.cfg.fault ~point:"exec.stall";
  let resp =
    try
      if t.cfg.tuple_budget > 0 then
        Temp_list.with_budget ~limit:t.cfg.tuple_budget job
      else job ()
    with Temp_list.Quota_exceeded { used; limit } ->
      Protocol.Error
        ( Protocol.Quota,
          Printf.sprintf
            "query exceeded the intermediate-tuple budget (%d > %d); aborted"
            used limit )
  in
  match resp with
  | Protocol.Results { rows; _ }
    when t.cfg.max_result_rows > 0
         && List.length rows > t.cfg.max_result_rows ->
      Protocol.Error
        ( Protocol.Quota,
          Printf.sprintf "result of %d rows exceeds the %d-row quota"
            (List.length rows) t.cfg.max_result_rows )
  | resp -> resp

(* One capture record per executed batch (shed requests never execute,
   so they are not recorded).  [params] marks a prepared execution: the
   replay side re-prepares [sql] and binds them. *)
let capture_record t (s : session) ~sql ?params ~started ~resp () =
  match t.capture with
  | None -> ()
  | Some cap ->
      let elapsed = Unix.gettimeofday () -. started in
      let status =
        match (resp : Protocol.response) with
        | Protocol.Error (code, _) -> Protocol.err_code_name code
        | _ -> "ok"
      in
      let rows =
        match (resp : Protocol.response) with
        | Protocol.Results { rows; _ } -> Some (List.length rows)
        | _ -> None
      in
      Capture.record cap ~ts:started ~session:s.Session.sid
        ~kind:s.Session.last_kind ~sql ?params
        ~elapsed_ms:(elapsed *. 1000.0) ?rows ~status
        ~snapshot:s.Session.last_snap ();
      Metrics.statement_captured t.metrics

(* Run a statement batch on the executor, tracing when configured.  The
   finished tree feeds the per-operator aggregates; a request at/over the
   slow threshold additionally emits one slow-log line carrying it. *)
let run_statements t (s : session) ~sql ?params stmts : Protocol.response =
  let interp = interp_of s in
  s.Session.last_kind <- batch_kind stmts;
  let kind = kind_of interp stmts in
  match shed_check t kind with
  | Some resp -> resp
  | None ->
  let job = guard_quotas t (exec_stmts_job interp stmts) in
  let job =
    if not t.cfg.mvcc then job
    else
      match kind with
      | Exec_queue.Read ->
          (* Acquire the snapshot inside the job — on the reader domain
             whose DLS the storage layer consults — and surface what it
             saw as trace attributes. *)
          fun () ->
            Mmdb_txn.Mvcc.with_snapshot (fun snap ->
                s.Session.last_snap <- snap;
                let resp = job () in
                if snap >= 0 then begin
                  Mmdb_util.Trace.add_attr "snapshot" (string_of_int snap);
                  Mmdb_util.Trace.add_attr "versions"
                    (string_of_int (Mmdb_txn.Mvcc.versions_walked ()))
                end;
                resp)
      | Exec_queue.Write ->
          (* Epoch GC rides the dispatcher domain (the only place writes
             are serialized), amortized across write statements. *)
          fun () ->
            let resp = job () in
            if Atomic.fetch_and_add t.gc_tick 1 mod 64 = 63 then
              ignore (Mmdb_txn.Mvcc.gc (Db.relations t.db));
            resp
  in
  let started = Unix.gettimeofday () in
  let resp =
    if not (tracing_on t) then run_on_executor t s ~kind job
    else begin
      let tr = Mmdb_util.Trace.create () in
      let resp =
        run_on_executor t s ~kind (fun () ->
            Mmdb_util.Trace.run tr ~name:"query" job)
      in
      let elapsed = Unix.gettimeofday () -. started in
      (match resp with
      | Protocol.Error (Protocol.Timeout, _) ->
          (* the abandoned job may still be running and mutating [tr] *)
          ()
      | _ -> (
          match Mmdb_util.Trace.root tr with
          | None -> () (* job skipped before execution *)
          | Some root ->
              Metrics.record_trace t.metrics root;
              if t.slow_out <> None && elapsed >= t.cfg.slow_threshold then
                slow_log_line t s ~sql ~elapsed ~resp root));
      resp
    end
  in
  capture_record t s ~sql ?params ~started ~resp ();
  (* Index-advisor cadence: every [advisor_every]-th executed batch
     queues one fire-and-forget pass on the dispatcher's Write slot —
     exclusive with all readers and writers, and never under an MVCC
     snapshot, exactly the conditions {!Advisor.run} needs to bulk-build
     indices safely.  Nobody waits on the promise; actions surface in
     STATS/METRICS. *)
  if t.cfg.advisor_every > 0 && Advisor.due ~every:t.cfg.advisor_every then
    ignore (Exec_queue.submit t.exec (fun () -> ignore (Advisor.run t.db)));
  resp

let literal_of_value : Value.t -> Ast.literal = function
  | Value.Int n -> Ast.L_int n
  | Value.Float f -> Ast.L_float f
  | Value.Str s -> Ast.L_string s
  | Value.Bool b -> Ast.L_bool b
  | Value.Null | Value.Ref _ | Value.Refs _ -> Ast.L_null

(* Returns [false] when the connection should close. *)
let handle_request t (s : session) (req : Protocol.request) : bool =
  let answer resp =
    (match resp with
    | Protocol.Error (code, _) ->
        Metrics.error t.metrics;
        if code = Protocol.Conflict then Metrics.conflict t.metrics;
        if code = Protocol.Quota then Metrics.quota_killed t.metrics
    | _ -> ());
    send t s resp;
    true
  in
  s.Session.last_kind <- "control" (* run_statements overrides for queries *);
  match req with
  | Protocol.Quit ->
      try_send t s Protocol.Bye;
      false
  | Protocol.Ping -> answer Protocol.Pong
  | Protocol.Status -> answer (Protocol.Status_text (metrics_text t))
  | Protocol.Stats -> answer (Protocol.Stats_json (stats_json_text t))
  | Protocol.Metrics -> answer (Protocol.Metrics_text (prometheus_text t))
  | Protocol.Cancel ->
      (match s.Session.pending with
      | Some p -> Exec_queue.abandon p
      | None -> ());
      answer (Protocol.Notice "cancel acknowledged (queued work abandoned)")
  | Protocol.Query sql -> (
      match parse_cached t sql with
      | Error msg -> answer (Protocol.Error (Protocol.Parse, msg))
      | Ok stmts -> answer (run_statements t s ~sql stmts))
  | Protocol.Prepare sql -> (
      match Parser.parse sql with
      | Error msg -> answer (Protocol.Error (Protocol.Parse, msg))
      | Ok [ stmt ] ->
          let n_params = Ast.param_count stmt in
          let id, n_params = Session.register_prepared s stmt ~n_params ~sql in
          answer (Protocol.Prepared { id; n_params })
      | Ok stmts ->
          answer
            (Protocol.Error
               ( Protocol.Parse,
                 Printf.sprintf "PREPARE wants exactly one statement, got %d"
                   (List.length stmts) )))
  | Protocol.Exec_prepared { id; params } -> (
      match Session.find_prepared s id with
      | None ->
          answer
            (Protocol.Error
               (Protocol.Exec, Printf.sprintf "no prepared statement %d" id))
      | Some (stmt, _, sql) -> (
          match
            Ast.substitute_params stmt (List.map literal_of_value params)
          with
          | Error msg -> answer (Protocol.Error (Protocol.Exec, msg))
          | Ok bound -> answer (run_statements t s ~sql ~params [ bound ])))

(* --- connection lifecycle --------------------------------------------- *)

let cleanup t (s : session) =
  (* the reaper may still kick a session while it closes: the farewell
     follows the kick it had when it started closing *)
  let kick = s.Session.kick in
  (* counted before the session leaves the table, so a caller that sees
     it gone also sees it counted *)
  Metrics.conn_closed ~reaped:(kick = Session.Idle_kick) t.metrics;
  (* Roll back an open BEGIN block.  This job queues after anything the
     session ever submitted (including abandoned jobs), so once it
     resolves no executor job can touch this session again. *)
  (match s.Session.interp with
  | Some interp ->
      let p =
        Exec_queue.submit t.exec (fun () ->
            if Interp.in_txn interp then
              ignore (Interp.exec interp Ast.Rollback_txn))
      in
      ignore (Exec_queue.wait p)
  | None -> ());
  (* Abandoned MVCC reads bypassed the FIFO, so the rollback above was
     not a barrier for them: wait them out before the fds they poke are
     recycled. *)
  List.iter (fun p -> ignore (Exec_queue.wait p)) s.Session.orphans;
  s.Session.orphans <- [];
  (match kick with
  | Session.Idle_kick ->
      try_send t s (Protocol.Notice "idle timeout, closing session");
      try_send t s Protocol.Bye
  | Session.Shutdown_kick ->
      try_send t s (Protocol.Notice "server shutting down");
      try_send t s Protocol.Bye
  | Session.Crash_kick -> () (* simulated kill-9: no farewell frames *)
  | Session.Not_kicked -> ());
  (* Leave the table only now: a caller that sees the session gone also
     sees its transaction rolled back and its locks released. *)
  Mutex.lock t.m;
  Hashtbl.remove t.sessions s.Session.sid;
  Mutex.unlock t.m;
  Session.close_fds s

let session_loop t (s : session) =
  let rec loop () =
    match
      Protocol.read_frame ~fault:t.cfg.fault ~max_frame:t.cfg.max_frame
        s.Session.fd
    with
    | Error `Eof -> () (* client closed between frames *)
    | Error (`Oversized n) ->
        Metrics.proto_error t.metrics;
        try_send t s
          (Protocol.Error
             ( Protocol.Proto,
               Printf.sprintf "frame of %d bytes exceeds the %d-byte limit" n
                 t.cfg.max_frame ))
        (* cannot resynchronize: close *)
    | Error (`Malformed msg) ->
        Metrics.proto_error t.metrics;
        try_send t s (Protocol.Error (Protocol.Proto, msg))
    | Ok payload -> (
        Session.touch s;
        match Protocol.decode_request payload with
        | Error msg ->
            (* framing was intact: reject the request, keep the session *)
            Metrics.proto_error t.metrics;
            try_send t s (Protocol.Error (Protocol.Proto, msg));
            loop ()
        | Ok req ->
            let started = Unix.gettimeofday () in
            s.Session.busy <- true;
            let continue = try handle_request t s req with _ -> false in
            Metrics.request t.metrics ~kind:s.Session.last_kind
              ~latency:(Unix.gettimeofday () -. started);
            Session.touch s;
            s.Session.busy <- false;
            if continue then loop ())
  in
  (try
     send t s
       (Protocol.Notice
          (Printf.sprintf "mmdb server ready (session %d)" s.Session.sid));
     (* interpreter construction reads the catalog: executor-only *)
     let p =
       Exec_queue.submit t.exec (fun () ->
           Interp.session ~mgr:t.mgr t.db)
     in
     (match Exec_queue.wait p with
     | Ok interp ->
         s.Session.interp <- Some interp;
         loop ()
     | Error _ -> ())
   with _ -> ());
  cleanup t s

let handle_accept t fd =
  Unix.clear_nonblock fd;
  if t.cfg.sndbuf > 0 then (
    try Unix.setsockopt_int fd Unix.SO_SNDBUF t.cfg.sndbuf
    with Unix.Unix_error _ -> ());
  Mutex.lock t.m;
  let admit =
    (not t.shutting_down) && Hashtbl.length t.sessions < t.cfg.max_connections
  in
  if not admit then begin
    Mutex.unlock t.m;
    Metrics.conn_rejected t.metrics;
    (try
       Protocol.write_frame fd
         (Protocol.encode_response
            (Protocol.Busy
               (Printf.sprintf
                  "connection limit (%d) reached, retry with backoff"
                  t.cfg.max_connections)))
     with _ -> ());
    try Unix.close fd with _ -> ()
  end
  else begin
    let sid = t.next_sid in
    t.next_sid <- sid + 1;
    let s = Session.create ~sid ~fd in
    Hashtbl.replace t.sessions sid s;
    let thr = Thread.create (fun () -> session_loop t s) () in
    t.handlers <- thr :: t.handlers;
    Mutex.unlock t.m;
    Metrics.conn_accepted t.metrics
  end

let accept_loop t =
  let rec loop () =
    match Unix.select [ t.listen_fd; t.stop_r ] [] [] (-1.0) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
    | readable, _, _ ->
        if List.mem t.stop_r readable then () (* shutdown *)
        else begin
          (match Unix.accept ~cloexec:true t.listen_fd with
          | fd, _ -> handle_accept t fd
          | exception
              Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR | Unix.ECONNABORTED), _, _)
            -> ()
          | exception Unix.Unix_error _ when t.shutting_down -> ());
          if t.shutting_down then () else loop ()
        end
  in
  loop ()

let reaper_loop t =
  let tick =
    if t.cfg.idle_timeout > 0.0 then
      Float.max 0.01 (Float.min 0.2 (t.cfg.idle_timeout /. 4.0))
    else 0.2
  in
  while not t.shutting_down do
    Thread.delay tick;
    if t.cfg.idle_timeout > 0.0 && not t.shutting_down then begin
      let now = Unix.gettimeofday () in
      Mutex.lock t.m;
      let victims =
        Hashtbl.fold
          (fun _ s acc ->
            if
              (not s.Session.busy)
              && Session.idle_for s ~now > t.cfg.idle_timeout
              && s.Session.kick = Session.Not_kicked
            then s :: acc
            else acc)
          t.sessions []
      in
      Mutex.unlock t.m;
      List.iter
        (fun s ->
          s.Session.kick <- Session.Idle_kick;
          try Unix.shutdown s.Session.fd Unix.SHUTDOWN_RECEIVE
          with Unix.Unix_error _ -> ())
        victims
    end
  done

(* --- lifecycle --------------------------------------------------------- *)

let start ?(config = default_config) ?mgr db =
  (* a dying client must surface as EPIPE, not kill the process *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with _ -> ());
  let mgr =
    match mgr with Some m -> m | None -> Mmdb_txn.Txn.create_manager ()
  in
  (* The config knob is authoritative for this process: it seeds the
     storage-layer flag (hooks consult it on every mutation) and the
     executor's Read-bypass mode together.  Tuples stored while
     versioning was off have empty chains, which every snapshot reads
     through the live index. *)
  Version_store.set_enabled config.mvcc;
  (* Same authority for the planner knob: the config seeds the
     process-wide flag, so EXPLAIN and STATS agree with what runs. *)
  Optimizer.set_cost_based config.cost;
  let listen_fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
  let addr = Unix.ADDR_INET (Unix.inet_addr_of_string config.host, config.port) in
  (try Unix.bind listen_fd addr
   with e ->
     Unix.close listen_fd;
     raise e);
  Unix.listen listen_fd 64;
  Unix.set_nonblock listen_fd;
  let bound_port =
    match Unix.getsockname listen_fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> config.port
  in
  let stop_r, stop_w = Unix.pipe ~cloexec:true () in
  let slow_out =
    Option.map
      (fun path -> open_out_gen [ Open_append; Open_creat ] 0o644 path)
      config.slow_log
  in
  let capture =
    Option.map
      (fun path ->
        Capture.create ~max_bytes:config.capture_max_bytes ~path ())
      config.capture
  in
  let t =
    {
      cfg = config;
      db;
      mgr;
      exec = Exec_queue.create ~mvcc:config.mvcc ();
      metrics = Metrics.create ();
      cache_m = Mutex.create ();
      cache =
        (if config.stmt_cache > 0 then
           Some (Mmdb_util.Lru.create ~capacity:config.stmt_cache)
         else None);
      listen_fd;
      bound_port;
      stop_r;
      stop_w;
      slow_m = Mutex.create ();
      slow_out;
      capture;
      gc_tick = Atomic.make 0;
      m = Mutex.create ();
      sessions = Hashtbl.create 32;
      handlers = [];
      next_sid = 1;
      shutting_down = false;
      accept_thread = None;
      reaper_thread = None;
    }
  in
  t.accept_thread <- Some (Thread.create (fun () -> accept_loop t) ());
  t.reaper_thread <- Some (Thread.create (fun () -> reaper_loop t) ());
  t

let shutdown t =
  Mutex.lock t.m;
  let already = t.shutting_down in
  t.shutting_down <- true;
  Mutex.unlock t.m;
  if not already then begin
    (* stop admitting *)
    (try ignore (Unix.write_substring t.stop_w "!" 0 1) with _ -> ());
    (match t.accept_thread with Some thr -> Thread.join thr | None -> ());
    (try Unix.close t.listen_fd with _ -> ());
    (* nudge every session off its socket; handlers drain in-flight
       requests, roll back open transactions, and exit *)
    Mutex.lock t.m;
    let live = Hashtbl.fold (fun _ s acc -> s :: acc) t.sessions [] in
    Mutex.unlock t.m;
    List.iter
      (fun s ->
        if s.Session.kick = Session.Not_kicked then
          s.Session.kick <- Session.Shutdown_kick;
        try Unix.shutdown s.Session.fd Unix.SHUTDOWN_RECEIVE
        with Unix.Unix_error _ -> ())
      live;
    Mutex.lock t.m;
    let handlers = t.handlers in
    t.handlers <- [];
    Mutex.unlock t.m;
    List.iter Thread.join handlers;
    (match t.reaper_thread with Some thr -> Thread.join thr | None -> ());
    (* all sessions are gone; drain and stop the executor last *)
    Exec_queue.stop t.exec;
    (match t.slow_out with
    | Some oc -> ( try close_out oc with _ -> ())
    | None -> ());
    (match t.capture with
    | Some cap -> ( try Capture.close cap with _ -> ())
    | None -> ());
    List.iter
      (fun fd -> try Unix.close fd with _ -> ())
      [ t.stop_r; t.stop_w ]
  end

(* Simulated kill-9.  The process hosts the "disk" (the manager's
   Disk_store / Log_device are in-memory simulations), so a real kill
   would take the durable state with it; instead we cut every session
   with no farewell frame (clients see a reset mid-conversation, exactly
   like a crashed peer), abandon queued-but-unstarted work, and stop the
   machinery without any graceful notice.  In-flight executor jobs
   finish on their domain — as a kernel would finish a DMA — but their
   replies never reach a client.  Open BEGIN blocks are rolled back as
   the handlers unwind: equivalent to process death under deferred
   update, since uncommitted changes were never logged.  The caller then
   discards [db]/[manager] and hands the manager's store and device to
   {!Mmdb_txn.Recovery.recover}, as after a real crash. *)
let crash t =
  Mutex.lock t.m;
  let already = t.shutting_down in
  t.shutting_down <- true;
  Mutex.unlock t.m;
  if not already then begin
    (try ignore (Unix.write_substring t.stop_w "!" 0 1) with _ -> ());
    (match t.accept_thread with Some thr -> Thread.join thr | None -> ());
    (try Unix.close t.listen_fd with _ -> ());
    Mutex.lock t.m;
    let live = Hashtbl.fold (fun _ s acc -> s :: acc) t.sessions [] in
    Mutex.unlock t.m;
    List.iter
      (fun s ->
        s.Session.kick <- Session.Crash_kick;
        (match s.Session.pending with
        | Some p -> Exec_queue.abandon p
        | None -> ());
        try Unix.shutdown s.Session.fd Unix.SHUTDOWN_ALL
        with Unix.Unix_error _ -> ())
      live;
    Mutex.lock t.m;
    let handlers = t.handlers in
    t.handlers <- [];
    Mutex.unlock t.m;
    List.iter Thread.join handlers;
    (match t.reaper_thread with Some thr -> Thread.join thr | None -> ());
    Exec_queue.stop t.exec;
    (match t.slow_out with
    | Some oc -> ( try close_out oc with _ -> ())
    | None -> ());
    (match t.capture with
    | Some cap -> ( try Capture.close cap with _ -> ())
    | None -> ());
    List.iter
      (fun fd -> try Unix.close fd with _ -> ())
      [ t.stop_r; t.stop_w ]
  end
