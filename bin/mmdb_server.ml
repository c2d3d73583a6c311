(* The mmdb network server daemon.

     dune exec bin/mmdb_server.exe                         # defaults
     dune exec bin/mmdb_server.exe -- --port 7478 --demo
     dune exec bin/mmdb_server.exe -- --max-conns 8 --request-timeout 5

   SIGINT / SIGTERM trigger a graceful shutdown (in-flight requests
   drain, open BEGIN blocks roll back); SIGUSR1 dumps metrics to
   stderr. *)

open Mmdb_core
open Mmdb_net

let usage () =
  prerr_endline
    {|usage: mmdb_server [options]
  --host ADDR            bind address        (default 127.0.0.1)
  --port N               TCP port, 0=ephemeral (default 7478)
  --max-conns N          admission limit     (default 64)
  --request-timeout SEC  per-request timeout, 0=off (default 30)
  --idle-timeout SEC     idle-session reap, 0=off    (default 300)
  --write-timeout SEC    per-reply write deadline, 0=off (default 0)
  --shed-watermark N     shed new work when the executor queue is this
                         deep, 0=off (default 0); shed clients get a
                         typed Overloaded reply with a retry-after hint
  --max-rows N           per-query result-row quota, 0=off (default 0)
  --tuple-budget N       per-query intermediate-tuple quota, 0=off
                         (default 0)
  --mvcc / --no-mvcc     snapshot-isolation reads: read-only statements
                         run under an MVCC snapshot concurrently with the
                         writer (default on, MMDB_MVCC=0 flips the default)
  --batch-size N         tuples per execution batch; 0 or 1 is the
                         tuple-at-a-time ablation (default 256,
                         MMDB_BATCH overrides the default)
  --trace                trace every statement into the operator table
  --slow-log FILE        append a JSONL line per slow query (implies tracing)
  --slow-ms N            slow-query threshold in ms  (default 100,
                         MMDB_SLOW_MS overrides the default)
  --capture FILE         append a JSONL workload-capture record per executed
                         statement (replay with mmdb_client --replay FILE)
  --capture-max-mb N     rotate the capture file past N MiB (default 64)
  --cost / --no-cost     cost-based planning: statistics-driven access
                         paths and join algorithm (default on,
                         MMDB_COST=0 flips the default); --no-cost is the
                         paper's rule-based preference ordering
  --advisor-every N      run the index advisor every N statement batches,
                         0=off (default 0, MMDB_ADVISOR overrides the
                         default)
  --demo                 preload the Employee/Department demo db|};
  exit 2

let demo_script =
  {|
  CREATE TABLE Department (Name string, Id int PRIMARY KEY);
  INSERT INTO Department VALUES ('Toy', 459);
  INSERT INTO Department VALUES ('Shoe', 409);
  INSERT INTO Department VALUES ('Linen', 411);
  INSERT INTO Department VALUES ('Paint', 455);
  CREATE TABLE Employee (Name string, Id int PRIMARY KEY, Age int,
                         Dept ref Department);
  INSERT INTO Employee VALUES ('Dave', 23, 24, 459);
  INSERT INTO Employee VALUES ('Suzan', 12, 27, 459);
  INSERT INTO Employee VALUES ('Yaman', 44, 54, 411);
  INSERT INTO Employee VALUES ('Jane', 43, 47, 411);
  INSERT INTO Employee VALUES ('Cindy', 22, 22, 409);
  INSERT INTO Employee VALUES ('Hank', 77, 70, 409);
  CREATE INDEX by_age ON Employee (Age) USING ttree;
  |}

let () =
  let cfg = ref Server.default_config in
  (* MMDB_SLOW_MS sets the default threshold; --slow-ms still wins *)
  (match Sys.getenv_opt "MMDB_SLOW_MS" with
  | Some v -> (
      match float_of_string_opt v with
      | Some ms -> cfg := { !cfg with Server.slow_threshold = ms /. 1000.0 }
      | None ->
          Fmt.epr "ignoring unparsable MMDB_SLOW_MS=%s@." v)
  | None -> ());
  let demo = ref false in
  let rec parse_args = function
    | [] -> ()
    | "--host" :: v :: rest ->
        cfg := { !cfg with Server.host = v };
        parse_args rest
    | "--port" :: v :: rest ->
        cfg := { !cfg with Server.port = int_of_string v };
        parse_args rest
    | "--max-conns" :: v :: rest ->
        cfg := { !cfg with Server.max_connections = int_of_string v };
        parse_args rest
    | "--request-timeout" :: v :: rest ->
        cfg := { !cfg with Server.request_timeout = float_of_string v };
        parse_args rest
    | "--idle-timeout" :: v :: rest ->
        cfg := { !cfg with Server.idle_timeout = float_of_string v };
        parse_args rest
    | "--write-timeout" :: v :: rest ->
        cfg := { !cfg with Server.write_timeout = float_of_string v };
        parse_args rest
    | "--shed-watermark" :: v :: rest ->
        cfg := { !cfg with Server.shed_watermark = int_of_string v };
        parse_args rest
    | "--max-rows" :: v :: rest ->
        cfg := { !cfg with Server.max_result_rows = int_of_string v };
        parse_args rest
    | "--tuple-budget" :: v :: rest ->
        cfg := { !cfg with Server.tuple_budget = int_of_string v };
        parse_args rest
    | "--batch-size" :: v :: rest ->
        (* the flag wins over the MMDB_BATCH default, both ways *)
        Mmdb_storage.Batch.set_size (int_of_string v);
        parse_args rest
    | "--mvcc" :: rest ->
        cfg := { !cfg with Server.mvcc = true };
        parse_args rest
    | "--no-mvcc" :: rest ->
        cfg := { !cfg with Server.mvcc = false };
        parse_args rest
    | "--trace" :: rest ->
        cfg := { !cfg with Server.trace = true };
        parse_args rest
    | "--slow-log" :: v :: rest ->
        cfg := { !cfg with Server.slow_log = Some v };
        parse_args rest
    | "--slow-ms" :: v :: rest ->
        cfg := { !cfg with Server.slow_threshold = float_of_string v /. 1000.0 };
        parse_args rest
    | "--capture" :: v :: rest ->
        cfg := { !cfg with Server.capture = Some v };
        parse_args rest
    | "--capture-max-mb" :: v :: rest ->
        cfg :=
          { !cfg with Server.capture_max_bytes = int_of_string v * 1024 * 1024 };
        parse_args rest
    | "--cost" :: rest ->
        cfg := { !cfg with Server.cost = true };
        parse_args rest
    | "--no-cost" :: rest ->
        cfg := { !cfg with Server.cost = false };
        parse_args rest
    | "--advisor-every" :: v :: rest ->
        cfg := { !cfg with Server.advisor_every = int_of_string v };
        parse_args rest
    | "--demo" :: rest ->
        demo := true;
        parse_args rest
    | _ -> usage ()
  in
  (try parse_args (List.tl (Array.to_list Sys.argv))
   with Failure _ -> usage ());
  let db = Db.create () in
  let mgr = Mmdb_txn.Txn.create_manager () in
  if !demo then begin
    (* before [Server.start] only this thread touches the db *)
    let sess = Mmdb_lang.Interp.session ~mgr db in
    match Mmdb_lang.Interp.exec_string sess demo_script with
    | Ok _ -> prerr_endline "demo database loaded (Employee, Department)"
    | Error msg ->
        Fmt.epr "demo load failed: %s@." msg;
        exit 1
  end;
  let srv = Server.start ~config:!cfg ~mgr db in
  let stopping = ref false in
  let request_stop _ = stopping := true in
  Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop);
  (* async-signal context: only flip a flag, dump from the main loop *)
  let want_dump = ref false in
  Sys.set_signal Sys.sigusr1 (Sys.Signal_handle (fun _ -> want_dump := true));
  Printf.eprintf "mmdb_server listening on %s:%d (max %d connections)\n%!"
    !cfg.Server.host (Server.port srv) !cfg.Server.max_connections;
  (* signal handlers run on this thread between polls *)
  while not !stopping do
    Thread.delay 0.2;
    if !want_dump then begin
      want_dump := false;
      prerr_endline "--- metrics ---";
      prerr_endline (Server.metrics_text srv)
    end
  done;
  prerr_endline "shutting down (draining sessions)...";
  Server.shutdown srv;
  prerr_endline "--- final metrics ---";
  prerr_endline (Server.metrics_text srv)
