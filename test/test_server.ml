(* Network server tests: wire-protocol roundtrips, framing robustness,
   executor-queue semantics, and live end-to-end checks over real TCP
   sockets (ephemeral ports, one in-process server per test). *)

open Mmdb_storage
open Mmdb_net

let value = Alcotest.testable Value.pp Value.equal

(* --- protocol roundtrips ------------------------------------------------ *)

let strip_len frame = String.sub frame 4 (String.length frame - 4)

let roundtrip_request req =
  match Protocol.decode_request (strip_len (Protocol.encode_request req)) with
  | Ok r -> r
  | Error m -> Alcotest.fail ("request did not decode: " ^ m)

let roundtrip_response resp =
  match
    Protocol.decode_response (strip_len (Protocol.encode_response resp))
  with
  | Ok r -> r
  | Error m -> Alcotest.fail ("response did not decode: " ^ m)

let test_proto_request_roundtrip () =
  let reqs =
    [
      Protocol.Query "SELECT * FROM T;";
      Protocol.Prepare "INSERT INTO T VALUES (?, ?);";
      Protocol.Exec_prepared
        {
          id = 42;
          params =
            [
              Value.Null;
              Value.Bool true;
              Value.Bool false;
              Value.Int 0;
              Value.Int max_int;
              Value.Int min_int;
              Value.Int (-1);
              Value.Float 3.25;
              Value.Float (-0.0);
              Value.Float infinity;
              Value.Str "plain";
              Value.Str "embedded\x00nul and \xffbytes";
              Value.Str "";
            ];
        };
      Protocol.Ping;
      Protocol.Cancel;
      Protocol.Quit;
      Protocol.Status;
      Protocol.Stats;
      Protocol.Metrics;
    ]
  in
  List.iter
    (fun req ->
      let got = roundtrip_request req in
      Alcotest.(check bool) "request survives the wire" true (got = req))
    reqs

let test_proto_response_roundtrip () =
  let resps =
    [
      Protocol.Results
        {
          columns = [ "A"; "B.C" ];
          rows =
            [
              [| Value.Str "x"; Value.Int 47 |];
              [| Value.Null; Value.Float 1.5 |];
              [||];
            ];
        };
      Protocol.Results { columns = []; rows = [] };
      Protocol.Message "ok";
      Protocol.Prepared { id = 7; n_params = 3 };
      Protocol.Error (Protocol.Parse, "bad syntax");
      Protocol.Error (Protocol.Conflict, "would block");
      Protocol.Error (Protocol.Quota, "result of 10 rows exceeds the quota");
      Protocol.Busy "full";
      Protocol.Overloaded { retry_after_ms = 12.5; msg = "queue at 9" };
      Protocol.Overloaded { retry_after_ms = 0.0; msg = "" };
      Protocol.Pong;
      Protocol.Bye;
      Protocol.Notice "hello";
      Protocol.Status_text "line1\nline2";
      Protocol.Stats_json "{\"requests\":{\"total\":3}}";
      Protocol.Metrics_text "# TYPE mmdb_up gauge\nmmdb_up 1\n";
      Protocol.Metrics_text "";
    ]
  in
  List.iter
    (fun resp ->
      let got = roundtrip_response resp in
      Alcotest.(check bool) "response survives the wire" true (got = resp))
    resps

let test_proto_rejects_garbage () =
  (match Protocol.decode_request "" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty payload must not decode");
  (match Protocol.decode_request "\x7fgarbage" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown tag must not decode");
  (* truncated Exec_prepared payload: framing fine, body short *)
  (match Protocol.decode_request "E\x00\x00\x00\x01\x00\x05" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated payload must not decode");
  match Protocol.decode_response "\x01nope" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown response tag must not decode"

(* --- framing over a real socket pair ------------------------------------ *)

let with_socketpair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun fd -> try Unix.close fd with _ -> ()) [ a; b ])
    (fun () -> f a b)

let test_frame_roundtrip_and_eof () =
  with_socketpair (fun a b ->
      Protocol.write_frame a (Protocol.encode_request (Protocol.Query "x"));
      (match Protocol.read_frame b with
      | Ok payload -> Alcotest.(check string) "payload" "Qx" payload
      | Error _ -> Alcotest.fail "frame did not arrive");
      Unix.close a;
      match Protocol.read_frame b with
      | Error `Eof -> ()
      | _ -> Alcotest.fail "close at a boundary must read as `Eof")

let test_frame_oversized () =
  with_socketpair (fun a b ->
      (* announce a 100 MiB frame without sending it *)
      let hdr = Bytes.create 4 in
      Bytes.set_uint16_be hdr 0 0x0640;
      Bytes.set_uint16_be hdr 2 0;
      ignore (Unix.write a hdr 0 4);
      match Protocol.read_frame ~max_frame:(1 lsl 20) b with
      | Error (`Oversized n) ->
          Alcotest.(check int) "announced size" 0x06400000 n
      | _ -> Alcotest.fail "oversized header must be rejected")

let test_frame_zero_and_midframe () =
  with_socketpair (fun a b ->
      ignore (Unix.write a (Bytes.make 4 '\x00') 0 4);
      (match Protocol.read_frame b with
      | Error (`Malformed _) -> ()
      | _ -> Alcotest.fail "zero-length frame must be malformed");
      (* announce 10 bytes, send 3, hang up *)
      ignore (Unix.write_substring a "\x00\x00\x00\x0aQab" 0 7);
      Unix.close a;
      match Protocol.read_frame b with
      | Error (`Malformed _) -> ()
      | _ -> Alcotest.fail "mid-frame eof must be malformed")

(* --- injected network faults at the framing layer ----------------------- *)

module Fault = Mmdb_txn.Fault

let test_net_fault_torn_write () =
  let fault = Fault.create ~seed:42 () in
  Fault.arm fault ~point:"net.write.torn" Fault.Corrupt;
  with_socketpair (fun a b ->
      (match
         Protocol.write_frame ~fault a (Protocol.encode_request Protocol.Ping)
       with
      | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> ()
      | () -> Alcotest.fail "a torn write must surface as a reset");
      Alcotest.(check (list string))
        "the point fired" [ "net.write.torn" ] (Fault.fired fault);
      (* the peer never assembles a full frame out of the torn prefix *)
      match Protocol.read_frame b with
      | Error (`Malformed _) | Error `Eof -> ()
      | Ok _ -> Alcotest.fail "a torn frame must not decode"
      | Error (`Oversized _) -> Alcotest.fail "torn prefix read as oversized")

let test_net_fault_write_reset () =
  let fault = Fault.create ~seed:43 () in
  Fault.arm fault ~point:"net.write.reset" Fault.Corrupt;
  with_socketpair (fun a b ->
      (match
         Protocol.write_frame ~fault a (Protocol.encode_request Protocol.Ping)
       with
      | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> ()
      | () -> Alcotest.fail "an injected reset must raise");
      (* not a single byte escaped before the drop *)
      match Protocol.read_frame b with
      | Error `Eof -> ()
      | _ -> Alcotest.fail "peer of a reset write must see clean EOF")

let test_net_fault_read_reset_and_stall () =
  let fault = Fault.create ~seed:44 () in
  Fault.arm fault ~point:"net.read.reset" Fault.Corrupt;
  with_socketpair (fun a b ->
      Protocol.write_frame a (Protocol.encode_request Protocol.Ping);
      (match Protocol.read_frame ~fault b with
      | Error (`Malformed _) -> ()
      | _ -> Alcotest.fail "an injected read reset must be malformed");
      ignore (Fault.fired fault));
  (* a read stall delays but does not damage the frame *)
  let fault = Fault.create ~seed:45 () in
  Fault.arm fault ~point:"net.read.stall" (Fault.Delay 0.05);
  with_socketpair (fun a b ->
      Protocol.write_frame a (Protocol.encode_request Protocol.Ping);
      let t0 = Unix.gettimeofday () in
      (match Protocol.read_frame ~fault b with
      | Ok "p" -> ()
      | _ -> Alcotest.fail "stalled read must still deliver the frame");
      Alcotest.(check bool) "the stall actually delayed" true
        (Unix.gettimeofday () -. t0 >= 0.045))

let test_net_fault_slowloris_and_delay () =
  let fault = Fault.create ~seed:46 () in
  Fault.arm fault ~point:"net.write.slowloris" (Fault.Delay 0.002);
  with_socketpair (fun a b ->
      Protocol.write_frame ~fault a (Protocol.encode_request Protocol.Ping);
      (match Protocol.read_frame b with
      | Ok "p" -> ()
      | _ -> Alcotest.fail "a dribbled frame must still assemble"));
  let fault = Fault.create ~seed:47 () in
  Fault.arm fault ~point:"net.write.delay" (Fault.Delay 0.05);
  with_socketpair (fun a b ->
      let t0 = Unix.gettimeofday () in
      Protocol.write_frame ~fault a (Protocol.encode_request Protocol.Ping);
      Alcotest.(check bool) "the write was delayed" true
        (Unix.gettimeofday () -. t0 >= 0.045);
      match Protocol.read_frame b with
      | Ok "p" -> ()
      | _ -> Alcotest.fail "a delayed frame must still arrive intact")

let test_write_deadline () =
  (* nobody reads the peer: a multi-megabyte frame must hit the deadline
     instead of blocking forever once the kernel buffers fill *)
  with_socketpair (fun a _b ->
      let big =
        Protocol.encode_response
          (Protocol.Message (String.make (8 * 1024 * 1024) 'x'))
      in
      let t0 = Unix.gettimeofday () in
      match
        Protocol.write_frame ~deadline:(t0 +. 0.2) a big
      with
      | exception Protocol.Write_timeout ->
          Alcotest.(check bool) "timed out around the deadline" true
            (Unix.gettimeofday () -. t0 >= 0.15)
      | () -> Alcotest.fail "an unread 8 MiB frame must hit the deadline");
  (* with a draining peer the same deadline write completes *)
  with_socketpair (fun a b ->
      let frame = Protocol.encode_request (Protocol.Query "SELECT 1;") in
      Protocol.write_frame ~deadline:(Unix.gettimeofday () +. 5.0) a frame;
      match Protocol.read_frame b with
      | Ok p -> Alcotest.(check string) "payload intact" "QSELECT 1;" p
      | Error _ -> Alcotest.fail "deadline write with a reader must land")

(* --- executor queue ----------------------------------------------------- *)

let test_exec_queue_basics () =
  let q = Exec_queue.create () in
  let p1 = Exec_queue.submit q (fun () -> 6 * 7) in
  (match Exec_queue.wait p1 with
  | Ok v -> Alcotest.(check int) "job result" 42 v
  | Error _ -> Alcotest.fail "job raised");
  let p2 = Exec_queue.submit q (fun () -> failwith "boom") in
  (match Exec_queue.wait p2 with
  | Error (Failure m) -> Alcotest.(check string) "exn carried" "boom" m
  | _ -> Alcotest.fail "expected the job's exception");
  (* serial order: a slow job delays the next one, never overlaps it *)
  let order = ref [] in
  let pa = Exec_queue.submit q (fun () -> order := 1 :: !order) in
  let pb = Exec_queue.submit q (fun () -> order := 2 :: !order) in
  ignore (Exec_queue.wait pa);
  ignore (Exec_queue.wait pb);
  Alcotest.(check (list int)) "submission order" [ 2; 1 ] !order;
  Exec_queue.stop q;
  match Exec_queue.wait (Exec_queue.submit q (fun () -> 0)) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "submit after stop must fail"

let test_exec_queue_timeout_and_abandon () =
  let q = Exec_queue.create () in
  let wake_r, wake_w = Unix.pipe () in
  let release = Atomic.make false in
  let slow =
    Exec_queue.submit q ~notify:wake_w (fun () ->
        while not (Atomic.get release) do
          Thread.delay 0.005
        done;
        "slow done")
  in
  (* a job queued behind the slow one; abandoned before it can start *)
  let queued = Exec_queue.submit q ~notify:wake_w (fun () -> "never runs") in
  (match
     Exec_queue.await slow ~wakeup:wake_r
       ~deadline:(Unix.gettimeofday () +. 0.05)
   with
  | `Timeout -> ()
  | `Done _ -> Alcotest.fail "slow job cannot be done yet");
  Exec_queue.abandon slow;
  Exec_queue.abandon queued;
  Atomic.set release true;
  (* both resolve: the slow one with its (discarded) value, the queued
     one as skipped — waiters never hang on abandoned work *)
  (match Exec_queue.wait queued with
  | Error (Failure _) -> ()
  | _ -> Alcotest.fail "skipped job must resolve with an error");
  let after =
    Exec_queue.await
      (Exec_queue.submit q ~notify:wake_w (fun () -> "alive"))
      ~wakeup:wake_r
      ~deadline:(Unix.gettimeofday () +. 2.0)
  in
  (match after with
  | `Done (Ok "alive") -> ()
  | _ -> Alcotest.fail "queue must keep serving after abandons");
  Exec_queue.stop q;
  List.iter Unix.close [ wake_r; wake_w ]

(* --- end-to-end over TCP ------------------------------------------------ *)

let test_config =
  {
    Server.default_config with
    Server.port = 0;
    (* ephemeral *)
    request_timeout = 10.0;
    idle_timeout = 0.0;
    (* no reaping unless a test asks for it *)
  }

let with_server ?(config = test_config) f =
  let db = Mmdb_core.Db.create () in
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
  match
    Client.connect ~host:"127.0.0.1" ~port:(Server.port srv) ()
  with
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
      Alcotest.fail
        (Fmt.str "expected a result set, got %a" Protocol.pp_response r)

(* Sort rows for order-insensitive comparison. *)
let sorted rows = List.sort compare rows

let test_e2e_basic () =
  with_server (fun srv ->
      let c = connect srv in
      ignore (expect_ok c "CREATE TABLE KV (K int PRIMARY KEY, V int);");
      ignore (expect_ok c "INSERT INTO KV VALUES (1, 10);");
      ignore (expect_ok c "INSERT INTO KV VALUES (2, 20);");
      let rows = rows_of (expect_ok c "SELECT K, V FROM KV;") in
      Alcotest.(check int) "two rows" 2 (List.length rows);
      Alcotest.(check bool) "row content" true
        (sorted rows
        = [ [| Value.Int 1; Value.Int 10 |]; [| Value.Int 2; Value.Int 20 |] ]);
      (* prepared statements *)
      let id, n =
        match Client.prepare c "SELECT V FROM KV WHERE K = ?;" with
        | Ok x -> x
        | Error m -> Alcotest.fail m
      in
      Alcotest.(check int) "one placeholder" 1 n;
      (match Client.exec_prepared c id [ Value.Int 2 ] with
      | Ok (Protocol.Results { rows = [ [| v |] ]; _ }) ->
          Alcotest.check value "prepared lookup" (Value.Int 20) v
      | Ok r ->
          Alcotest.fail (Fmt.str "unexpected: %a" Protocol.pp_response r)
      | Error m -> Alcotest.fail m);
      (* wrong arity is an error, session survives *)
      (match Client.exec_prepared c id [] with
      | Ok (Protocol.Error (Protocol.Exec, _)) -> ()
      | _ -> Alcotest.fail "missing params must be an exec error");
      (match Client.ping c with
      | Ok () -> ()
      | Error m -> Alcotest.fail m);
      (match Client.status c with
      | Ok s ->
          Alcotest.(check bool) "status mentions requests" true
            (String.length s > 0)
      | Error m -> Alcotest.fail m);
      (* parse errors are typed *)
      (match Client.query c "SELEKT nope;" with
      | Ok (Protocol.Error (Protocol.Parse, _)) -> ()
      | _ -> Alcotest.fail "parse errors must carry the Parse code");
      match Client.quit c with
      | Ok () -> ()
      | Error m -> Alcotest.fail m)

(* Retry a transactional batch until it commits: concurrency errors
   (would block / deadlock victim) roll back and retry. *)
let rec txn_retry c stmts tries =
  if tries = 0 then Alcotest.fail "transaction never committed"
  else
    let ok = ref true in
    List.iter
      (fun sql ->
        if !ok then
          match Client.query c sql with
          | Ok (Protocol.Error _) -> ok := false
          | Ok _ -> ()
          | Error m -> Alcotest.fail ("transport died mid-txn: " ^ m))
      stmts;
    if not !ok then begin
      (match Client.query c "ROLLBACK;" with _ -> ());
      Thread.delay 0.002;
      txn_retry c stmts (tries - 1)
    end

let test_e2e_concurrent_clients () =
  with_server (fun srv ->
      let setup = connect srv in
      ignore (expect_ok setup "CREATE TABLE KV (K int PRIMARY KEY, V int);");
      let n_clients = 8 and per_client = 6 in
      let worker c_idx () =
        let c = connect srv in
        for i = 0 to per_client - 1 do
          let k = (c_idx * 1000) + i in
          let v = k + 7 in
          (* two transactions: the interpreter's deferred-update txns
             resolve UPDATE targets against committed state, so the
             INSERT must commit before the UPDATE can see it *)
          txn_retry c
            [
              "BEGIN;";
              Printf.sprintf "INSERT INTO KV VALUES (%d, 0);" k;
              "COMMIT;";
            ]
            200;
          txn_retry c
            [
              "BEGIN;";
              Printf.sprintf "UPDATE KV SET V = %d WHERE K = %d;" v k;
              "COMMIT;";
            ]
            200
        done;
        ignore (Client.quit c)
      in
      let threads =
        List.init n_clients (fun i -> Thread.create (worker i) ())
      in
      List.iter Thread.join threads;
      (* serial reference: same statements, one local session *)
      let ref_db = Mmdb_core.Db.create () in
      let ref_sess = Mmdb_lang.Interp.session ref_db in
      let ref_exec sql =
        match Mmdb_lang.Interp.exec_string ref_sess sql with
        | Ok _ -> ()
        | Error m -> Alcotest.fail ("reference exec failed: " ^ m)
      in
      ref_exec "CREATE TABLE KV (K int PRIMARY KEY, V int);";
      for c_idx = 0 to n_clients - 1 do
        for i = 0 to per_client - 1 do
          let k = (c_idx * 1000) + i in
          ref_exec (Printf.sprintf "INSERT INTO KV VALUES (%d, 0);" k);
          ref_exec
            (Printf.sprintf "UPDATE KV SET V = %d WHERE K = %d;" (k + 7) k)
        done
      done;
      let reference =
        match Mmdb_lang.Interp.exec ref_sess
                (List.hd
                   (Result.get_ok (Mmdb_lang.Parser.parse "SELECT K, V FROM KV;")))
        with
        | Ok (Mmdb_lang.Interp.Rows tl) -> Temp_list.materialize tl
        | _ -> Alcotest.fail "reference select failed"
      in
      let server_rows = rows_of (expect_ok setup "SELECT K, V FROM KV;") in
      Alcotest.(check int)
        "row count matches serial reference"
        (n_clients * per_client)
        (List.length server_rows);
      Alcotest.(check bool)
        "committed state equals the serial reference" true
        (sorted server_rows = sorted reference);
      (* all transactions finished: no lock survives *)
      Alcotest.(check int) "no locks leak" 0
        (Mmdb_txn.Lock_manager.active_locks
           (Mmdb_txn.Txn.lock_manager (Server.manager srv)));
      ignore (Client.quit setup))

let wait_until ?(timeout = 5.0) pred =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    if pred () then true
    else if Unix.gettimeofday () > deadline then false
    else begin
      Thread.delay 0.01;
      go ()
    end
  in
  go ()

let test_e2e_kill_mid_txn () =
  with_server (fun srv ->
      let setup = connect srv in
      ignore (expect_ok setup "CREATE TABLE KV (K int PRIMARY KEY, V int);");
      ignore (expect_ok setup "INSERT INTO KV VALUES (1, 10);");
      let doomed = connect srv in
      ignore (expect_ok doomed "BEGIN;");
      ignore (expect_ok doomed "INSERT INTO KV VALUES (99, 0);");
      ignore (expect_ok doomed "UPDATE KV SET V = 11 WHERE K = 1;");
      let before = Server.active_sessions srv in
      (* hang up without COMMIT — simulates a killed client *)
      Client.close doomed;
      Alcotest.(check bool) "server notices the disconnect" true
        (wait_until (fun () -> Server.active_sessions srv < before));
      (* the open transaction was rolled back: no partial effects ... *)
      let rows = rows_of (expect_ok setup "SELECT K, V FROM KV;") in
      Alcotest.(check bool) "only the committed row remains" true
        (sorted rows = [ [| Value.Int 1; Value.Int 10 |] ]);
      (* ... and no lock is left behind: a fresh writer sails through *)
      Alcotest.(check int) "no locks leak" 0
        (Mmdb_txn.Lock_manager.active_locks
           (Mmdb_txn.Txn.lock_manager (Server.manager srv)));
      txn_retry setup
        [ "BEGIN;"; "UPDATE KV SET V = 12 WHERE K = 1;"; "COMMIT;" ]
        5;
      ignore (Client.quit setup))

(* The killed client's rollback queues behind a write stalled on the
   dispatcher ([exec.stall]), so it runs well after the disconnect is
   noticed.  The session must stay in the table until that rollback has
   released its locks: a caller that sees it gone reads no leaked lock. *)
let test_e2e_kill_behind_stalled_write () =
  let fault = Fault.create ~seed:13 () in
  with_server ~config:{ test_config with Server.fault } (fun srv ->
      let setup = connect srv in
      ignore (expect_ok setup "CREATE TABLE KV (K int PRIMARY KEY, V int);");
      ignore (expect_ok setup "CREATE TABLE LOG (K int PRIMARY KEY);");
      ignore (expect_ok setup "INSERT INTO KV VALUES (1, 10);");
      let doomed = connect srv and staller = connect srv in
      ignore (expect_ok staller "SELECT K FROM LOG;");
      ignore (expect_ok doomed "BEGIN;");
      ignore (expect_ok doomed "UPDATE KV SET V = 11 WHERE K = 1;");
      let before = Server.active_sessions srv in
      Fault.arm fault ~point:"exec.stall" (Fault.Delay 0.5);
      let t_stall =
        Thread.create
          (fun () -> ignore (expect_ok staller "INSERT INTO LOG VALUES (1);"))
          ()
      in
      Alcotest.(check bool) "the write is stalled on the dispatcher" true
        (wait_until (fun () -> Fault.fired_count fault ~point:"exec.stall" > 0));
      Client.close doomed;
      Alcotest.(check bool) "server notices the disconnect" true
        (wait_until (fun () -> Server.active_sessions srv < before));
      Alcotest.(check int) "no lock outlives the closed session" 0
        (Mmdb_txn.Lock_manager.active_locks
           (Mmdb_txn.Txn.lock_manager (Server.manager srv)));
      Thread.join t_stall;
      let rows = rows_of (expect_ok setup "SELECT K, V FROM KV;") in
      Alcotest.(check bool) "the open transaction was rolled back" true
        (rows = [ [| Value.Int 1; Value.Int 10 |] ]);
      List.iter (fun c -> ignore (Client.quit c)) [ staller; setup ])

let test_e2e_robustness () =
  with_server (fun srv ->
      (* a healthy session that must survive everything below *)
      let healthy = connect srv in
      ignore (expect_ok healthy "CREATE TABLE KV (K int PRIMARY KEY, V int);");
      let g = connect srv in
      (match Client.request g (Protocol.Query "SELECT * FROM KV;") with
      | Ok _ -> ()
      | Error m -> Alcotest.fail m);
      (* speak raw bytes at the socket level via a second connection *)
      let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect sock
        (Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port srv));
      (* greeting *)
      (match Protocol.read_frame sock with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "no greeting");
      (* valid length, unknown tag: one Proto error, connection lives *)
      ignore (Unix.write_substring sock "\x00\x00\x00\x03\x7fxy" 0 7);
      (match Protocol.read_frame ~max_frame:Protocol.max_response_frame sock with
      | Ok payload -> (
          match Protocol.decode_response payload with
          | Ok (Protocol.Error (Protocol.Proto, _)) -> ()
          | _ -> Alcotest.fail "garbage tag must earn a Proto error")
      | Error _ -> Alcotest.fail "server must answer garbage, not die");
      (* same connection still usable *)
      ignore
        (Unix.write_substring sock
           (Protocol.encode_request Protocol.Ping)
           0
           (String.length (Protocol.encode_request Protocol.Ping)));
      (match Protocol.read_frame ~max_frame:Protocol.max_response_frame sock with
      | Ok payload -> (
          match Protocol.decode_response payload with
          | Ok Protocol.Pong -> ()
          | _ -> Alcotest.fail "ping after garbage must still pong")
      | Error _ -> Alcotest.fail "connection must survive a bad request");
      (* oversized announcement: Proto error, then the server hangs up *)
      let huge = Bytes.create 4 in
      Bytes.set_int32_be huge 0 0x7f000000l;
      ignore (Unix.write sock huge 0 4);
      (match Protocol.read_frame ~max_frame:Protocol.max_response_frame sock with
      | Ok payload -> (
          match Protocol.decode_response payload with
          | Ok (Protocol.Error (Protocol.Proto, _)) -> ()
          | _ -> Alcotest.fail "oversized frame must earn a Proto error")
      | Error _ -> Alcotest.fail "oversized frame must be answered");
      (match Protocol.read_frame sock with
      | Error `Eof -> ()
      | _ -> Alcotest.fail "server must drop the connection after oversize");
      Unix.close sock;
      (* mid-frame disconnect: announce 10 bytes, send 2, vanish *)
      let sock2 = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect sock2
        (Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port srv));
      (match Protocol.read_frame sock2 with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "no greeting");
      ignore (Unix.write_substring sock2 "\x00\x00\x00\x0aQx" 0 6);
      Unix.close sock2;
      (* the victims disconnect; the healthy session never noticed *)
      Alcotest.(check bool) "victims reaped" true
        (wait_until (fun () -> Server.active_sessions srv <= 2));
      ignore (expect_ok healthy "INSERT INTO KV VALUES (5, 50);");
      let rows = rows_of (expect_ok healthy "SELECT K FROM KV;") in
      Alcotest.(check int) "healthy session unaffected" 1 (List.length rows);
      ignore (Client.quit g);
      ignore (Client.quit healthy))

let test_e2e_admission_busy () =
  with_server
    ~config:{ test_config with Server.max_connections = 1 }
    (fun srv ->
      let first = connect srv in
      (match
         Client.connect ~host:"127.0.0.1" ~port:(Server.port srv) ()
       with
      | Error m ->
          Alcotest.(check bool) "refusal is a typed Busy" true
            (String.length m > 0
            && String.sub m 0 (min 11 (String.length m)) = "server busy")
      | Ok c ->
          Client.close c;
          Alcotest.fail "second connection must be refused");
      ignore (Client.quit first);
      (* the slot frees up once the first session is gone *)
      Alcotest.(check bool) "slot reusable after quit" true
        (wait_until (fun () ->
             match
               Client.connect ~host:"127.0.0.1" ~port:(Server.port srv) ()
             with
             | Ok c ->
                 ignore (Client.quit c);
                 true
             | Error _ -> false)))

let test_e2e_idle_reap () =
  with_server
    ~config:{ test_config with Server.idle_timeout = 0.15 }
    (fun srv ->
      let c = connect srv in
      (match Client.ping c with
      | Ok () -> ()
      | Error m -> Alcotest.fail m);
      Alcotest.(check bool) "idle session reaped" true
        (wait_until (fun () -> Server.active_sessions srv = 0));
      Alcotest.(check int) "reap counted" 1 (stat srv "connections" "idle_reaped");
      Client.close c)

(* An auto-commit statement is a one-statement transaction: it takes the
   partition lock an open transaction holds, so it is refused as a
   conflict rather than applied underneath that transaction, whose
   commit then lands intact. *)
let test_e2e_autocommit_conflict () =
  with_server (fun srv ->
      let a = connect srv and b = connect srv in
      ignore (expect_ok a "CREATE TABLE T (K int PRIMARY KEY, V int);");
      ignore (expect_ok a "INSERT INTO T VALUES (5, 50);");
      ignore (expect_ok a "BEGIN;");
      ignore (expect_ok a "UPDATE T SET V = 51 WHERE K = 5;");
      (match Client.query b "DELETE FROM T WHERE K = 5;" with
      | Ok (Protocol.Error (Protocol.Conflict, msg)) ->
          Alcotest.(check string) "lock failure" "would block" msg
      | Ok r ->
          Alcotest.fail
            (Fmt.str "auto-commit DELETE under a held lock: %a"
               Protocol.pp_response r)
      | Error m -> Alcotest.fail m);
      Alcotest.(check bool) "the row stays" true
        (rows_of (expect_ok b "SELECT K, V FROM T;")
        = [ [| Value.Int 5; Value.Int 50 |] ]);
      (match expect_ok a "COMMIT;" with
      | Protocol.Message "committed" -> ()
      | r -> Alcotest.fail (Fmt.str "commit: %a" Protocol.pp_response r));
      Alcotest.(check bool) "the update applied" true
        (rows_of (expect_ok b "SELECT K, V FROM T;")
        = [ [| Value.Int 5; Value.Int 51 |] ]);
      ignore (Client.quit a);
      ignore (Client.quit b))

(* --- read-path classification: EXPLAIN and prepared SELECTs ------------- *)

(* EXPLAIN / EXPLAIN ANALYZE of a read-only statement and EXEC_PREPARED
   of a read-only prepared statement must dispatch on the parallel-reader
   path (s_ro_jobs), not barrier behind the writer. *)
let test_e2e_read_path_classification () =
  with_server (fun srv ->
      let c = connect srv in
      ignore (expect_ok c "CREATE TABLE KV (K int PRIMARY KEY, V int);");
      ignore (expect_ok c "INSERT INTO KV VALUES (1, 10);");
      let ro_before = stat srv "requests" "read_jobs" in
      ignore (expect_ok c "EXPLAIN SELECT V FROM KV WHERE K = 1;");
      ignore (expect_ok c "EXPLAIN ANALYZE SELECT V FROM KV WHERE K = 1;");
      let id, _ =
        match Client.prepare c "SELECT V FROM KV WHERE K = ?;" with
        | Ok x -> x
        | Error m -> Alcotest.fail m
      in
      (match Client.exec_prepared c id [ Value.Int 1 ] with
      | Ok (Protocol.Results _) -> ()
      | Ok r -> Alcotest.fail (Fmt.str "unexpected: %a" Protocol.pp_response r)
      | Error m -> Alcotest.fail m);
      let ro_after = stat srv "requests" "read_jobs" in
      Alcotest.(check int) "EXPLAIN, EXPLAIN ANALYZE, EXEC_PREPARED all Read"
        (ro_before + 3) ro_after;
      (* a mutating prepared statement must not take the Read path *)
      let wid, _ =
        match Client.prepare c "UPDATE KV SET V = ? WHERE K = ?;" with
        | Ok x -> x
        | Error m -> Alcotest.fail m
      in
      (match Client.exec_prepared c wid [ Value.Int 11; Value.Int 1 ] with
      | Ok (Protocol.Results _ | Protocol.Message _) -> ()
      | Ok r -> Alcotest.fail (Fmt.str "unexpected: %a" Protocol.pp_response r)
      | Error m -> Alcotest.fail m);
      let ro_final = stat srv "requests" "read_jobs" in
      Alcotest.(check int) "prepared UPDATE stays off the Read path"
        ro_after ro_final)

(* --- observability: EXPLAIN ANALYZE on the wire, STATS, slow log --------- *)

let test_e2e_observability () =
  let module J = Mmdb_util.Json in
  let get path j =
    List.fold_left (fun acc k -> Option.bind acc (J.member k)) (Some j) path
  in
  let slow_path = Filename.temp_file "mmdb_slow" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove slow_path with _ -> ())
  @@ fun () ->
  let config =
    {
      test_config with
      Server.slow_log = Some slow_path;
      (* an artificially low threshold makes every query "slow" *)
      slow_threshold = 0.0;
    }
  in
  with_server ~config (fun srv ->
      let c = connect srv in
      ignore (expect_ok c "CREATE TABLE KV (K int PRIMARY KEY, V int);");
      for i = 1 to 20 do
        ignore
          (expect_ok c (Printf.sprintf "INSERT INTO KV VALUES (%d, %d);" i
                          (i * 10)))
      done;
      ignore (expect_ok c "SELECT K, V FROM KV WHERE V > 50;");
      (* EXPLAIN ANALYZE arrives as an ordinary result set over the wire *)
      (match expect_ok c "EXPLAIN ANALYZE SELECT K, V FROM KV WHERE V > 50;" with
      | Protocol.Results { columns; rows } ->
          Alcotest.(check (list string))
            "analyze columns"
            [
              "operator"; "time_ms"; "est_rows"; "actual_rows"; "err";
              "comparisons"; "data_moves"; "hash_calls"; "ptr_derefs";
              "detail";
            ]
            columns;
          Alcotest.(check bool) "several operator rows" true
            (List.length rows >= 3);
          (match List.rev rows with
          | last :: _ ->
              Alcotest.(check bool) "last row is the total" true
                (last.(0) = Value.Str "total")
          | [] -> Alcotest.fail "empty analyze table")
      | r ->
          Alcotest.fail
            (Fmt.str "EXPLAIN ANALYZE answered %a" Protocol.pp_response r));
      (* STATS: valid JSON carrying metrics and per-operator aggregates *)
      (match Client.stats c with
      | Error m -> Alcotest.fail ("STATS failed: " ^ m)
      | Ok payload -> (
          match J.parse payload with
          | Error e -> Alcotest.failf "STATS payload is not JSON: %s" e
          | Ok j ->
              (match Option.bind (get [ "requests"; "total" ] j) J.to_int_opt with
              | Some n -> Alcotest.(check bool) "requests counted" true (n >= 22)
              | None -> Alcotest.fail "no requests.total");
              (match Option.bind (get [ "requests"; "slow" ] j) J.to_int_opt with
              | Some n -> Alcotest.(check bool) "slow queries counted" true (n >= 1)
              | None -> Alcotest.fail "no requests.slow");
              (match
                 Option.bind (get [ "server"; "revision" ] j) J.to_string_opt
               with
              | Some rev -> Alcotest.(check bool) "revision" true (rev <> "")
              | None -> Alcotest.fail "no server.revision");
              (match
                 Option.bind (get [ "server"; "domains" ] j) J.to_int_opt
               with
              | Some d -> Alcotest.(check bool) "domain pool size" true (d >= 1)
              | None -> Alcotest.fail "no server.domains");
              (match get [ "by_kind"; "select" ] j with
              | Some (J.Obj _) -> ()
              | _ -> Alcotest.fail "no by_kind.select histogram");
              (match Option.bind (get [ "operators" ] j) J.to_list_opt with
              | Some ops ->
                  let names =
                    List.filter_map
                      (fun o ->
                        Option.bind (J.member "operator" o) J.to_string_opt)
                      ops
                  in
                  List.iter
                    (fun op ->
                      Alcotest.(check bool)
                        (op ^ " in operator aggregates")
                        true (List.mem op names))
                    [ "query"; "select" ]
              | None -> Alcotest.fail "no operators table")));
      match Client.quit c with
      | Ok () -> ()
      | Error m -> Alcotest.fail m);
  (* the server closed the sink on shutdown: every line must parse back,
     and the trace tree must be attached with the root "query" span *)
  let ic = open_in slow_path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  let lines = List.rev !lines in
  Alcotest.(check bool) "slow log non-empty" true (List.length lines >= 20);
  List.iter
    (fun line ->
      match J.parse line with
      | Error e -> Alcotest.failf "unparsable slow-log line %S: %s" line e
      | Ok j ->
          (match Option.bind (J.member "sql" j) J.to_string_opt with
          | Some _ -> ()
          | None -> Alcotest.fail "slow-log line without sql");
          (match Option.bind (J.member "elapsed_ms" j) J.to_float_opt with
          | Some ms -> Alcotest.(check bool) "elapsed >= 0" true (ms >= 0.0)
          | None -> Alcotest.fail "slow-log line without elapsed_ms");
          match Option.bind (get [ "trace"; "name" ] j) J.to_string_opt with
          | Some name -> Alcotest.(check string) "trace root" "query" name
          | None -> Alcotest.fail "slow-log line without trace tree")
    lines

(* --- client retry layer: classification and backoff --------------------- *)

let test_retry_classification () =
  let r = Client.retriable in
  let chk name exp got = Alcotest.(check bool) name exp got in
  (* always retriable, idempotent or not *)
  chk "Busy" true (r ~idempotent:false (Ok (Protocol.Busy "full")));
  chk "Overloaded" true
    (r ~idempotent:false
       (Ok (Protocol.Overloaded { retry_after_ms = 1.0; msg = "" })));
  chk "Timeout" true
    (r ~idempotent:false (Ok (Protocol.Error (Protocol.Timeout, "t"))));
  (* retriable only for idempotent requests *)
  chk "Conflict gated off" false
    (r ~idempotent:false (Ok (Protocol.Error (Protocol.Conflict, "c"))));
  chk "Conflict gated on" true
    (r ~idempotent:true (Ok (Protocol.Error (Protocol.Conflict, "c"))));
  chk "transport loss gated off" false (r ~idempotent:false (Error "reset"));
  chk "transport loss gated on" true (r ~idempotent:true (Error "reset"));
  chk "Shutdown gated off" false
    (r ~idempotent:false (Ok (Protocol.Error (Protocol.Shutdown, "s"))));
  chk "Shutdown gated on" true
    (r ~idempotent:true (Ok (Protocol.Error (Protocol.Shutdown, "s"))));
  (* terminal regardless of idempotency *)
  chk "Parse" false (r ~idempotent:true (Ok (Protocol.Error (Protocol.Parse, "p"))));
  chk "Exec" false (r ~idempotent:true (Ok (Protocol.Error (Protocol.Exec, "e"))));
  chk "Proto" false (r ~idempotent:true (Ok (Protocol.Error (Protocol.Proto, "x"))));
  chk "Quota" false (r ~idempotent:true (Ok (Protocol.Error (Protocol.Quota, "q"))));
  chk "success" false (r ~idempotent:true (Ok (Protocol.Message "ok")));
  chk "results" false
    (r ~idempotent:true (Ok (Protocol.Results { columns = []; rows = [] })))

let test_backoff_determinism () =
  let schedule seed =
    let p = Client.retry_policy ~base_delay:0.01 ~max_delay:1.0 ~seed () in
    let prev = ref 0.01 in
    List.init 32 (fun _ ->
        let d = Client.next_delay p ~prev:!prev in
        prev := d;
        d)
  in
  let a = schedule 7 and b = schedule 7 and c = schedule 8 in
  Alcotest.(check (list (float 0.0))) "same seed, same schedule" a b;
  Alcotest.(check bool) "different seed, different schedule" true (a <> c);
  List.iter
    (fun d ->
      Alcotest.(check bool) "delay within [base, cap]" true
        (d >= 0.01 && d <= 1.0))
    a;
  (* the cap really caps: growth from a huge prev saturates *)
  let p = Client.retry_policy ~base_delay:0.01 ~max_delay:0.25 ~seed:1 () in
  Alcotest.(check bool) "capped" true (Client.next_delay p ~prev:100.0 <= 0.25)

(* --- e2e: overload shedding, quotas, write deadline, chaos seams --------- *)

(* Deterministic overload: one read stalls on its reader domain (armed
   [exec.stall]), a write behind it turns the dispatcher into a barrier,
   and everything submitted after piles up in the queue — so a fresh
   read-only request must be shed with a typed [Overloaded] carrying a
   retry-after hint, and a retrying client must eventually get through. *)
let test_e2e_overload_shed () =
  let fault = Fault.create ~seed:7 () in
  (* lock-only mode: the stall/barrier/queue pile-up this test builds is
     exactly what MVCC's bypassed readers dissolve, so the deterministic
     shed scenario needs the barrier semantics *)
  let config =
    { test_config with Server.fault; shed_watermark = 1; mvcc = false }
  in
  with_server ~config (fun srv ->
      let setup = connect srv in
      ignore (expect_ok setup "CREATE TABLE KV (K int PRIMARY KEY, V int);");
      ignore (expect_ok setup "INSERT INTO KV VALUES (1, 10);");
      let stalled = connect srv
      and writer = connect srv
      and queued_c = connect srv
      and shed_c = connect srv in
      (* warm every session (interpreter creation is an executor job)
         before arming, so the stall hits the statement we choose *)
      List.iter
        (fun c -> ignore (expect_ok c "SELECT K FROM KV;"))
        [ stalled; writer; queued_c; shed_c ];
      Fault.arm fault ~point:"exec.stall" (Fault.Delay 1.5);
      let t_stall =
        Thread.create
          (fun () -> ignore (expect_ok stalled "SELECT K FROM KV;"))
          ()
      in
      Thread.delay 0.25;
      let t_write =
        Thread.create
          (fun () ->
            ignore (expect_ok writer "INSERT INTO KV VALUES (2, 20);"))
          ()
      in
      Thread.delay 0.25;
      let t_queued =
        Thread.create
          (fun () -> ignore (rows_of (expect_ok queued_c "SELECT K FROM KV;")))
          ()
      in
      Thread.delay 0.25;
      (* queue depth is now >= 1: this read must be dropped unexecuted *)
      (match Client.query shed_c "SELECT K FROM KV;" with
      | Ok (Protocol.Overloaded { retry_after_ms; msg }) ->
          Alcotest.(check bool) "retry hint present" true
            (retry_after_ms >= 25.0);
          Alcotest.(check bool) "hint names the queue" true
            (String.length msg > 0)
      | Ok r ->
          Alcotest.fail
            (Fmt.str "expected Overloaded, got %a" Protocol.pp_response r)
      | Error m -> Alcotest.fail ("transport error: " ^ m));
      (* a retrying client backs off through the overload and succeeds *)
      let slept = ref 0 in
      let policy =
        Client.retry_policy ~max_attempts:30 ~base_delay:0.15 ~max_delay:0.3
          ~seed:7
          ~sleep:(fun d ->
            incr slept;
            Thread.delay d)
          ()
      in
      (match Client.query_retry shed_c ~policy "SELECT K FROM KV;" with
      | Ok (Protocol.Results { rows; _ }) ->
          Alcotest.(check bool) "retried through the overload" true
            (List.length rows >= 1)
      | Ok r ->
          Alcotest.fail
            (Fmt.str "retry ended with %a" Protocol.pp_response r)
      | Error m -> Alcotest.fail ("retry failed: " ^ m));
      Alcotest.(check bool) "the retry loop actually backed off" true
        (!slept >= 1);
      let rs = Client.retry_stats shed_c in
      Alcotest.(check bool) "retries counted" true (rs.Client.retries >= 1);
      Thread.join t_stall;
      Thread.join t_write;
      Thread.join t_queued;
      Alcotest.(check bool) "shed requests counted" true
        (stat srv "requests" "shed" >= 2);
      (* writes are never shed: the barrier write went through *)
      let rows = rows_of (expect_ok setup "SELECT K, V FROM KV;") in
      Alcotest.(check int) "write survived the overload" 2 (List.length rows);
      List.iter
        (fun c -> ignore (Client.quit c))
        [ stalled; writer; queued_c; shed_c; setup ])

let test_e2e_quota_result_rows () =
  with_server
    ~config:{ test_config with Server.max_result_rows = 5 }
    (fun srv ->
      let c = connect srv in
      ignore (expect_ok c "CREATE TABLE KV (K int PRIMARY KEY, V int);");
      for i = 1 to 10 do
        ignore (expect_ok c (Printf.sprintf "INSERT INTO KV VALUES (%d, %d);" i i))
      done;
      (match Client.query c "SELECT K, V FROM KV;" with
      | Ok (Protocol.Error (Protocol.Quota, msg)) ->
          Alcotest.(check bool) "message names the quota" true
            (String.length msg > 0)
      | Ok r ->
          Alcotest.fail
            (Fmt.str "expected a Quota error, got %a" Protocol.pp_response r)
      | Error m -> Alcotest.fail ("transport error: " ^ m));
      (* the session survives, and under-quota queries still work *)
      let rows = rows_of (expect_ok c "SELECT K FROM KV WHERE K = 4;") in
      Alcotest.(check int) "under-quota query fine" 1 (List.length rows);
      Alcotest.(check bool) "quota kills counted" true
        (stat srv "requests" "quota_killed" >= 1);
      ignore (Client.quit c))

let test_e2e_quota_tuple_budget () =
  with_server
    ~config:{ test_config with Server.tuple_budget = 4 }
    (fun srv ->
      let c = connect srv in
      ignore (expect_ok c "CREATE TABLE KV (K int PRIMARY KEY, V int);");
      for i = 1 to 10 do
        ignore (expect_ok c (Printf.sprintf "INSERT INTO KV VALUES (%d, %d);" i i))
      done;
      (* the scan materializes >4 intermediate tuples: killed mid-flight *)
      (match Client.query c "SELECT K FROM KV WHERE V > 0;" with
      | Ok (Protocol.Error (Protocol.Quota, msg)) ->
          Alcotest.(check bool) "message mentions the budget" true
            (String.length msg > 0)
      | Ok r ->
          Alcotest.fail
            (Fmt.str "expected a Quota error, got %a" Protocol.pp_response r)
      | Error m -> Alcotest.fail ("transport error: " ^ m));
      (* a query under the budget still works on the same session *)
      let rows = rows_of (expect_ok c "SELECT K FROM KV WHERE K = 3;") in
      Alcotest.(check int) "small query fine" 1 (List.length rows);
      ignore (Client.quit c))

let test_e2e_write_deadline_cuts_slow_reader () =
  let config =
    { test_config with Server.write_timeout = 0.3; sndbuf = 4096 }
  in
  with_server ~config (fun srv ->
      let setup = connect srv in
      ignore (expect_ok setup "CREATE TABLE BIG (K int PRIMARY KEY, V string);");
      let payload = String.make 256 'x' in
      (* ~1500 rows * ~270 B comfortably overflows both socket buffers *)
      for batch = 0 to 29 do
        let b = Buffer.create 4096 in
        for i = 0 to 49 do
          Buffer.add_string b
            (Printf.sprintf "INSERT INTO BIG VALUES (%d, '%s');"
               ((batch * 50) + i) payload)
        done;
        ignore (expect_ok setup (Buffer.contents b))
      done;
      (* a raw client with a tiny receive window that never reads *)
      let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt_int sock Unix.SO_RCVBUF 4096;
      Unix.connect sock
        (Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port srv));
      (match Protocol.read_frame sock with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "no greeting");
      let req = Protocol.encode_request (Protocol.Query "SELECT K, V FROM BIG;") in
      ignore (Unix.write_substring sock req 0 (String.length req));
      (* ... so the response write must hit the deadline and cut the
         session instead of pinning the handler forever *)
      Alcotest.(check bool) "write timeout fired" true
        (wait_until ~timeout:10.0 (fun () ->
             stat srv "requests" "write_timeouts" >= 1));
      Alcotest.(check bool) "victim session torn down" true
        (wait_until (fun () -> Server.active_sessions srv <= 1));
      (* the healthy session felt nothing *)
      let rows = rows_of (expect_ok setup "SELECT K FROM BIG WHERE K = 7;") in
      Alcotest.(check int) "healthy session fine" 1 (List.length rows);
      Unix.close sock;
      ignore (Client.quit setup))

let test_e2e_reaper_spares_inflight () =
  let fault = Fault.create ~seed:11 () in
  let config = { test_config with Server.idle_timeout = 0.15; fault } in
  with_server ~config (fun srv ->
      let c = connect srv in
      ignore (expect_ok c "CREATE TABLE KV (K int PRIMARY KEY, V int);");
      ignore (expect_ok c "INSERT INTO KV VALUES (1, 10);");
      (* in flight for several idle periods: the reaper must not cut it *)
      Fault.arm fault ~point:"exec.stall" (Fault.Delay 0.6);
      let rows = rows_of (expect_ok c "SELECT K FROM KV;") in
      Alcotest.(check int) "stalled query still answered" 1 (List.length rows);
      (match Client.ping c with
      | Ok () -> ()
      | Error m -> Alcotest.fail ("session was reaped mid-request: " ^ m));
      (* once truly idle, the reaper takes it as usual *)
      Alcotest.(check bool) "idle session reaped afterwards" true
        (wait_until (fun () -> Server.active_sessions srv = 0));
      Client.close c)

let test_e2e_busy_connect_retry () =
  with_server
    ~config:{ test_config with Server.max_connections = 1 }
    (fun srv ->
      let first = connect srv in
      let slept = ref 0 in
      let policy =
        Client.retry_policy ~max_attempts:60 ~base_delay:0.05 ~max_delay:0.05
          ~seed:3
          ~sleep:(fun d ->
            incr slept;
            Thread.delay d)
          ()
      in
      let freer =
        Thread.create
          (fun () ->
            Thread.delay 0.3;
            ignore (Client.quit first))
          ()
      in
      (match
         Client.connect_retry ~policy ~host:"127.0.0.1"
           ~port:(Server.port srv) ()
       with
      | Ok c ->
          Alcotest.(check bool) "had to wait for the slot" true (!slept >= 1);
          (match Client.ping c with
          | Ok () -> ()
          | Error m -> Alcotest.fail m);
          ignore (Client.quit c)
      | Error m -> Alcotest.fail ("connect_retry never got in: " ^ m));
      Thread.join freer)

let () =
  Alcotest.run "server"
    [
      ( "protocol",
        [
          Alcotest.test_case "request roundtrip" `Quick
            test_proto_request_roundtrip;
          Alcotest.test_case "response roundtrip" `Quick
            test_proto_response_roundtrip;
          Alcotest.test_case "garbage rejected" `Quick
            test_proto_rejects_garbage;
        ] );
      ( "framing",
        [
          Alcotest.test_case "roundtrip and eof" `Quick
            test_frame_roundtrip_and_eof;
          Alcotest.test_case "oversized" `Quick test_frame_oversized;
          Alcotest.test_case "zero length and mid-frame eof" `Quick
            test_frame_zero_and_midframe;
        ] );
      ( "net-faults",
        [
          Alcotest.test_case "torn write" `Quick test_net_fault_torn_write;
          Alcotest.test_case "write reset" `Quick test_net_fault_write_reset;
          Alcotest.test_case "read reset and stall" `Quick
            test_net_fault_read_reset_and_stall;
          Alcotest.test_case "slowloris and delayed write" `Quick
            test_net_fault_slowloris_and_delay;
          Alcotest.test_case "write deadline" `Quick test_write_deadline;
        ] );
      ( "retry",
        [
          Alcotest.test_case "classification" `Quick test_retry_classification;
          Alcotest.test_case "deterministic backoff" `Quick
            test_backoff_determinism;
        ] );
      ( "exec-queue",
        [
          Alcotest.test_case "serial execution" `Quick test_exec_queue_basics;
          Alcotest.test_case "timeout and abandon" `Quick
            test_exec_queue_timeout_and_abandon;
        ] );
      ( "e2e",
        [
          Alcotest.test_case "basic session" `Quick test_e2e_basic;
          Alcotest.test_case "8 concurrent clients vs serial reference" `Quick
            test_e2e_concurrent_clients;
          Alcotest.test_case "killed client mid-transaction" `Quick
            test_e2e_kill_mid_txn;
          Alcotest.test_case "killed client behind a stalled write" `Quick
            test_e2e_kill_behind_stalled_write;
          Alcotest.test_case "robustness against malformed input" `Quick
            test_e2e_robustness;
          Alcotest.test_case "admission control" `Quick
            test_e2e_admission_busy;
          Alcotest.test_case "idle reaping" `Quick test_e2e_idle_reap;
          Alcotest.test_case "auto-commit DML conflicts with a held lock"
            `Quick test_e2e_autocommit_conflict;
          Alcotest.test_case "read-path classification edges" `Quick
            test_e2e_read_path_classification;
          Alcotest.test_case "observability: analyze, stats, slow log" `Quick
            test_e2e_observability;
          Alcotest.test_case "overload shedding and retry-through" `Quick
            test_e2e_overload_shed;
          Alcotest.test_case "result-row quota" `Quick
            test_e2e_quota_result_rows;
          Alcotest.test_case "intermediate-tuple budget" `Quick
            test_e2e_quota_tuple_budget;
          Alcotest.test_case "write deadline cuts a stalled reader" `Quick
            test_e2e_write_deadline_cuts_slow_reader;
          Alcotest.test_case "reaper spares an in-flight request" `Quick
            test_e2e_reaper_spares_inflight;
          Alcotest.test_case "admission busy with connect_retry" `Quick
            test_e2e_busy_connect_retry;
        ] );
    ]
