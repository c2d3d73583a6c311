(* Chaos — crash/recover torture over the full serving path.

   Unlike F1 (which crashes the transaction engine at its own fault
   points), this experiment drives the *network* stack: writer clients
   issue BEGIN/INSERT/INSERT/COMMIT pairs over the wire while torn
   writes, connection resets and delayed frames are armed on the
   protocol fault points, then the server is killed mid-flight
   ([Server.crash]) and the store is brought back through
   [Recovery.recover].  Per seed it reports how many commits were
   acknowledged, how many COMMITs were left in-flight (fate unknown),
   how long recovery took — and enforces zero lost committed writes
   plus pair atomicity.  Any violation aborts the bench.

   Runs the server in-process (spawning domains); the harness runs the
   experiments that [Unix.fork] before it ([Main.forking]). *)

open Mmdb_storage
open Mmdb_net
module Fault = Mmdb_txn.Fault
module Txn = Mmdb_txn.Txn
module Recovery = Mmdb_txn.Recovery
module Db = Mmdb_core.Db
module Rng = Mmdb_util.Rng

let pair = 100_000
let n_writers = 3
let writes_per = 6

type journal = {
  jm : Mutex.t;
  acked : (int, unit) Hashtbl.t;
  commit_sent : (int, unit) Hashtbl.t;
  mutable unknown : int;
  mutable attempts : int;
  mutable read_violations : string list;
}

let journal () =
  {
    jm = Mutex.create ();
    acked = Hashtbl.create 64;
    commit_sent = Hashtbl.create 64;
    unknown = 0;
    attempts = 0;
    read_violations = [];
  }

let noting j f =
  Mutex.lock j.jm;
  Fun.protect ~finally:(fun () -> Mutex.unlock j.jm) f

let connect_quiet port = Client.connect ~host:"127.0.0.1" ~port ()

let write_pair j c k =
  let v = k + 1 in
  let step sql =
    match Client.query c sql with
    | Ok (Protocol.Error _) -> `Rejected
    | Ok _ -> `Ok
    | Error _ -> `Transport
  in
  noting j (fun () -> j.attempts <- j.attempts + 1);
  match step "BEGIN;" with
  | `Transport | `Rejected -> `Not_committed
  | `Ok -> (
      let ins k' =
        step (Printf.sprintf "INSERT INTO KV VALUES (%d, %d);" k' v)
      in
      let rollback () = ignore (Client.query c "ROLLBACK;") in
      match ins k with
      | `Transport -> `Not_committed
      | `Rejected ->
          rollback ();
          `Not_committed
      | `Ok -> (
          match ins (k + pair) with
          | `Transport -> `Not_committed
          | `Rejected ->
              rollback ();
              `Not_committed
          | `Ok -> (
              noting j (fun () -> Hashtbl.replace j.commit_sent k ());
              match step "COMMIT;" with
              | `Ok ->
                  noting j (fun () -> Hashtbl.replace j.acked k ());
                  `Committed
              | `Rejected ->
                  rollback ();
                  `Not_committed
              | `Transport ->
                  noting j (fun () -> j.unknown <- j.unknown + 1);
                  `Unknown)))

let writer j port wid () =
  let c = ref None in
  let ensure_conn () =
    match !c with
    | Some conn -> Some conn
    | None -> (
        match connect_quiet port with
        | Ok conn ->
            c := Some conn;
            Some conn
        | Error _ -> None)
  in
  let drop_conn () =
    (match !c with Some conn -> Client.close conn | None -> ());
    c := None
  in
  (try
     for i = 0 to writes_per - 1 do
       let k = (wid * 1000) + i in
       let rec attempt tries =
         if tries > 0 then
           match ensure_conn () with
           | None -> ()
           | Some conn -> (
               match write_pair j conn k with
               | `Committed | `Unknown -> ()
               | `Not_committed ->
                   (match Client.ping conn with
                   | Ok () -> ()
                   | Error _ -> drop_conn ());
                   Thread.delay 0.004;
                   attempt (tries - 1))
       in
       attempt 60
     done
   with _ -> ());
  match !c with Some conn -> Client.close conn | None -> ()

let reader j port stop () =
  match connect_quiet port with
  | Error _ -> ()
  | Ok c ->
      let policy =
        Client.retry_policy ~max_attempts:4 ~base_delay:0.005 ~max_delay:0.05
          ~seed:99 ()
      in
      (try
         while not (Atomic.get stop) do
           (match Client.query_retry c ~policy "SELECT K, V FROM KV;" with
           | Ok (Protocol.Results { rows; _ }) ->
               let keys = Hashtbl.create 32 in
               List.iter
                 (fun row ->
                   match row.(0) with
                   | Value.Int k -> Hashtbl.replace keys k ()
                   | _ -> ())
                 rows;
               Hashtbl.iter
                 (fun k () ->
                   if k < pair && not (Hashtbl.mem keys (k + pair)) then
                     noting j (fun () ->
                         j.read_violations <-
                           Printf.sprintf "read saw %d without %d" k (k + pair)
                           :: j.read_violations))
                 keys
           | Ok _ | Error _ -> Atomic.set stop true);
           Thread.delay 0.005
         done
       with _ -> ());
      Client.close c

let enforce label b = if not b then invalid_arg ("chaos: " ^ label)

(* One seed: serve under armed wire faults, crash, recover, verify. *)
let run_seed seed =
  let fault = Fault.create ~seed () in
  let rng = Rng.create ~seed ()
  and j = journal () in
  let config =
    {
      Server.default_config with
      Server.port = 0;
      request_timeout = 0.0;
      idle_timeout = 0.0;
      fault;
    }
  in
  let db = Db.create () in
  let mgr = Txn.create_manager () in
  let srv = Server.start ~config ~mgr db in
  let port = Server.port srv in
  (match connect_quiet port with
  | Error m -> invalid_arg ("chaos setup connect: " ^ m)
  | Ok c ->
      (match Client.query c "CREATE TABLE KV (K int PRIMARY KEY, V int);" with
      | Ok (Protocol.Message _) -> ()
      | _ -> invalid_arg "chaos setup: CREATE TABLE failed");
      ignore (Client.quit c));
  Fault.arm fault ~point:"net.write.reset" ~skip:(5 + Rng.int rng 40)
    Fault.Corrupt;
  Fault.arm fault ~point:"net.write.torn" ~skip:(5 + Rng.int rng 40)
    Fault.Corrupt;
  Fault.arm fault ~point:"net.read.reset" ~skip:(5 + Rng.int rng 40)
    Fault.Corrupt;
  Fault.arm fault ~point:"net.write.delay" ~skip:(Rng.int rng 10) ~count:3
    (Fault.Delay 0.002);
  let stop = Atomic.make false in
  let writers =
    List.init n_writers (fun wid -> Thread.create (writer j port wid) ())
  in
  let rd = Thread.create (reader j port stop) () in
  Thread.delay (0.10 +. (float_of_int (Rng.int rng 250) /. 1000.));
  Server.crash srv;
  Atomic.set stop true;
  List.iter Thread.join writers;
  Thread.join rd;
  let st, recover_s =
    Mmdb_util.Timing.time (fun () ->
        let st =
          Recovery.recover ~store:(Txn.store mgr) ~device:(Txn.device mgr)
            ~working_set:[ "KV" ]
        in
        Recovery.finish_background st;
        st)
  in
  let mgr2 = Recovery.manager st in
  let db2 = Db.create () in
  List.iter
    (fun name ->
      match Txn.relation mgr2 name with
      | Some rel -> ignore (Db.add db2 rel)
      | None -> ())
    (Recovery.loaded_relations st);
  let srv2 =
    Server.start ~config:{ config with Server.fault = Fault.none } ~mgr:mgr2 db2
  in
  let rows =
    match connect_quiet (Server.port srv2) with
    | Error m -> invalid_arg ("chaos post-recovery connect: " ^ m)
    | Ok c -> (
        match Client.query c "SELECT K, V FROM KV;" with
        | Ok (Protocol.Results { rows; _ }) ->
            ignore (Client.quit c);
            rows
        | _ -> invalid_arg "chaos: post-recovery SELECT failed")
  in
  Server.shutdown srv2;
  let present = Hashtbl.create 64 in
  List.iter
    (fun row ->
      match (row.(0), row.(1)) with
      | Value.Int k, Value.Int v ->
          enforce
            (Printf.sprintf "seed %d: duplicate key %d" seed k)
            (not (Hashtbl.mem present k));
          Hashtbl.replace present k ();
          let base = if k >= pair then k - pair else k in
          enforce
            (Printf.sprintf "seed %d: value of key %d damaged" seed k)
            (v = base + 1)
      | _ -> invalid_arg "chaos: non-int row after recovery")
    rows;
  let acked, sent, unknown, attempts, violations =
    noting j (fun () ->
        ( Hashtbl.fold (fun k () l -> k :: l) j.acked [],
          Hashtbl.copy j.commit_sent,
          j.unknown,
          j.attempts,
          j.read_violations ))
  in
  let lost =
    List.length
      (List.filter
         (fun k ->
           (not (Hashtbl.mem present k))
           || not (Hashtbl.mem present (k + pair)))
         acked)
  in
  enforce (Printf.sprintf "seed %d: %d committed writes lost" seed lost)
    (lost = 0);
  Hashtbl.iter
    (fun k () ->
      let base = if k >= pair then k - pair else k in
      enforce
        (Printf.sprintf "seed %d: key %d resurrected (commit never sent)" seed k)
        (Hashtbl.mem sent base);
      let other = if k >= pair then k - pair else k + pair in
      enforce
        (Printf.sprintf "seed %d: pair of %d broken after recovery" seed k)
        (Hashtbl.mem present other))
    present;
  enforce
    (Printf.sprintf "seed %d: reads saw torn pairs" seed)
    (violations = []);
  (List.length acked, attempts, unknown, lost, recover_s)

let run cfg =
  Bench_util.header
    "Chaos — crash/recover torture over the wire (serving path)";
  let n_seeds = min 20 (max 3 (Bench_util.scaled cfg 10)) in
  let rows = ref [] in
  let t_acked = ref 0 and t_attempts = ref 0 and t_unknown = ref 0 in
  let t_recover = ref 0.0 and max_recover = ref 0.0 in
  for seed = 1 to n_seeds do
    let acked, attempts, unknown, lost, recover_s = run_seed seed in
    t_acked := !t_acked + acked;
    t_attempts := !t_attempts + attempts;
    t_unknown := !t_unknown + unknown;
    t_recover := !t_recover +. recover_s;
    max_recover := Float.max !max_recover recover_s;
    rows :=
      [
        string_of_int seed;
        string_of_int attempts;
        string_of_int acked;
        string_of_int unknown;
        string_of_int lost;
        Printf.sprintf "%.4f" recover_s;
      ]
      :: !rows
  done;
  enforce "no seed committed anything — the torture degenerated"
    (!t_acked > 0);
  Bench_util.table
    ~columns:[ "seed"; "attempts"; "acked"; "unknown"; "lost"; "recover (s)" ]
    (List.rev !rows);
  Bench_util.note
    "lost must be 0 on every seed: an acknowledged COMMIT survives crash + \
     recovery; 'unknown' COMMITs (transport died mid-ack) are abandoned by \
     the client, never re-sent";
  Bench_util.emit cfg ~exp:"chaos"
    [
      ("seeds", `Int n_seeds);
      ("attempts", `Int !t_attempts);
      ("acked", `Int !t_acked);
      ("unknown", `Int !t_unknown);
      ("lost", `Int 0);
      ("mean_recover_s", `Float (!t_recover /. float_of_int n_seeds));
      ("max_recover_s", `Float !max_recover);
    ]
