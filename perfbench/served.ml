(* The served side of the benchmark: a forked server process over a
   preloaded database, and a closed-loop load generator that drives it
   over at most nproc connections from this process. *)

open Mmdb_util
open Mmdb_storage
open Mmdb_net

let now = Spans.now

(* --- the server process --------------------------------------------------- *)

(* Fork a server over [db] in its default configuration (ephemeral
   port); returns (pid, port).  Must run before this process spawns a
   domain: OCaml 5 cannot fork once several domains exist. *)
let fork_server db =
  flush_all ();
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 -> (
      Unix.close rd;
      let stop = ref false in
      Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> stop := true));
      try
        let srv =
          Server.start ~config:{ Server.default_config with Server.port = 0 } db
        in
        let oc = Unix.out_channel_of_descr wr in
        output_string oc (string_of_int (Server.port srv) ^ "\n");
        flush oc;
        while not !stop do
          Thread.delay 0.05
        done;
        Server.shutdown srv;
        Unix._exit 0
      with e ->
        prerr_endline ("perfbench: server: " ^ Printexc.to_string e);
        Unix._exit 1)
  | pid ->
      Unix.close wr;
      let ic = Unix.in_channel_of_descr rd in
      let port = try int_of_string (String.trim (input_line ic)) with _ -> -1 in
      close_in ic;
      if port < 0 then begin
        ignore (Unix.waitpid [] pid);
        failwith "server did not start"
      end;
      (pid, port)

(* Graceful stop (SIGTERM), escalating to SIGKILL after 10 s; always
   reaps the child. *)
let stop_server pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = now () +. 10.0 in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
        if now () > deadline then begin
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] pid)
        end
        else begin
          Unix.sleepf 0.01;
          reap ()
        end
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
    | exception Unix.Unix_error _ -> ()
  in
  reap ()

(* VmHWM in MiB of process [pid] ("self" for this one); 0. when
   unreadable. *)
let vm_hwm_mb pid =
  try
    let ic = open_in (Printf.sprintf "/proc/%s/status" pid) in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec go () =
          let line = input_line ic in
          if String.starts_with ~prefix:"VmHWM:" line then
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
          else go ()
        in
        go ())
  with _ -> 0.0

(* Two connections, never more than nproc. *)
let connections () = max 1 (min 2 (Domain.recommended_domain_count ()))

let connect port =
  match Client.connect ~host:"127.0.0.1" ~port () with
  | Ok c -> c
  | Error m -> failwith ("connect: " ^ m)

(* One query on a fresh connection, before any concurrent load: the first
   statement forces the server's lazily created domain pool, and two
   reader domains forcing it at once fail with CamlinternalLazy.Undefined. *)
let prime port sql =
  match Client.connect ~host:"127.0.0.1" ~port () with
  | Error m -> Error m
  | Ok c ->
      let r = Client.query c sql in
      ignore (Client.quit c);
      (match r with
      | Ok (Protocol.Results _) -> Ok ()
      | Ok r -> Error (Format.asprintf "%a" Protocol.pp_response r)
      | Error m -> Error m)

(* --- the operation stream --------------------------------------------------- *)

type kind = Read | Insert | Delete

(* The table a stream works on: K the primary key, [vcol] holding
   [value_of K], preloaded with keys [0, rows). *)
type table = { name : string; vcol : string; value_of : int -> int; rows : int }

(* The operation stream of one run, drawn from the seed.  Reads pick a
   Zipf(0.99) rank, rank 0 being the newest acknowledged key.  A mixed
   stream makes 20% of its requests writes, alternating an insert of a
   fresh key with a delete of the oldest live key (Graph 2's 80/10/10),
   so the row count stays at [rows]. *)
type stream = {
  m : Mutex.t;
  rng : Rng.t;
  cdf : float array;
  tbl : table;
  mixed : bool;
  mutable insert_next : bool;
  mutable lo : int;  (* oldest live key: the next delete's target *)
  mutable next_key : int;  (* the next insert's fresh key *)
  mutable acked_hi : int;  (* every key below it was inserted and acknowledged *)
  acked : (int, unit) Hashtbl.t;  (* acknowledged inserts at or above [acked_hi] *)
  mutable issued : (kind * int) list;  (* every operation, newest first *)
}

let stream ~seed ~mixed tbl =
  {
    m = Mutex.create ();
    rng = Rng.create ~seed ();
    cdf = Gen.zipf_cdf ~n:tbl.rows ~s:0.99;
    tbl;
    mixed;
    insert_next = true;
    lo = 0;
    next_key = tbl.rows;
    acked_hi = tbl.rows;
    acked = Hashtbl.create 64;
    issued = [];
  }

let locked st f =
  Mutex.lock st.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock st.m) f

let next st =
  locked st (fun () ->
      let op =
        if st.mixed && Rng.int st.rng 10 < 2 then begin
          let ins = st.insert_next in
          st.insert_next <- not ins;
          if ins then begin
            let k = st.next_key in
            st.next_key <- k + 1;
            (Insert, k)
          end
          else begin
            let k = st.lo in
            st.lo <- k + 1;
            (Delete, k)
          end
        end
        else (Read, st.acked_hi - 1 - Gen.zipf_draw st.rng st.cdf)
      in
      st.issued <- op :: st.issued;
      op)

(* Literal SQL; a write is one BEGIN ... COMMIT request. *)
let sql st (kind, k) =
  let t = st.tbl in
  match kind with
  | Read -> Printf.sprintf "SELECT %s FROM %s WHERE K = %d;" t.vcol t.name k
  | Insert ->
      Printf.sprintf "BEGIN; INSERT INTO %s VALUES (%d, %d); COMMIT;" t.name k
        (t.value_of k)
  | Delete -> Printf.sprintf "BEGIN; DELETE FROM %s WHERE K = %d; COMMIT;" t.name k

(* The output check.  A read answers V = f(K), or no row only for a key
   whose delete was issued before the reply arrived; a write answers
   without error.  An acknowledged insert makes its key readable. *)
let check st (kind, k) (resp : (Protocol.response, string) result) =
  match (kind, resp) with
  | Read, Ok (Protocol.Results { rows = [ [| Value.Int v |] ]; _ }) ->
      v = st.tbl.value_of k
  | Read, Ok (Protocol.Results { rows = []; _ }) -> locked st (fun () -> k < st.lo)
  | Insert, Ok (Protocol.Message _) ->
      locked st (fun () ->
          Hashtbl.replace st.acked k ();
          while Hashtbl.mem st.acked st.acked_hi do
            Hashtbl.remove st.acked st.acked_hi;
            st.acked_hi <- st.acked_hi + 1
          done);
      true
  | Delete, Ok (Protocol.Message _) -> true
  | _ -> false

(* --- the closed loop ------------------------------------------------------- *)

type sample = { kind : kind; t0 : float; lat : float; ok : bool }

let failures samples = List.length (List.filter (fun s -> not s.ok) samples)

(* What a traced window adds per request: spans around the call, and a
   re-run of the wire codec on the request's own reply. *)
type tracing = { tr : Spans.t; reply_bytes : int Atomic.t; replies : int Atomic.t }

let tracing tr = { tr; reply_bytes = Atomic.make 0; replies = Atomic.make 0 }

let trace_request tc ~t0 ~t1 ~t2 resp =
  let req = Spans.next_req tc.tr in
  let root = Spans.record tc.tr ~req "request" ~t0 ~t1:t2 in
  ignore (Spans.record tc.tr ~parent:root ~req "server.call" ~t0 ~t1);
  match resp with
  | Error _ -> ()
  | Ok r ->
      let frame =
        Spans.with_span tc.tr ~req "protocol.encode" (fun _ ->
            Protocol.encode_response r)
      in
      ignore
        (Spans.with_span tc.tr ~req "protocol.decode" (fun _ ->
             Protocol.decode_response
               (String.sub frame 4 (String.length frame - 4))));
      ignore (Atomic.fetch_and_add tc.reply_bytes (String.length frame));
      Atomic.incr tc.replies

(* Each of [conns] threads owns one connection and sends its next
   request when the previous reply arrives, until [until] or until
   [max_ops] requests were issued.  Requests started at or after [from]
   are measured; [at_count] fires once, when the n-th measured request
   completes.  Returns every request's sample. *)
let run_window ?tracing ?(max_ops = max_int) ?(at_count = (max_int, ignore))
    ~port ~conns ~from ~until st =
  let issued = Atomic.make 0 and measured = Atomic.make 0 in
  let n_at, fire = at_count in
  let worker () =
    let acc = ref [] in
    (try
       let c = connect port in
       while now () < until && Atomic.fetch_and_add issued 1 < max_ops do
         let op = next st in
         let text = sql st op in
         let t0 = now () in
         let resp = Client.query c text in
         let t1 = now () in
         let ok = check st op resp in
         let t2 = now () in
         acc := { kind = fst op; t0; lat = t1 -. t0; ok } :: !acc;
         if not ok then
           Format.eprintf "perfbench: check failed: %s -> %a@." text
             (fun ppf -> function
               | Ok r -> Protocol.pp_response ppf r
               | Error m -> Format.pp_print_string ppf m)
             resp;
         if t0 >= from then begin
           if Atomic.fetch_and_add measured 1 = n_at - 1 then fire ();
           Option.iter (fun tc -> trace_request tc ~t0 ~t1 ~t2 resp) tracing
         end;
         match resp with Error m -> failwith m | Ok _ -> ()
       done;
       ignore (Client.quit c)
     with e ->
       prerr_endline ("perfbench: client: " ^ Printexc.to_string e);
       acc := { kind = Read; t0 = now (); lat = 0.0; ok = false } :: !acc);
    !acc
  in
  let results = Array.make conns [] in
  let threads =
    List.init conns (fun i -> Thread.create (fun () -> results.(i) <- worker ()) ())
  in
  List.iter Thread.join threads;
  List.concat (Array.to_list results)

(* --- server-side figures ------------------------------------------------------ *)

type server_stats = {
  lat_sum : float;  (* seconds over every request since start *)
  lat_count : float;
  cache_hits : int;
  cache_misses : int;
  reclaimed : int;
  max_chain : int;
  by_kind : (string * int * float * float) list;  (* kind, n, p50 ms, p99 ms *)
}

(* METRICS (exact latency sum and count) and STATS, on a connection of
   its own opened while no load runs. *)
let server_stats port =
  let c = connect port in
  let ok = function Ok s -> s | Error m -> failwith ("stats: " ^ m) in
  let prom = ok (Client.metrics c) in
  let js = ok (Client.stats c) in
  ignore (Client.quit c);
  let sample name =
    List.find_map
      (fun line ->
        match String.split_on_char ' ' line with
        | [ n; v ] when n = name -> float_of_string_opt v
        | _ -> None)
      (String.split_on_char '\n' prom)
    |> Option.value ~default:0.0
  in
  let j = match Json.parse js with Ok j -> j | Error m -> failwith ("stats: " ^ m) in
  let get path =
    List.fold_left (fun j k -> Option.bind j (Json.member k)) (Some j) path
  in
  let num conv o = Option.bind o conv in
  let int path = Option.value ~default:0 (num Json.to_int_opt (get path)) in
  let by_kind =
    match get [ "by_kind" ] with
    | Some (Json.Obj kinds) ->
        List.map
          (fun (kind, o) ->
            let f k = Option.value ~default:0.0 (num Json.to_float_opt (Json.member k o)) in
            ( kind,
              Option.value ~default:0 (num Json.to_int_opt (Json.member "n" o)),
              f "p50_ms",
              f "p99_ms" ))
          kinds
    | _ -> []
  in
  {
    lat_sum = sample "mmdb_request_latency_seconds_sum";
    lat_count = sample "mmdb_request_latency_seconds_count";
    cache_hits = int [ "requests"; "stmt_cache_hits" ];
    cache_misses = int [ "requests"; "stmt_cache_misses" ];
    reclaimed = int [ "mvcc"; "versions_reclaimed" ];
    max_chain = int [ "mvcc"; "max_chain" ];
    by_kind;
  }

(* The server layer over a traced window bracketed by [before]/[after]. *)
let layer tc ~before ~after samples =
  let n = after.lat_count -. before.lat_count in
  let exec_mean_ms =
    if n > 0.0 then (after.lat_sum -. before.lat_sum) /. n *. 1e3 else 0.0
  in
  let hits = after.cache_hits - before.cache_hits
  and misses = after.cache_misses - before.cache_misses in
  let us name = Report.median (Spans.durations tc.tr name) *. 1e6 in
  [
    ("server.exec_mean_ms", exec_mean_ms);
    ( "server.residual_ms",
      (Report.mean (List.map (fun s -> s.lat) samples) *. 1e3) -. exec_mean_ms );
    ( "server.stmt_cache_hit_ratio",
      if hits + misses > 0 then float_of_int hits /. float_of_int (hits + misses)
      else 0.0 );
    ("protocol.decode_us", us "protocol.decode");
    ("protocol.encode_us", us "protocol.encode");
    ( "protocol.reply_bytes",
      float_of_int (Atomic.get tc.reply_bytes)
      /. float_of_int (max 1 (Atomic.get tc.replies)) );
  ]

(* Client latency per request kind with sample counts, then the
   server's own per-kind figures (log-bucket bounds, since start). *)
let report ~stats samples =
  List.iter
    (fun (name, kinds) ->
      match
        List.filter_map
          (fun s -> if List.mem s.kind kinds then Some (s.lat *. 1e3) else None)
          samples
      with
      | [] -> ()
      | l ->
          Report.line "%s_p50_ms %.4f ms  %s_p99_ms %.4f ms  (n=%d)" name
            (Report.percentile l 50.0) name (Report.percentile l 99.0)
            (List.length l))
    [ ("read", [ Read ]); ("write", [ Insert; Delete ]) ];
  List.iter
    (fun (kind, n, p50, p99) ->
      Report.line "server.exec_ms[%s] p50 %.3f ms  p99 %.3f ms  (n=%d since start)"
        kind p50 p99 n)
    stats.by_kind
