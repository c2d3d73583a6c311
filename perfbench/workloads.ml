(* The three workloads, each as an untraced run (the end-to-end metrics)
   and a traced run (the per-layer metrics).  NOTES.md records why each
   workload exists and which end-to-end metric each layer figure should
   move. *)

open Mmdb_core

let now = Spans.now

type outcome = { metrics : (string * float) list; attempted : int; failed : int }

let scaled scale n = max 1 (int_of_float (Float.round (float_of_int n *. scale)))

(* Set-up runs this many times per round; setup_s is the mean. *)
let setups = 3

(* kv: requests before the measured window; and the measured request
   after which the server's VmHWM is read, a fixed point of the request
   stream so that the figure does not grow with throughput. *)
let warmup_ops = 100
let rss_ops = 200

(* Seconds of served point reads in the traced olap run. *)
let probe_seconds = 2.0

let ms xs = Report.median xs *. 1e3
let us xs = Report.median xs *. 1e6

(* The traced run's window is cut into this many sub-windows, plain and
   traced in the order P T T P P T T ..., so that drift over the window
   falls on both alike.  [run ~traced ~until] measures one; returns
   (traced, its result, its wall time) per sub-window. *)
let sub_windows = 10

let alternate ~seconds run =
  let sub = seconds /. float_of_int sub_windows in
  List.init sub_windows (fun i ->
      let traced = (i + 1) / 2 mod 2 = 1 in
      let t0 = now () in
      let r = run ~traced ~until:(t0 +. sub) in
      (traced, r, now () -. t0))

(* The results and total wall time of the traced or the plain
   sub-windows. *)
let part ~traced subs =
  List.fold_left
    (fun (rs, t) (tr, r, dt) -> if tr = traced then (rs @ r, t +. dt) else (rs, t))
    ([], 0.0) subs

(* Set up [setups] times and keep the last, releasing the others with
   [teardown]; returns it with the mean set-up time. *)
let repeated_setup ~setup ~teardown =
  let rec go i times =
    Gc.full_major ();
    let t0 = now () in
    let v = setup () in
    let times = (now () -. t0) :: times in
    if i >= setups then begin
      Report.line "set-up times: %s s"
        (String.concat " " (List.rev_map (Printf.sprintf "%.4f") times));
      (v, Report.mean times)
    end
    else begin
      teardown v;
      go (i + 1) times
    end
  in
  go 1 []

(* --- kv-read, kv-mixed --------------------------------------------------------- *)

let kv_table rows =
  { Served.name = "KV"; vcol = "V"; value_of = Gen.kv_value; rows }

(* Preload in process, fork the server over that state, and wait until a
   first read round-trips. *)
let kv_setup ~rows () =
  let db = Gen.kv_db ~rows in
  let pid, port = Served.fork_server db in
  match Served.prime port "SELECT V FROM KV WHERE K = 0;" with
  | Ok () -> (db, pid, port)
  | Error m ->
      Served.stop_server pid;
      failwith ("server: " ^ m)

let warmup ~port ~conns st =
  Served.run_window ~max_ops:warmup_ops ~port ~conns ~from:infinity
    ~until:(now () +. 60.0) st

let lat_ms samples = List.map (fun s -> s.Served.lat *. 1e3) samples

let kv_e2e ~mixed ~seed ~seconds ~scale =
  let rows = scaled scale Gen.kv_rows in
  let (_, pid, port), setup_s =
    repeated_setup ~setup:(kv_setup ~rows) ~teardown:(fun (_, pid, _) ->
        Served.stop_server pid)
  in
  Fun.protect ~finally:(fun () -> Served.stop_server pid) @@ fun () ->
  let st = Served.stream ~seed ~mixed (kv_table rows) in
  let conns = Served.connections () in
  let warm = warmup ~port ~conns st in
  let read_rss () = Served.vm_hwm_mb (string_of_int pid) in
  let rss = ref None in
  let from = now () in
  let window =
    Served.run_window
      ~at_count:(rss_ops, fun () -> rss := Some (read_rss ()))
      ~port ~conns ~from ~until:(from +. seconds) st
  in
  let peak_rss_mb =
    match !rss with
    | Some v -> v
    | None ->
        Report.line "note: under %d measured requests; VmHWM read at the end" rss_ops;
        read_rss ()
  in
  Served.report ~stats:(Served.server_stats port) window;
  Report.line "p50_ms and p99_ms over %d measured requests" (List.length window);
  let last =
    List.fold_left (fun m s -> Float.max m (s.Served.t0 +. s.Served.lat)) from window
  in
  let lats = lat_ms window in
  let all = warm @ window in
  {
    metrics =
      [
        ("setup_s", setup_s);
        ("ops_per_s", float_of_int (List.length window) /. Float.max 1e-9 (last -. from));
        ("p50_ms", Report.percentile lats 50.0);
        ("p99_ms", Report.percentile lats 99.0);
        ("peak_rss_mb", peak_rss_mb);
      ];
    attempted = List.length all;
    failed = Served.failures all;
  }

let kv_traced ~mixed ~seed ~seconds ~scale tr =
  let rows = scaled scale Gen.kv_rows in
  let db, pid, port = kv_setup ~rows () in
  let st = Served.stream ~seed ~mixed (kv_table rows) in
  let conns = Served.connections () in
  let tc = Served.tracing tr in
  let warm, subs, before, after =
    Fun.protect ~finally:(fun () -> Served.stop_server pid) @@ fun () ->
    let warm = warmup ~port ~conns st in
    let before = Served.server_stats port in
    let subs =
      alternate ~seconds (fun ~traced ~until ->
          let tracing = if traced then Some tc else None in
          Served.run_window ?tracing ~port ~conns ~from:(now ()) ~until st)
    in
    let after = Served.server_stats port in
    (warm, subs, before, after)
  in
  let plain, plain_s = part ~traced:false subs in
  let traced, traced_s = part ~traced:true subs in
  let window = plain @ traced in
  Served.report ~stats:after window;
  (* The server is gone: from here on this process may spawn domains.
     The §3.1 counts come first, on the state as preloaded, so that they
     depend on the seed alone. *)
  Gen.add_dim db ~name:"KD" ~rows;
  let counts = Probes.kernel_counts db Kernels.kv ~c:(Gen.kv_value (rows - 1)) in
  let lo, hi, r_attempted, r_failed = Probes.replay_kv tr db st ~budget:2.0 in
  let c = Gen.kv_value (hi - 1) in
  let e0 = Probes.engine () in
  Probes.kernel_runs tr db Kernels.kv ~c ~cycles:3;
  let e1 = Probes.engine () in
  let storage =
    Probes.storage tr
      {
        Probes.db;
        rel = Db.find_exn db "KV";
        value_of = Gen.kv_value;
        lo;
        hi;
        fresh = 100_000_000;
      }
      ~seed
  in
  let qsort_ns, kernel, sorted = Probes.qsort_ns_per_key ~n:rows ~seed in
  Report.line "qsort kernel at %d keys: %s" rows kernel;
  let read_lat =
    List.filter_map
      (fun s -> if s.Served.kind = Served.Read then Some s.Served.lat else None)
      plain
  in
  let parse_us = us (Spans.durations ~parent:"replay.op" tr "lang.parse") in
  let plan_us = us (Spans.durations ~parent:"replay.op" tr "optimizer.plan") in
  let exec_ms = ms (Spans.durations ~parent:"replay.op" tr "executor.execute") in
  let snapshot_us = List.assoc "relation.snapshot_lookup_us" storage.Probes.figures in
  let read_p50_us = Report.median read_lat *. 1e6 in
  Report.line
    "attribution: one snapshot lookup (relation.snapshot_lookup_us %.0f us) is %.0f%% of the client read p50 (%.0f us)"
    snapshot_us (100.0 *. snapshot_us /. read_p50_us) read_p50_us;
  let rate l secs = float_of_int (List.length l) /. secs in
  {
    metrics =
      Served.layer tc ~before ~after window
      @ [
          ("lang.parse_us", parse_us);
          ("lang.exec_us", us (Spans.durations tr "lang.exec"));
          ("optimizer.plan_us", plan_us);
          ("executor.execute_ms", exec_ms);
        ]
      @ Probes.kernel_times tr @ Probes.engine_delta e0 e1 @ counts
      @ storage.Probes.figures
      @ [
          ("version_store.max_chain", float_of_int after.Served.max_chain);
          ( "version_store.versions_reclaimed",
            float_of_int (after.Served.reclaimed - before.Served.reclaimed) );
          ("qsort.ns_per_key", qsort_ns);
          ("attribution.snapshot_share", snapshot_us /. read_p50_us);
          ( "attribution.execute_share",
            exec_ms *. 1e3 /. ((exec_ms *. 1e3) +. plan_us +. parse_us) );
          ( "trace.overhead_pct",
            100.0 *. ((rate plain plain_s /. rate traced traced_s) -. 1.0) );
        ];
    attempted =
      List.length warm + List.length window + r_attempted + storage.Probes.s_attempted
      + 1;
    failed =
      Served.failures (warm @ window) + r_failed + storage.Probes.s_failed
      + if sorted then 0 else 1;
  }

(* --- olap ------------------------------------------------------------------------ *)

let olap_setup ~seed ~scale () =
  let d =
    Gen.olap_data ~seed ~n_fact:(scaled scale Gen.fact_rows)
      ~n_dim:(scaled scale Gen.dim_rows)
  in
  (d, Gen.olap_db d)

(* The scan_select constant of a cycle: the groups in turn. *)
let group_of ~seed cycle =
  (((seed + (cycle * 37)) mod Gen.groups) + Gen.groups) mod Gen.groups

(* Whole cycles of the five kernel kinds, one query at a time, until
   [until] (at least one cycle).  Each sample is (kind, seconds, ok);
   the check runs outside the timed call. *)
let run_cycles ?tr ~seed db d ~until =
  let samples = ref [] in
  let cycle = ref 0 in
  while !cycle = 0 || now () < until do
    let c = group_of ~seed !cycle in
    List.iter
      (fun kind ->
        let t0 = now () in
        let out =
          match tr with
          | None -> Kernels.run db Kernels.olap kind ~c
          | Some tr ->
              let req = Spans.next_req tr in
              Spans.with_span tr ~req ("query." ^ Kernels.kind_name kind)
                (fun parent -> Kernels.run ~tr ~parent ~req db Kernels.olap kind ~c)
        in
        let lat = now () -. t0 in
        samples := (kind, lat, Kernels.check d kind ~c out) :: !samples)
      Kernels.kinds;
    incr cycle
  done;
  List.rev !samples

(* Query time of each whole cycle, in seconds. *)
let cycle_times samples =
  let n = List.length Kernels.kinds in
  let rec go acc cur i = function
    | [] -> List.rev acc
    | (_, lat, _) :: rest ->
        let cur = cur +. lat in
        if i + 1 = n then go (cur :: acc) 0.0 0 rest else go acc cur (i + 1) rest
  in
  go [] 0.0 0 samples

let olap_failures samples =
  List.length (List.filter (fun (_, _, ok) -> not ok) samples)

let olap_e2e ~seed ~seconds ~scale =
  let (d, db), setup_s =
    repeated_setup ~setup:(olap_setup ~seed ~scale) ~teardown:ignore
  in
  let warm = run_cycles ~seed db d ~until:0.0 in
  let samples = run_cycles ~seed db d ~until:(now () +. seconds) in
  List.iter
    (fun kind ->
      let l =
        List.filter_map (fun (k, lat, _) -> if k = kind then Some lat else None) samples
      in
      Report.line "%s_ms %.3f ms  (median of %d)" (Kernels.kind_name kind) (ms l)
        (List.length l))
    Kernels.kinds;
  (* one olap operation is one cycle of the five queries *)
  let cycles = cycle_times samples in
  let lats = List.map (fun l -> l *. 1e3) cycles in
  Report.line "p50_ms and p99_ms over %d measured cycles" (List.length cycles);
  {
    metrics =
      [
        ("setup_s", setup_s);
        ( "ops_per_s",
          float_of_int (List.length cycles) /. List.fold_left ( +. ) 0.0 cycles );
        ("p50_ms", Report.percentile lats 50.0);
        ("p99_ms", Report.percentile lats 99.0);
        ("peak_rss_mb", Served.vm_hwm_mb "self");
      ];
    attempted = List.length warm + List.length samples;
    failed = olap_failures warm + olap_failures samples;
  }

let olap_traced ~seed ~seconds ~scale tr =
  let d, db = olap_setup ~seed ~scale () in
  let tc = Served.tracing tr in
  (* The server layer on this workload's data: point reads of B through
     a forked server, before this process spawns any domain. *)
  let pid, port = Served.fork_server db in
  let probe_all, probe, before, after =
    Fun.protect ~finally:(fun () -> Served.stop_server pid) @@ fun () ->
    (match Served.prime port "SELECT W FROM B WHERE K = 0;" with
    | Ok () -> ()
    | Error m -> failwith ("server: " ^ m));
    let st =
      Served.stream ~seed ~mixed:false
        { Served.name = "B"; vcol = "W"; value_of = Gen.dim_w; rows = d.Gen.n_dim }
    in
    let conns = Served.connections () in
    let warm =
      Served.run_window ~max_ops:(warmup_ops / 4) ~port ~conns ~from:infinity
        ~until:(now () +. 60.0) st
    in
    let before = Served.server_stats port in
    let f = now () in
    let probe =
      Served.run_window ~tracing:tc ~port ~conns ~from:f
        ~until:(f +. Float.min probe_seconds seconds) st
    in
    let after = Served.server_stats port in
    Served.report ~stats:after probe;
    (warm @ probe, probe, before, after)
  in
  (* The §3.1 counts come first, before any other query of this process
     feeds the planner's cardinality feedback, so that they depend on the
     seed alone. *)
  let c = group_of ~seed 0 in
  let counts = Probes.kernel_counts db Kernels.olap ~c in
  let warm = run_cycles ~seed db d ~until:0.0 in
  let e0 = Probes.engine () in
  let subs =
    alternate ~seconds (fun ~traced ~until ->
        run_cycles ?tr:(if traced then Some tr else None) ~seed db d ~until)
  in
  let e1 = Probes.engine () in
  let plain, _ = part ~traced:false subs in
  let traced, _ = part ~traced:true subs in
  let interp_failed = Probes.interp_cycle tr db d ~c in
  Probes.parse_texts tr
    (List.concat
       (List.init 20 (fun _ ->
            List.map (fun k -> Kernels.sql Kernels.olap k ~c) Kernels.kinds)));
  let storage =
    Probes.storage tr
      {
        Probes.db;
        rel = Db.find_exn db "B";
        value_of = Gen.dim_w;
        lo = 0;
        hi = d.Gen.n_dim;
        fresh = 100_000_000;
      }
      ~seed
  in
  let qsort_ns, kernel, sorted = Probes.qsort_ns_per_key ~n:d.Gen.n_fact ~seed in
  Report.line "qsort kernel at %d keys: %s" d.Gen.n_fact kernel;
  let read_lat = List.map (fun s -> s.Served.lat) probe in
  let parse_us = us (Spans.durations ~parent:"replay.op" tr "lang.parse") in
  let plan_us = us (Spans.durations tr "optimizer.plan") in
  let exec_ms = ms (Spans.durations tr "executor.execute") in
  let execute_share = exec_ms *. 1e3 /. ((exec_ms *. 1e3) +. plan_us +. parse_us) in
  Report.line
    "attribution: executor.execute is %.2f%% of parse + plan + execute per query (plan %.0f us, parse %.0f us, execute %.1f ms)"
    (100.0 *. execute_share) plan_us parse_us exec_ms;
  let snapshot_us = List.assoc "relation.snapshot_lookup_us" storage.Probes.figures in
  let mean_lat l = Report.mean (List.map (fun (_, x, _) -> x) l) in
  {
    metrics =
      Served.layer tc ~before ~after probe
      @ [
          ("lang.parse_us", parse_us);
          ("lang.exec_us", us (Spans.durations tr "lang.exec"));
          ("optimizer.plan_us", plan_us);
          ("executor.execute_ms", exec_ms);
        ]
      @ Probes.kernel_times tr @ Probes.engine_delta e0 e1 @ counts
      @ storage.Probes.figures
      @ [
          ("version_store.max_chain", float_of_int storage.Probes.max_chain);
          ("version_store.versions_reclaimed", float_of_int storage.Probes.reclaimed);
          ("qsort.ns_per_key", qsort_ns);
          ("attribution.snapshot_share", snapshot_us /. (Report.median read_lat *. 1e6));
          ("attribution.execute_share", execute_share);
          ("trace.overhead_pct", 100.0 *. ((mean_lat traced /. mean_lat plain) -. 1.0));
        ];
    attempted =
      List.length probe_all + List.length warm + List.length plain
      + List.length traced + List.length Kernels.kinds + storage.Probes.s_attempted + 1;
    failed =
      Served.failures probe_all + olap_failures warm + olap_failures plain
      + olap_failures traced + interp_failed + storage.Probes.s_failed
      + if sorted then 0 else 1;
  }
