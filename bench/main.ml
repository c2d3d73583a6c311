(* Experiment harness entry point.

   Regenerates every table and figure of Lehman & Carey (SIGMOD 1986):

     G1  Graph 1   index search vs node size
     G2  Graph 2   query mixes (80/10/10, 60/20/20, 40/30/30)
     T1  Table 1   storage factors
     G3  Graph 3   duplicate-value distributions
     G4-G9 Graphs 4-9  join tests 1-6
     G10 Graph 10  nested loops join
     Q12 §2.1      precomputed / pointer join comparison
     G11 Graph 11  projection, vary cardinality
     G12 Graph 12  projection, vary duplicates
     A1-A8          ablations (T Tree slack, hash build cost, sort cutoff,
                    pointer vs value indices, B vs B+ Tree, cost model,
                    string/int/pointer join keys, semijoin bit vectors)
     C1             concurrency under partition-level locking
     R1             recovery time: working set vs full reload
     MICRO          Bechamel per-operation estimates

   Usage:
     dune exec bench/main.exe                   # everything, paper scale
     dune exec bench/main.exe -- --scale 0.1    # quick pass
     dune exec bench/main.exe -- --only g4,g7   # a subset *)

let experiments : (string * string * (Bench_util.config -> unit)) list =
  [
    ("g1", "Graph 1: index search", Bench_index.graph1);
    ("g2", "Graph 2: query mixes", Bench_index.graph2);
    ("t1", "Table 1: storage factors", Bench_index.storage);
    ("t1r", "Table 1: measured ratings vs paper", Bench_index.table1);
    ("t2", "§3.2.2: index lifecycle (create/scan/delete)", Bench_index.lifecycle);
    ("g3", "Graph 3: duplicate distributions", Bench_join.graph3);
    ("g4", "Graph 4: join test 1", Bench_join.graph4);
    ("g5", "Graph 5: join test 2", Bench_join.graph5);
    ("g6", "Graph 6: join test 3", Bench_join.graph6);
    ("g7", "Graph 7: join test 4 (skewed dups)", Bench_join.graph7);
    ("g8", "Graph 8: join test 5 (uniform dups)", Bench_join.graph8);
    ("g9", "Graph 9: join test 6 (semijoin sel)", Bench_join.graph9);
    ("g10", "Graph 10: nested loops", Bench_join.graph10);
    ("q12", "§2.1: precomputed join", Bench_join.precomputed);
    ("g11", "Graph 11: project test 1", Bench_project.graph11);
    ("g12", "Graph 12: project test 2", Bench_project.graph12);
    ("a1", "Ablation: T Tree slack", Bench_ablation.a1);
    ("a2", "Ablation: hash build cost", Bench_ablation.a2);
    ("a3", "Ablation: sort cutoff", Bench_ablation.a3);
    ("a4", "Ablation: pointer vs value index", Bench_ablation.a4);
    ("a5", "Ablation: B Tree vs B+ Tree (footnote 3)", Bench_ablation.a5);
    ("a6", "Ablation: cost-model validation", Bench_ablation.a6);
    ("a7", "Ablation: string vs int vs pointer joins", Bench_ablation.a7);
    ("a8", "Ablation: semijoin bit-vector prefilter", Bench_ablation.a8);
    ("c1", "Concurrency: partition-level locking", Bench_concurrency.c1);
    ("parallel", "Parallel operators: speedup vs domain count",
     Bench_parallel.run);
    ("server", "Serving: throughput/latency vs concurrent clients",
     Bench_server.run);
    ("r1", "Recovery: working set vs full reload", Bench_recovery.r1);
    ("trace", "Tracing overhead: with_span disabled vs enabled",
     Bench_trace.run);
    ("f1", "Fault injection: crash-consistency torture", Bench_faults.f1);
    ("join", "Batched execution: ns/row, skew robustness",
     Bench_join.batched);
    ("replay", "Capture/replay: record, re-execute, compare",
     Bench_replay.run);
    ("advisor", "Cost-based planning + index advisor vs rule-based",
     Bench_advisor.run);
    ("micro", "Bechamel micro-benchmarks", Bench_micro.run);
    ("chaos", "Chaos: crash/recover under wire faults", Bench_chaos.run);
  ]

(* Experiments that [Unix.fork] their server and clients.  OCaml 5
   refuses a fork once the process has spawned a domain, so these run
   before every other selected experiment, whatever the list order. *)
let forking = [ "server"; "replay" ]

let usage () =
  print_endline "mmdb benchmark harness — reproduces every exhibit of the paper";
  print_endline "options:";
  print_endline "  --scale F     scale cardinalities (1.0 = paper's 30,000)";
  print_endline "  --seed N      workload seed";
  print_endline "  --repeats N   timing repetitions (median reported)";
  print_endline "  --out FILE    append machine-readable results (JSON lines)";
  print_endline "  --only a,b,c  run a subset of experiments:";
  List.iter (fun (id, descr, _) -> Printf.printf "      %-5s %s\n" id descr)
    experiments

let () =
  let scale = ref 1.0 in
  let seed = ref Bench_util.default_config.Bench_util.seed in
  let repeats = ref 1 in
  let out = ref None in
  let only = ref [] in
  let rec parse = function
    | [] -> ()
    | "--scale" :: v :: rest ->
        scale := float_of_string v;
        parse rest
    | "--out" :: v :: rest ->
        out := Some v;
        parse rest
    | "--seed" :: v :: rest ->
        seed := int_of_string v;
        parse rest
    | "--repeats" :: v :: rest ->
        repeats := int_of_string v;
        parse rest
    | "--only" :: v :: rest ->
        only := String.split_on_char ',' (String.lowercase_ascii v);
        parse rest
    | ("--help" | "-h") :: _ ->
        usage ();
        exit 0
    | arg :: _ ->
        Printf.eprintf "unknown argument %s\n" arg;
        usage ();
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  let cfg =
    { Bench_util.scale = !scale; seed = !seed; repeats = !repeats; out = !out }
  in
  let selected =
    match !only with
    | [] -> experiments
    | ids -> List.filter (fun (id, _, _) -> List.mem id ids) experiments
  in
  let selected =
    let forks, rest =
      List.partition (fun (id, _, _) -> List.mem id forking) selected
    in
    forks @ rest
  in
  if selected = [] then begin
    Printf.eprintf "no matching experiments\n";
    exit 2
  end;
  Printf.printf
    "MM-DBMS experiment harness — scale %.2f (30,000-element experiments run at %d)\n%!"
    cfg.Bench_util.scale
    (Bench_util.scaled cfg 30_000);
  let total_start = Unix.gettimeofday () in
  List.iter
    (fun (id, _, f) ->
      let start = Unix.gettimeofday () in
      f cfg;
      Printf.printf "   [%s done in %.1fs]\n%!" id (Unix.gettimeofday () -. start))
    selected;
  Printf.printf "\nAll experiments completed in %.1fs\n%!"
    (Unix.gettimeofday () -. total_start)
