(* The repository benchmark.  Usually run through run.py:

     mmdb_bench --workload kv-read|kv-mixed|olap --seed N --seconds S
                --trace 0|1 [--scale F] [--trace-dir DIR]

   Prints a report, then as its last line one JSON object with the
   end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
   Exits 1 when an output check failed.  The system runs in its default
   configuration: the benchmark refuses to start with any MMDB_* variable
   set. *)

open Perfbench

(* An untraced run measures in this many fresh processes, one after
   another, each for its share of the window, and reports the mean of
   the middle half of each metric's values over them.  The host runs
   fast and slow for seconds at a time, so many short rounds spread over
   the run sample it better than a few long ones, and the two speeds
   make the median of a few rounds jump between them. *)
let rounds = 10

let in_rounds ~seconds measure =
  let round i =
    Report.line "round %d of %d" (i + 1) rounds;
    flush_all ();
    let rd, wr = Unix.pipe ~cloexec:true () in
    match Unix.fork () with
    | 0 ->
        Unix.close rd;
        let o =
          try Ok (measure ~seconds:(seconds /. float_of_int rounds))
          with e -> Error (Printexc.to_string e)
        in
        let oc = Unix.out_channel_of_descr wr in
        Marshal.to_channel oc (o : (Workloads.outcome, string) result) [];
        close_out oc;
        Unix._exit 0
    | pid ->
        Unix.close wr;
        let ic = Unix.in_channel_of_descr rd in
        let o =
          try (Marshal.from_channel ic : (Workloads.outcome, string) result)
          with End_of_file -> Error "the round's process died"
        in
        close_in ic;
        ignore (Unix.waitpid [] pid);
        match o with
        | Ok o ->
            Report.line "round %d: %s" (i + 1)
              (String.concat "  "
                 (List.map
                    (fun (n, v) -> Printf.sprintf "%s %.4g" n v)
                    o.Workloads.metrics));
            o
        | Error m -> failwith m
  in
  let outs = List.init rounds round in
  let sum f = List.fold_left (fun a o -> a + f o) 0 outs in
  {
    Workloads.metrics =
      List.map
        (fun (name, _) ->
          ( name,
            Report.iq_mean
              (List.map (fun o -> List.assoc name o.Workloads.metrics) outs) ))
        (List.hd outs).Workloads.metrics;
    attempted = sum (fun o -> o.Workloads.attempted);
    failed = sum (fun o -> o.Workloads.failed);
  }

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 and scale = ref 1.0 and trace_dir = ref "." in
  let usage =
    "mmdb_bench --workload kv-read|kv-mixed|olap --seed N --seconds S --trace 0|1"
  in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " kv-read, kv-mixed or olap");
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " measured seconds");
      ("--trace", Arg.Set_int trace, " 1: the traced run (per-layer metrics)");
      ("--scale", Arg.Set_float scale, " data-size factor (self-tests use small ones)");
      ("--trace-dir", Arg.Set_string trace_dir, " where the span file goes");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let knobs =
    List.filter
      (String.starts_with ~prefix:"MMDB_")
      (Array.to_list (Unix.environment ()))
  in
  if knobs <> [] then begin
    prerr_endline
      ("mmdb_bench: measures the default configuration; unset "
      ^ String.concat " " knobs);
    exit 2
  end;
  let traced = !trace = 1 in
  let seed = !seed and seconds = !seconds and scale = !scale in
  Printf.printf "perfbench %s seed=%d seconds=%g trace=%d scale=%g\n%!" !workload
    seed seconds !trace scale;
  let tr = Spans.create () in
  let o =
    match (!workload, traced) with
    | (("kv-read" | "kv-mixed") as w), false ->
        in_rounds ~seconds (Workloads.kv_e2e ~mixed:(w = "kv-mixed") ~seed ~scale)
    | (("kv-read" | "kv-mixed") as w), true ->
        Workloads.kv_traced ~mixed:(w = "kv-mixed") ~seed ~seconds ~scale tr
    | "olap", false -> in_rounds ~seconds (Workloads.olap_e2e ~seed ~scale)
    | "olap", true -> Workloads.olap_traced ~seed ~seconds ~scale tr
    | _ ->
        prerr_endline usage;
        exit 2
  in
  if traced then begin
    let path =
      Filename.concat !trace_dir
        (Printf.sprintf "trace-%s-seed%d.jsonl" !workload seed)
    in
    Spans.write_jsonl tr path;
    Report.line "spans written to %s; self time per span name:" path;
    List.iter
      (fun (name, n, self) ->
        Report.line "  %-34s %7d spans %12.3f ms" name n (self *. 1e3))
      (Spans.self_by_name tr)
  end;
  let spec = if traced then Report.per_layer else Report.end_to_end in
  Report.print_metrics ~spec o.Workloads.metrics;
  Report.line "error_frac %.6f  (%d failed of %d attempted)"
    (float_of_int o.Workloads.failed /. float_of_int (max 1 o.Workloads.attempted))
    o.Workloads.failed o.Workloads.attempted;
  print_endline
    (Report.result_line ~spec ~correct:(o.Workloads.failed = 0)
       ~attempted:o.Workloads.attempted ~failed:o.Workloads.failed
       o.Workloads.metrics);
  exit (if o.Workloads.failed = 0 then 0 else 1)
