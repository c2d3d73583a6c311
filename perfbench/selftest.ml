(* Self-tests of the benchmark: metric names and units, span self-time
   arithmetic on a hand-built tree, and a tiny-scale pass of every
   workload, untraced and traced, with every output check green.

     selftest PATH-TO-mmdb_bench.exe *)

open Perfbench
module Json = Mmdb_util.Json

let failures = ref 0

let check what ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" what
  end

let close a b = Float.abs (a -. b) < 1e-9

let test_names () =
  let all = Report.end_to_end @ Report.per_layer in
  List.iter
    (fun (n, u) ->
      check
        (Printf.sprintf "metric %s [%s] is well-formed" n u)
        (Report.valid_name n && Report.valid_unit u))
    all;
  check "metric names are unique"
    (List.length (List.sort_uniq compare (List.map fst all)) = List.length all);
  check "setup_s is an end-to-end metric in seconds"
    (List.assoc_opt "setup_s" Report.end_to_end = Some "s");
  check "malformed names and units are rejected"
    ((not (Report.valid_name "a b"))
    && (not (Report.valid_name ".a"))
    && (not (Report.valid_name ""))
    && not (Report.valid_unit ""))

let test_summaries () =
  check "median interpolates" (close (Report.median [ 4.0; 1.0; 2.0; 3.0 ]) 2.5);
  check "iq_mean drops the outer quarters"
    (close (Report.iq_mean [ 100.0; 1.0; 2.0; 3.0; 4.0; 5.0; 6.0; -50.0 ]) 3.5);
  check "iq_mean of few values is their mean" (close (Report.iq_mean [ 1.0; 2.0 ]) 1.5)

let test_self_time () =
  (* root [0,10]; children a [1,3] (with grandchild d [1.5,2]), b [2,5]
     overlapping a, and c [8,12] overrunning the root *)
  let tr = Spans.create () in
  let root = Spans.record tr ~req:0 "root" ~t0:0.0 ~t1:10.0 in
  let a = Spans.record tr ~parent:root ~req:0 "a" ~t0:1.0 ~t1:3.0 in
  let b = Spans.record tr ~parent:root ~req:0 "b" ~t0:2.0 ~t1:5.0 in
  let c = Spans.record tr ~parent:root ~req:0 "c" ~t0:8.0 ~t1:12.0 in
  let d = Spans.record tr ~parent:a ~req:0 "d" ~t0:1.5 ~t1:2.0 in
  let self = Spans.self_times (Spans.spans tr) in
  let s id = Hashtbl.find self id in
  check "root self time excludes the union of its clipped children"
    (close (s root) 4.0);
  check "a grandchild counts against its parent only" (close (s a) 1.5);
  check "leaves keep their whole duration"
    (close (s b) 3.0 && close (s c) 4.0 && close (s d) 0.5);
  check "durations filter on the parent's name"
    (Spans.durations ~parent:"a" tr "d" = [ 0.5 ]);
  check "self_by_name sums self time per name"
    (List.exists
       (fun (n, k, t) -> n = "root" && k = 1 && close t 4.0)
       (Spans.self_by_name tr))

let read_lines ic =
  let rec go acc =
    match input_line ic with l -> go (l :: acc) | exception End_of_file -> List.rev acc
  in
  go []

let test_workload exe ~workload ~trace =
  let what = Printf.sprintf "%s --trace %d" workload trace in
  let args =
    [|
      exe; "--workload"; workload; "--seed"; "11"; "--seconds"; "1"; "--trace";
      string_of_int trace; "--scale"; "0.02"; "--trace-dir"; ".";
    |]
  in
  let ic = Unix.open_process_args_in exe args in
  let lines = read_lines ic in
  let status = Unix.close_process_in ic in
  check (what ^ " exits 0") (status = Unix.WEXITED 0);
  let spec = if trace = 1 then Report.per_layer else Report.end_to_end in
  match List.rev lines with
  | [] -> check (what ^ " prints a result") false
  | last :: _ -> (
      match Json.parse last with
      | Error m -> check (what ^ " ends with a JSON result: " ^ m) false
      | Ok j -> (
          check (what ^ " result has exactly its four keys")
            (match j with
            | Json.Obj kv ->
                List.sort compare (List.map fst kv)
                = [ "attempted"; "correct"; "failed"; "metrics" ]
            | _ -> false);
          check (what ^ " output checks are green")
            (Json.member "correct" j = Some (Json.Bool true)
            && Json.member "failed" j = Some (Json.Int 0));
          check (what ^ " attempted something")
            (match Json.member "attempted" j with
            | Some (Json.Int n) -> n >= 1
            | _ -> false);
          match Json.member "metrics" j with
          | Some (Json.Obj ms) ->
              check (what ^ " prints every listed metric and no other")
                (List.sort compare (List.map fst ms)
                = List.sort compare (List.map fst spec));
              List.iter
                (fun (n, v) ->
                  let value = Option.bind (Json.member "value" v) Json.to_float_opt in
                  check
                    (Printf.sprintf "%s %s carries its unit and a number" what n)
                    (Report.valid_name n
                    && Json.member "unit" v
                       = Option.map (fun u -> Json.Str u) (List.assoc_opt n spec)
                    && Option.is_some value);
                  if trace = 0 then
                    check
                      (Printf.sprintf "%s end-to-end %s is positive" what n)
                      (match value with Some x -> x > 0.0 | None -> false))
                ms
          | _ -> check (what ^ " has a metrics object") false))

let () =
  let exe = if Array.length Sys.argv > 1 then Sys.argv.(1) else "mmdb_bench.exe" in
  let exe = if String.contains exe '/' then exe else Filename.concat "." exe in
  test_names ();
  test_summaries ();
  test_self_time ();
  List.iter
    (fun workload ->
      List.iter (fun trace -> test_workload exe ~workload ~trace) [ 0; 1 ])
    [ "kv-read"; "kv-mixed"; "olap" ];
  Printf.printf "perfbench selftest: %d failure(s)\n" !failures;
  exit (if !failures = 0 then 0 else 1)
