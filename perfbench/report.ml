(* Metric definitions, summary statistics, and the result line the
   benchmark prints last. *)

(* Linear-interpolated percentile, [p] in [0, 100]; 0. on no samples. *)
let percentile xs p =
  match List.sort compare xs with
  | [] -> 0.0
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      let r = p /. 100.0 *. float_of_int (n - 1) in
      let i = int_of_float r in
      if i >= n - 1 then a.(n - 1)
      else a.(i) +. ((r -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = percentile xs 50.0

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* The mean of the middle half: the sorted values without the lowest and
   the highest quarter.  Steadier than the median when the values fall
   into two clusters, and not moved by a single outlier. *)
let iq_mean xs =
  let n = List.length xs in
  let cut = n / 4 in
  mean (List.filteri (fun i _ -> i >= cut && i < n - cut) (List.sort compare xs))

(* One human-readable report line. *)
let line fmt = Printf.printf ("  " ^^ fmt ^^ "\n%!")

(* --- the listed metrics: BENCHMARK.json names the same ones ------------- *)

let end_to_end =
  [
    ("setup_s", "s");
    ("ops_per_s", "1/s");
    ("p50_ms", "ms");
    ("p99_ms", "ms");
    ("peak_rss_mb", "MB");
  ]

let kernel_kinds = List.map Kernels.kind_name Kernels.kinds

let counter_fields = [ "comparisons"; "ptr_derefs"; "hash_calls"; "data_moves" ]

let per_layer =
  [
    ("server.exec_mean_ms", "ms");
    ("server.residual_ms", "ms");
    ("server.stmt_cache_hit_ratio", "ratio");
    ("protocol.decode_us", "us");
    ("protocol.encode_us", "us");
    ("protocol.reply_bytes", "bytes");
    ("lang.parse_us", "us");
    ("lang.exec_us", "us");
    ("optimizer.plan_us", "us");
    ("executor.execute_ms", "ms");
  ]
  @ List.map (fun k -> ("executor." ^ k ^ "_ms", "ms")) kernel_kinds
  @ [
      ("aggregate.group_ms", "ms");
      ("join.role_reversals", "count");
      ("join.repartitions", "count");
    ]
  @ List.concat_map
      (fun k ->
        List.map
          (fun f -> (Printf.sprintf "core.%s.%s" k f, "count/row"))
          counter_fields)
      kernel_kinds
  @ [
      ("relation.lookup_us", "us");
      ("relation.snapshot_lookup_us", "us");
      ("version_store.snapshot_acquire_us", "us");
      ("relation.insert_us", "us");
      ("relation.delete_us", "us");
      ("version_store.gc_ms", "ms");
      ("version_store.max_chain", "count");
      ("version_store.versions_reclaimed", "count");
      ("batch.rows_per_batch", "rows");
      ("index.lookup_comparisons", "count");
      ("txn.commit_us", "us");
      ("txn.log_records_per_commit", "count");
      ("qsort.ns_per_key", "ns");
      ("attribution.snapshot_share", "ratio");
      ("attribution.execute_share", "ratio");
      ("trace.overhead_pct", "%");
    ]

let valid_name s =
  let n = String.length s in
  n > 0 && n <= 64
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true | _ -> false)
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       s

let valid_unit u =
  let n = String.length u in
  n > 0 && n <= 16
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '/' | '%' | '.' | '-' ->
             true
         | _ -> false)
       u

(* A number as JSON, with all its digits. *)
let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_metrics ~spec values =
  List.iter
    (fun (name, unit_) ->
      match List.assoc_opt name values with
      | Some v -> line "%-36s %18.6f %s" name v unit_
      | None -> ())
    spec

(* The result object: [values] must cover [spec] exactly. *)
let result_line ~spec ~correct ~attempted ~failed values =
  List.iter
    (fun (n, _) ->
      if not (List.mem_assoc n spec) then invalid_arg ("unlisted metric " ^ n))
    values;
  let body =
    List.map
      (fun (name, unit_) ->
        match List.assoc_opt name values with
        | None -> invalid_arg ("missing metric " ^ name)
        | Some v ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name
              (json_number v) unit_)
      spec
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " body)
