(** Plan execution: turn an {!Optimizer.plan} into a temporary list.

    Pipelines follow the paper's architecture: selections produce temporary
    lists of tuple pointers; joins consume relation sides with the
    selection's predicates pushed into the outer scan; projection narrows
    the descriptor and (only when [DISTINCT] was requested) eliminates
    duplicates — "it is never needed to reduce the size of the result
    tuples, because tuples are never copied, only pointed to" (§4). *)

open Mmdb_util
open Mmdb_storage

let predicates_of plan = List.map snd plan.Optimizer.p_paths

(* A single-relation plan: run the (indexed) selection directly; the
   optimizer's cardinality estimate rides along for the feedback loop. *)
let run_select ?pool plan =
  let est_rows = plan.Optimizer.p_est_sel in
  match plan.Optimizer.p_paths with
  | [] ->
      Select.run ?pool ~est_rows plan.Optimizer.p_outer
        ~path:Select.Sequential_scan ~predicates:[]
  | (path, _) :: _ ->
      Select.run ?pool ~est_rows plan.Optimizer.p_outer ~path
        ~predicates:(predicates_of plan)

let run_join ?pool plan (choice, outer_side, inner_side) =
  let preds = predicates_of plan in
  let est_rows = plan.Optimizer.p_est_join in
  let outer_filter =
    match preds with
    | [] -> None
    | ps -> Some (fun tuple -> List.for_all (Select.matches tuple) ps)
  in
  match choice with
  | Optimizer.Algorithm m ->
      Join.run ?pool ?outer_filter ?est_rows m ~outer:outer_side
        ~inner:inner_side
  | Optimizer.Precomputed col ->
      let inner_schema = Relation.schema inner_side.Join.rel in
      let joined =
        Join.precomputed ?est_rows ~outer:plan.Optimizer.p_outer ~ref_col:col
          ~inner_schema ()
      in
      (* The precomputed join scans the whole outer; apply predicates on
         the way out when present. *)
      (match outer_filter with
      | None -> joined
      | Some f ->
          let out = Temp_list.create (Temp_list.descriptor joined) in
          Temp_list.iter joined (fun entry ->
              if f entry.(0) then Temp_list.append out entry);
          out)

(* [pool] defaults to the process-wide pool, so every caller (interp,
   server, shell) gets intra-query parallelism on large inputs without
   plumbing; MMDB_DOMAINS=1 makes that pool sequential.  Operators called
   directly (tests, benches) stay sequential unless handed a pool. *)
let execute ?pool plan =
  Trace.with_span "execute" @@ fun () ->
  let pool = match pool with Some p -> p | None -> Domain_pool.global () in
  let result =
    match plan.Optimizer.p_join with
    | None -> run_select ~pool plan
    | Some j -> run_join ~pool plan j
  in
  let result =
    match plan.Optimizer.p_project with
    | None -> result
    | Some labels ->
        if plan.Optimizer.p_distinct then
          Project.run ~pool plan.Optimizer.p_dedup_method result labels
        else Temp_list.project result labels
  in
  if plan.Optimizer.p_distinct && plan.Optimizer.p_project = None then
    Project.run ~pool plan.Optimizer.p_dedup_method result
      (Descriptor.labels (Temp_list.descriptor result))
  else result

(* One-call convenience: plan and run. *)
let query ?pool ?stats db q = execute ?pool (Optimizer.plan ?stats db q)

(* Render a result as strings, for the examples and the CLI. *)
let rows tl =
  List.map
    (fun row -> Array.to_list (Array.map Value.to_string row))
    (Temp_list.materialize tl)

let pp_result ppf tl =
  let labels = Descriptor.labels (Temp_list.descriptor tl) in
  Fmt.pf ppf "@[<v>%a@," (Fmt.list ~sep:(Fmt.any " | ") Fmt.string) labels;
  List.iter
    (fun row -> Fmt.pf ppf "%a@," (Fmt.list ~sep:(Fmt.any " | ") Fmt.string) row)
    (rows tl);
  Fmt.pf ppf "(%d rows)@]" (Temp_list.length tl)
