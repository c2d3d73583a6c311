(* The five olap kernel queries, run through the embedded API
   (Optimizer, Executor, Aggregate), and their output checks. *)

open Mmdb_storage
open Mmdb_core
module Interp = Mmdb_lang.Interp

type kind = Hash_join | Sort_merge | Group_by | Distinct | Scan_select

let kinds = [ Hash_join; Sort_merge; Group_by; Distinct; Scan_select ]

let kind_name = function
  | Hash_join -> "hash_join"
  | Sort_merge -> "sort_merge"
  | Group_by -> "group_by"
  | Distinct -> "distinct"
  | Scan_select -> "scan_select"

(* The relations a kernel query runs over: [fact] joins [dim] on
   fk = dk, and groups on [grp] summing [sm]. *)
type shape = {
  fact : string;
  fk : string;
  dim : string;
  dk : string;
  grp : string;
  sm : string;
}

let olap = { fact = "A"; fk = "F"; dim = "B"; dk = "K"; grp = "G"; sm = "F" }

(* The same query shapes over the kv table and a dimension of its keys,
   for the kernel figures of the traced kv runs. *)
let kv = { fact = "KV"; fk = "K"; dim = "KD"; dk = "K"; grp = "V"; sm = "K" }

let label rel col = rel ^ "." ^ col

let query s kind ~c =
  let fact = Query.from s.fact in
  match kind with
  | Hash_join -> Query.join ~force:Join.Hash_join s.dim ~on:(s.fk, s.dk) fact
  | Sort_merge -> Query.join ~force:Join.Sort_merge s.dim ~on:(s.fk, s.dk) fact
  | Group_by -> fact
  | Distinct -> Query.distinct (Query.project [ label s.fact s.grp ] fact)
  | Scan_select -> Query.where_eq s.grp (Value.Int c) fact

(* The same query as SQL text. *)
let sql s kind ~c =
  match kind with
  | Hash_join | Sort_merge ->
      Printf.sprintf "SELECT * FROM %s JOIN %s ON %s = %s USING %s;" s.fact s.dim
        (label s.fact s.fk) (label s.dim s.dk)
        (if kind = Hash_join then "HASH" else "SORT_MERGE")
  | Group_by ->
      Printf.sprintf "SELECT %s, COUNT(*), SUM(%s) FROM %s GROUP BY %s;" s.grp s.sm
        s.fact s.grp
  | Distinct -> Printf.sprintf "SELECT DISTINCT %s FROM %s;" s.grp s.fact
  | Scan_select -> Printf.sprintf "SELECT * FROM %s WHERE %s = %d;" s.fact s.grp c

(* Plan and run one kernel query; with [tr], a span wraps each public
   call under [parent]. *)
let run ?tr ?(parent = -1) ?(req = 0) db s kind ~c : Interp.outcome =
  let span name f =
    match tr with
    | None -> f ()
    | Some tr -> Spans.with_span tr ~parent ~req name (fun _ -> f ())
  in
  let plan = span "optimizer.plan" (fun () -> Optimizer.plan db (query s kind ~c)) in
  let tl = span "executor.execute" (fun () -> Executor.execute plan) in
  match kind with
  | Group_by ->
      Interp.Table
        (span "aggregate.group" (fun () ->
             Aggregate.group tl ~by:[ label s.fact s.grp ]
               ~aggs:[ Aggregate.Count; Aggregate.Sum (label s.fact s.sm) ]))
  | Hash_join | Sort_merge | Distinct | Scan_select -> Interp.Rows tl

let rows : Interp.outcome -> int = function
  | Interp.Rows tl -> Temp_list.length tl
  | Interp.Table r -> List.length r.Aggregate.rows
  | Interp.Message _ | Interp.Plan_text _ -> 0

let int_value = function Value.Int n -> n | _ -> min_int

let field tl lbl =
  match Descriptor.field_index (Temp_list.descriptor tl) lbl with
  | Some i -> i
  | None -> invalid_arg ("no result field " ^ lbl)

let sum_field tl lbl =
  let i = field tl lbl in
  let s = ref 0 in
  Temp_list.iter tl (fun e -> s := !s + int_value (Temp_list.field_value tl e i));
  !s

(* The olap output check against the generator's own answers. *)
let check (d : Gen.olap) kind ~c (out : Interp.outcome) =
  match (kind, out) with
  | (Hash_join | Sort_merge), Interp.Rows tl ->
      Temp_list.length tl = d.Gen.n_fact && sum_field tl "B.W" = d.Gen.join_w_sum
  | Group_by, Interp.Table r ->
      List.length r.Aggregate.rows = d.Gen.distinct_groups
      && List.for_all
           (function
             | [| Value.Int g; Value.Int n; Value.Int sum |] ->
                 g >= 0 && g < Gen.groups
                 && n = d.Gen.group_count.(g)
                 && sum = d.Gen.group_sum_f.(g)
             | _ -> false)
           r.Aggregate.rows
  | Distinct, Interp.Rows tl ->
      let i = field tl "A.G" in
      let seen = Array.make Gen.groups false in
      Temp_list.iter tl (fun e ->
          let g = int_value (Temp_list.field_value tl e i) in
          if g >= 0 && g < Gen.groups then seen.(g) <- true);
      Temp_list.length tl = d.Gen.distinct_groups
      && Array.for_all2 (fun s n -> s = (n > 0)) seen d.Gen.group_count
  | Scan_select, Interp.Rows tl ->
      Temp_list.length tl = d.Gen.group_count.(c)
      && sum_field tl "A.K" = d.Gen.group_sum_k.(c)
  | _ -> false
