(** Query optimization for the MM-DBMS (§4).

    "Query optimization in MM-DBMS should be simpler than in conventional
    database systems, as the cost formulas are less complicated ... there
    is a more definite ordering of preference."

    One pipeline plans every query: score each predicate's access paths
    and order the predicates, estimate the selection's output, then price
    the feasible join methods and take the cheapest.  The cost-based
    planner and the paper's §4 rule-based ablation differ only in three
    parameters of that pipeline ({!mode}): the access-path score (the §4
    rank hash lookup > tree lookup > sequential scan, or {!Cost}), the
    selection prior (fixed fractions, or {!Column_stats}), and the outer
    cardinality that prices a join (the raw count, or the estimate).

    Join method: a precomputed (pointer) join is always fastest when the
    outer join column is a declared foreign key to the inner relation;
    otherwise the cheapest feasible method under the §3.3.4
    comparison-count formulas ({!Cost}) — which makes the paper's rules
    emergent: Tree Merge whenever both tree indices exist, Tree Join for a
    small outer against a tree-indexed inner (§3.3.5 exception 1's
    crossover falls out of the hash-build term), Hash Join elsewhere.  The
    §3.3.5 exception 2 (high duplicates and selectivity → Sort Merge) is
    about output size, which the formulas do not model, so it remains an
    explicit rule driven by caller-provided [stats]; the system does not
    maintain histograms, matching the paper's qualitative treatment. *)

open Mmdb_storage

type join_stats = { dup_pct : float; semijoin_sel : float }

type join_choice =
  | Precomputed of int  (** follow pointers in this outer column *)
  | Algorithm of Join.method_

type plan = {
  p_outer : Relation.t;
  p_paths : (Select.access_path * Select.predicate) list;
      (** one per where clause; the first indexable one drives access *)
  p_join : (join_choice * Join.side * Join.side) option;
  p_project : string list option;
  p_distinct : bool;
  p_dedup_method : Project.method_;
  p_est_sel : int;  (** estimated selection output rows *)
  p_est_join : int option;  (** estimated join output rows, when joining *)
  p_est_cost : float option;  (** the chosen join method's estimated cost *)
  p_planner : string;  (** "cost-based" | "rule-based" *)
  p_sel_cands : (Select.access_path * float) list;
      (** access-path candidates for the leading predicate, with scores *)
  p_join_cands : (join_choice * float) list;
      (** join-method candidates with costs, cheapest first *)
}

(* --- planner selection (MMDB_COST) ---------------------------------------- *)

(* Cost-based planning is the default; [MMDB_COST=0] retains the §4
   rule-based preference ordering as the paper-faithful ablation. *)
let parse_env = function
  | Some ("0" | "false" | "off" | "no" | "rule") -> false
  | Some _ | None -> true

let cost_state = ref (parse_env (Sys.getenv_opt "MMDB_COST"))
let cost_based () = !cost_state
let set_cost_based b = cost_state := b

let choice_name = function
  | Precomputed _ -> "Precomputed"
  | Algorithm m -> Join.method_name m

let pp_choice ppf = function
  | Precomputed col -> Fmt.pf ppf "precomputed join via pointer column %d" col
  | Algorithm m -> Fmt.string ppf (Join.method_name m)

(* §3.3.5 exception 2: high duplicates (and high selectivity) favour Sort
   Merge's array scans over everything else. *)
let high_output stats =
  match stats with
  | None -> false
  | Some s -> s.dup_pct >= 80.0 && s.semijoin_sel >= 80.0

(* The paper's comparison-count formulas (§3.3.4), in units of one
   comparison.  [k] is the fixed hash-lookup cost — "much smaller than
   log2(|R2|) but larger than 2" — and the hash build costs a constant per
   inner tuple (§3.3.2: building the 30,000-element table took about as
   long as probing it). *)
module Cost = struct
  let hash_lookup_k = 2.5
  let hash_build_per_tuple = 2.0

  let log2 x = if x <= 1.0 then 1.0 else log x /. log 2.0

  let nested_loops ~outer ~inner = float_of_int outer *. float_of_int inner

  let hash_join ~outer ~inner =
    let o = float_of_int outer and i = float_of_int inner in
    (hash_build_per_tuple *. i) +. o +. (o *. hash_lookup_k)

  let tree_join ~outer ~inner =
    let o = float_of_int outer in
    o +. (o *. log2 (float_of_int inner))

  let tree_merge ~outer ~inner =
    (* "(|R1| + |R2| * 2), as each element in R1 is referenced once and
       each element in R2 is referenced twice" *)
    float_of_int outer +. (2.0 *. float_of_int inner)

  let sort_merge ~outer ~inner =
    let o = float_of_int outer and i = float_of_int inner in
    (o *. log2 o) +. (i *. log2 i) +. o +. i

  let of_method m ~outer ~inner =
    match m with
    | Join.Nested_loops -> nested_loops ~outer ~inner
    | Join.Hash_join -> hash_join ~outer ~inner
    | Join.Tree_join -> tree_join ~outer ~inner
    | Join.Tree_merge -> tree_merge ~outer ~inner
    | Join.Sort_merge -> sort_merge ~outer ~inner

  (* Access-path costs, calibrated against the counters each path
     actually bumps (§3.1): a sequential scan pays one comparison and
     one dereference per tuple; a hash probe pays the fixed [k] plus a
     dereference per match; a tree descent pays log2 n comparisons plus
     a dereference per match. *)
  let seq_scan ~n = 2.0 *. float_of_int n
  let hash_lookup ~matches = hash_lookup_k +. float_of_int matches
  let tree_lookup ~n ~matches = log2 (float_of_int n) +. float_of_int matches
end

(* Methods whose index prerequisites are met right now. *)
let feasible_methods ~outer ~inner =
  let outer_tree = Join.find_tree_index outer <> None in
  let inner_tree = Join.find_tree_index inner <> None in
  List.filter
    (fun m ->
      match m with
      | Join.Tree_merge -> outer_tree && inner_tree
      | Join.Tree_join -> inner_tree
      | Join.Nested_loops | Join.Hash_join | Join.Sort_merge -> true)
    Join.all_methods

let fk_target outer =
  match Schema.column_type (Relation.schema outer.Join.rel) outer.Join.col with
  | Schema.T_ref target | Schema.T_refs target -> Some target
  | _ -> None

let by_score l = List.stable_sort (fun (_, a) (_, b) -> Float.compare a b) l

(* The join decision.  The foreign-key precomputed join and the §3.3.5
   high-output Sort Merge rule are rules — pointer traversal and output
   size are facts the comparison formulas do not model — and everything
   else is the first cheapest feasible method, with the outer side
   priced at [outer_rows].  Returns the choice and the candidates,
   cheapest first. *)
let choose_join ?stats ~outer_rows ~outer ~inner () =
  match fk_target outer with
  | Some target when String.equal target (Relation.name inner.Join.rel) ->
      (* "A precomputed join is always faster than the other join methods." *)
      let choice = Precomputed outer.Join.col in
      (choice, [ (choice, float_of_int outer_rows) ])
  | _ ->
      let i = Relation.cardinality inner.Join.rel in
      let cands =
        by_score
          (List.map
             (fun m -> (Algorithm m, Cost.of_method m ~outer:outer_rows ~inner:i))
             (feasible_methods ~outer ~inner))
      in
      (* never empty: Nested Loops, Hash Join and Sort Merge always work *)
      let cheapest = fst (List.hd cands) in
      ((if high_output stats then Algorithm Join.Sort_merge else cheapest), cands)

(* --- access paths and selection priors ------------------------------------ *)

let float_of_value = function
  | Value.Int n -> Some (float_of_int n)
  | Value.Float f -> Some f
  | _ -> None

(* Expected matches for one predicate, from column statistics
   (rows/distinct for equality, cumulative histogram buckets for a
   range); the §4 static fractions remain the fallback for shapes
   statistics cannot resolve. *)
let est_matches rel pred =
  let n = Relation.cardinality rel in
  match pred with
  | Select.Eq (col, _) ->
      min (max 1 n) (Column_stats.est_eq (Column_stats.stats_for rel ~col))
  | Select.Between (col, lo, hi) -> (
      match (float_of_value lo, float_of_value hi) with
      | Some lo, Some hi ->
          min (max 1 n)
            (Column_stats.est_range (Column_stats.stats_for rel ~col) ~lo ~hi)
      | _ -> max 1 (n / 4))
  | Select.Filter _ -> max 1 (n / 3)

(* Every way to answer [pred], priced for [matches] expected matches:
   its column's indexes (hash ones for exact matches only), then a scan. *)
let access_candidates rel pred ~matches =
  let n = Relation.cardinality rel in
  let indexed ~hash col =
    List.filter_map
      (fun (name, kind) ->
        match kind with
        | Mmdb_index.Index_intf.Hash ->
            if hash then Some (Select.Hash_lookup name, Cost.hash_lookup ~matches)
            else None
        | Mmdb_index.Index_intf.Ordered ->
            Some (Select.Tree_lookup name, Cost.tree_lookup ~n ~matches))
      (Select.candidate_indexes rel ~col)
  in
  (match pred with
  | Select.Eq (col, _) -> indexed ~hash:true col
  | Select.Between (col, _, _) -> indexed ~hash:false col
  | Select.Filter _ -> [])
  @ [ (Select.Sequential_scan, Cost.seq_scan ~n) ]

(* §4's access-path preference as a score: hash (exact match) over tree
   point lookup over tree range over scan. *)
let path_rank path pred =
  match (path, pred) with
  | Select.Hash_lookup _, _ -> 0
  | Select.Tree_lookup _, Select.Eq _ -> 1
  | Select.Tree_lookup _, _ -> 2
  | Select.Sequential_scan, _ -> 3

(* Static selectivity priors, System R style: the paper keeps no
   histograms (§4), so the rule planner's guesses are fixed fractions of
   the relation — exact match keeps 1/10th, a range 1/4, an opaque
   residual 1/3. *)
let selectivity_factor = function
  | Select.Eq _ -> 10
  | Select.Between _ -> 4
  | Select.Filter _ -> 3

let fixed_prior rel predicates =
  List.fold_left
    (fun acc p -> max 1 (acc / selectivity_factor p))
    (Relation.cardinality rel) predicates

(* The cost planner's prior: per-predicate match fractions from column
   statistics, combined under independence. *)
let stats_prior rel predicates =
  let n = Relation.cardinality rel in
  let nf = float_of_int (max 1 n) in
  let frac =
    List.fold_left
      (fun acc p -> acc *. (float_of_int (est_matches rel p) /. nf))
      1.0 predicates
  in
  max 1 (min n (int_of_float (Float.ceil (nf *. frac))))

(* --- the planner's three parameters ---------------------------------------- *)

(* Everything the rule-based ablation changes, picked once per plan. *)
type mode = {
  name : string;
  access : Relation.t -> Select.predicate -> (Select.access_path * float) list * int;
      (* a predicate's candidate access paths scored (lower wins), and
         its tie-break against predicates of equal score *)
  prior : Relation.t -> Select.predicate list -> int;
      (* the selection's output rows, before feedback *)
  outer_rows : Relation.t -> est_sel:int -> int;
      (* the outer cardinality that prices a join *)
}

(* Minimum estimated cost, the more selective predicate first on a tie. *)
let cost_mode =
  {
    name = "cost-based";
    access =
      (fun rel p ->
        let matches = est_matches rel p in
        (access_candidates rel p ~matches, matches));
    prior = stats_prior;
    outer_rows = (fun _ ~est_sel -> est_sel);
  }

(* The §4 preference order over the one path {!Select.best_path} picks,
   and §4's use of relation sizes for joins. *)
let rule_mode =
  {
    name = "rule-based";
    access =
      (fun rel p ->
        let path = Select.best_path rel p in
        ([ (path, float_of_int (path_rank path p)) ], 0));
    prior = fixed_prior;
    outer_rows = (fun rel ~est_sel:_ -> Relation.cardinality rel);
  }

let current_mode () = if cost_based () then cost_mode else rule_mode
let planner_name () = (current_mode ()).name

(* Each predicate's best-scored path, the predicates ordered so the best
   leads, and the leading predicate's candidates (best first) for
   EXPLAIN.  A predicate always has a candidate: a scan always works. *)
let order_paths mode rel preds =
  let scored =
    List.map
      (fun p ->
        let cands, tie = mode.access rel p in
        let cands = by_score cands in
        let path, score = List.hd cands in
        ((path, p), (score, tie), cands))
      preds
  in
  match
    List.stable_sort (fun (_, a, _) (_, b, _) -> compare a b) scored
  with
  | [] -> ([], [])
  | (_, _, cands) :: _ as sorted -> (List.map (fun (pp, _, _) -> pp) sorted, cands)

(* --- cardinality estimation ---------------------------------------------- *)

(* The mode's prior, replaced by the average observed cardinality once
   the same (relation, path, predicate-shape) has executed a few times
   ({!Feedback.estimate}). *)
let est_select mode outer paths =
  match paths with
  | [] -> Relation.cardinality outer
  | (path, _) :: _ -> (
      let predicates = List.map snd paths in
      match Feedback.estimate ~key:(Select.feedback_key outer ~path ~predicates) with
      | Some e -> e
      | None -> mode.prior outer predicates)

(* Join output estimate: the foreign-key prior — every outer tuple finds
   its match — scaled by the selection's reduction of the outer side.
   Feedback (keyed on the chosen method and both relation names)
   overrides the prior once the shape has run. *)
let est_join ~est_sel ~choice ~outer_side ~inner_side =
  let o = Relation.cardinality outer_side.Join.rel in
  let i = Relation.cardinality inner_side.Join.rel in
  let sel_frac =
    if o <= 0 then 1.0 else float_of_int est_sel /. float_of_int o
  in
  let static = max 1 (int_of_float (float_of_int (max o i) *. sel_frac)) in
  let key =
    match choice with
    | Algorithm m -> Join.feedback_key ~method_:m ~outer:outer_side ~inner:inner_side
    | Precomputed _ ->
        Join.feedback_key_of ~method_name:"Precomputed"
          ~outer_name:(Relation.name outer_side.Join.rel) ~inner_name:"*"
  in
  match Feedback.estimate ~key with Some e -> e | None -> static

let predicate_of_where schema (w : Query.where_clause) =
  let col = Schema.column_index_exn schema w.Query.w_column in
  match w.Query.w_cmp with
  | Query.Cmp_eq -> Select.Eq (col, w.Query.w_lo)
  | Query.Cmp_between -> Select.Between (col, w.Query.w_lo, w.Query.w_hi)

let side rel col_name =
  { Join.rel; col = Schema.column_index_exn (Relation.schema rel) col_name }

let plan ?stats db (q : Query.t) =
  Mmdb_util.Trace.with_span "plan" @@ fun () ->
  let mode = current_mode () in
  let outer = Db.find_exn db q.Query.q_from in
  let schema = Relation.schema outer in
  let paths, sel_cands =
    order_paths mode outer (List.map (predicate_of_where schema) q.Query.q_where)
  in
  let sel_estimate = est_select mode outer paths in
  let join, join_cands =
    match q.Query.q_join with
    | None -> (None, [])
    | Some j ->
        let inner_rel = Db.find_exn db j.Query.j_rel in
        let outer_side = side outer j.Query.j_outer_col in
        let inner_side = side inner_rel j.Query.j_inner_col in
        let choice, cands =
          match j.Query.j_force with
          | Some m ->
              (* a forced method is priced at the raw cardinalities *)
              ( Algorithm m,
                [
                  ( Algorithm m,
                    Cost.of_method m ~outer:(Relation.cardinality outer)
                      ~inner:(Relation.cardinality inner_rel) );
                ] )
          | None ->
              choose_join ?stats
                ~outer_rows:(mode.outer_rows outer ~est_sel:sel_estimate)
                ~outer:outer_side ~inner:inner_side ()
        in
        (Some (choice, outer_side, inner_side), cands)
  in
  let join_estimate =
    Option.map
      (fun (choice, outer_side, inner_side) ->
        est_join ~est_sel:sel_estimate ~choice ~outer_side ~inner_side)
      join
  in
  (* the estimate EXPLAIN ANALYZE sets against actual counters *)
  let est_cost =
    match join with
    | Some ((Algorithm _ as choice), _, _) -> List.assoc_opt choice join_cands
    | Some (Precomputed _, _, _) | None -> None
  in
  if Mmdb_util.Trace.active () then begin
    Mmdb_util.Trace.add_attr "outer" (Relation.name outer);
    Mmdb_util.Trace.add_attr "planner" mode.name;
    Mmdb_util.Trace.add_attr "batch" (string_of_int (Batch.size ()));
    Mmdb_util.Trace.add_attr "est_rows" (string_of_int sel_estimate);
    Option.iter
      (fun e -> Mmdb_util.Trace.add_attr "est_join_rows" (string_of_int e))
      join_estimate;
    (match paths with
    | (path, _) :: _ ->
        Mmdb_util.Trace.add_attr "access" (Fmt.str "%a" Select.pp_path path)
    | [] -> ());
    Option.iter
      (fun (choice, _, _) ->
        Mmdb_util.Trace.add_attr "join" (Fmt.str "%a" pp_choice choice))
      join;
    Option.iter
      (fun c -> Mmdb_util.Trace.add_attr "est_cost" (Fmt.str "%.0f" c))
      est_cost
  end;
  {
    p_outer = outer;
    p_paths = paths;
    p_join = join;
    p_project = q.Query.q_project;
    p_distinct = q.Query.q_distinct;
    (* "one method for eliminating duplicates (Hash)" — §4 *)
    p_dedup_method = Project.Hashing;
    p_est_sel = sel_estimate;
    p_est_join = join_estimate;
    p_est_cost = est_cost;
    p_planner = mode.name;
    p_sel_cands = sel_cands;
    p_join_cands = join_cands;
  }

let pp_cands pp_name ppf cands =
  Fmt.list ~sep:(Fmt.any ", ")
    (fun ppf (name, c) -> Fmt.pf ppf "%a=%.0f" pp_name name c)
    ppf cands

let pp_plan ppf p =
  Fmt.pf ppf "@[<v>planner: %s@," p.p_planner;
  Fmt.pf ppf "outer: %s@," (Relation.name p.p_outer);
  (* Execution-mode line: batch size is the only execution-mode
     parameter; size 1 is the paper's tuple-at-a-time ablation. *)
  Fmt.pf ppf "execution: batch size %d%s@," (Batch.size ())
    (if Batch.size () = 1 then " (tuple-at-a-time)" else "");
  List.iter
    (fun (path, _) -> Fmt.pf ppf "access: %a@," Select.pp_path path)
    p.p_paths;
  if List.length p.p_sel_cands > 1 then
    Fmt.pf ppf "access candidates: %a@," (pp_cands Select.pp_path) p.p_sel_cands;
  Fmt.pf ppf "est. rows: %d@," p.p_est_sel;
  Option.iter
    (fun (choice, _, inner) ->
      Fmt.pf ppf "join with %s: %a" (Relation.name inner.Join.rel) pp_choice
        choice;
      (match p.p_est_cost with
      | Some c ->
          Fmt.pf ppf " (est. %.0f comparison units" c;
          Option.iter (fun e -> Fmt.pf ppf ", est. %d rows" e) p.p_est_join;
          Fmt.pf ppf ")"
      | None -> Fmt.pf ppf " (follows existing pointers)");
      Fmt.pf ppf "@,";
      if List.length p.p_join_cands > 1 then
        Fmt.pf ppf "join candidates: %a@,"
          (pp_cands (Fmt.of_to_string choice_name))
          p.p_join_cands)
    p.p_join;
  Option.iter
    (fun ls ->
      Fmt.pf ppf "project: %a@," (Fmt.list ~sep:(Fmt.any ", ") Fmt.string) ls)
    p.p_project;
  if p.p_distinct then Fmt.pf ppf "distinct via %s@," (Project.method_name p.p_dedup_method);
  Fmt.pf ppf "@]"
