(** Query optimization for the MM-DBMS (§4).

    "Query optimization in MM-DBMS should be simpler than in conventional
    database systems, as the cost formulas are less complicated ... there
    is a more definite ordering of preference."  The rules encoded here:

    Selection access path: hash lookup (exact match only) > tree lookup >
    sequential scan — delegated to {!Select.best_path}.

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
  p_build_outer : bool;
      (** hash join only: build the table on the (filtered) outer side *)
  p_project : string list option;
  p_distinct : bool;
  p_dedup_method : Project.method_;
  p_est_sel : int;  (** estimated selection output rows *)
  p_est_join : int option;  (** estimated join output rows, when joining *)
  p_planner : string;  (** "cost-based" | "rule-based" *)
  p_sel_cands : (string * float) list;
      (** access-path candidates for the leading predicate, with costs *)
  p_join_cands : (string * float) list;
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
let planner_name () = if cost_based () then "cost-based" else "rule-based"

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

let choose_join ?stats ~outer ~inner () =
  match fk_target outer with
  | Some target when String.equal target (Relation.name inner.Join.rel) ->
      (* "A precomputed join is always faster than the other join methods." *)
      Precomputed outer.Join.col
  | _ ->
      if high_output stats then
        (* §3.3.5 exception 2 is about output size, which the comparison
           formulas do not model: sort merge's array scans win. *)
        Algorithm Join.Sort_merge
      else begin
        let o = Relation.cardinality outer.Join.rel in
        let i = Relation.cardinality inner.Join.rel in
        let best =
          List.fold_left
            (fun acc m ->
              let cost = Cost.of_method m ~outer:o ~inner:i in
              match acc with
              | Some (_, best_cost) when best_cost <= cost -> acc
              | _ -> Some (m, cost))
            None
            (feasible_methods ~outer ~inner)
        in
        match best with
        | Some (m, _) -> Algorithm m
        | None -> Algorithm Join.Hash_join
      end

(* --- cost-based planning -------------------------------------------------- *)

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

(* Every way to answer [pred], with its estimated cost. *)
let access_candidates rel pred =
  let n = Relation.cardinality rel in
  let scan = (Select.Sequential_scan, Cost.seq_scan ~n) in
  match pred with
  | Select.Eq (col, _) ->
      let matches = est_matches rel pred in
      List.map
        (fun (name, kind) ->
          match kind with
          | Mmdb_index.Index_intf.Hash ->
              (Select.Hash_lookup name, Cost.hash_lookup ~matches)
          | Mmdb_index.Index_intf.Ordered ->
              (Select.Tree_lookup name, Cost.tree_lookup ~n ~matches))
        (Select.candidate_indexes rel ~col)
      @ [ scan ]
  | Select.Between (col, _, _) ->
      let matches = est_matches rel pred in
      List.filter_map
        (fun (name, kind) ->
          if kind = Mmdb_index.Index_intf.Ordered then
            Some (Select.Tree_lookup name, Cost.tree_lookup ~n ~matches)
          else None)
        (Select.candidate_indexes rel ~col)
      @ [ scan ]
  | Select.Filter _ -> [ scan ]

(* Cheapest access path for [pred], plus the full candidate list for
   EXPLAIN.  The candidate list is never empty (a scan always works). *)
let best_access rel pred =
  let cands = access_candidates rel pred in
  let best =
    List.fold_left
      (fun acc (p, c) ->
        match acc with Some (_, bc) when bc <= c -> acc | _ -> Some (p, c))
      None cands
  in
  (Option.get best, cands)

type join_cand = Cand_method of Join.method_ | Cand_hash_build_outer

(* Join-method candidates with estimated costs.  [eff_outer] is the
   outer cardinality after selection (the rule-based planner passes the
   raw count, matching §4's use of relation sizes).  When hash join is
   feasible and the filtered outer is the smaller side, building the
   table on the outer is a distinct candidate — the §3.3.4 formula is
   symmetric, so its cost is the same formula with the roles swapped. *)
let join_candidates ~eff_outer ~outer ~inner =
  let i = Relation.cardinality inner.Join.rel in
  let feas = feasible_methods ~outer ~inner in
  let base =
    List.map
      (fun m ->
        (Cand_method m, Join.method_name m, Cost.of_method m ~outer:eff_outer ~inner:i))
      feas
  in
  if List.mem Join.Hash_join feas && eff_outer < i then
    base
    @ [
        ( Cand_hash_build_outer,
          "Hash Join (build outer)",
          Cost.hash_join ~outer:i ~inner:eff_outer );
      ]
  else base

let named_cands cands =
  List.stable_sort (fun (_, _, a) (_, _, b) -> compare a b) cands
  |> List.map (fun (_, name, c) -> (name, c))

(* Cost-based join choice.  The foreign-key precomputed join and the
   §3.3.5 high-output Sort Merge rule are kept as rules — pointer
   traversal and output size are facts the comparison formulas do not
   model — and everything else is minimum estimated cost over the
   feasible candidates, with the outer side taken at its
   selection-reduced cardinality.  Returns (choice, build_outer,
   candidates-for-EXPLAIN). *)
let choose_join_cost ?stats ~est_sel ~outer ~inner () =
  match fk_target outer with
  | Some target when String.equal target (Relation.name inner.Join.rel) ->
      (Precomputed outer.Join.col, false, [ ("Precomputed", float_of_int est_sel) ])
  | _ ->
      let cands = join_candidates ~eff_outer:est_sel ~outer ~inner in
      let named = named_cands cands in
      if high_output stats then (Algorithm Join.Sort_merge, false, named)
      else (
        match
          List.stable_sort (fun (_, _, a) (_, _, b) -> compare a b) cands
        with
        | (Cand_method m, _, _) :: _ -> (Algorithm m, false, named)
        | (Cand_hash_build_outer, _, _) :: _ -> (Algorithm Join.Hash_join, true, named)
        | [] -> (Algorithm Join.Hash_join, false, named))

(* --- cardinality estimation ---------------------------------------------- *)

(* Static selectivity priors, System R style: the paper keeps no
   histograms (§4), so the cold-start guesses are fixed fractions of the
   relation — exact match keeps 1/10th, a range 1/4, an opaque residual
   1/3.  Once the same (relation, path, predicate-shape) has executed a
   few times, {!Feedback.estimate} replaces the prior with the average
   observed cardinality, which is the feedback loop this PR adds. *)
let selectivity_factor = function
  | Select.Eq _ -> 10
  | Select.Between _ -> 4
  | Select.Filter _ -> 3

let est_select outer paths =
  let n = Relation.cardinality outer in
  match paths with
  | [] -> n
  | (path, _) :: _ -> (
      let predicates = List.map snd paths in
      let static =
        List.fold_left
          (fun acc p -> max 1 (acc / selectivity_factor p))
          n predicates
      in
      let key = Select.feedback_key outer ~path ~predicates in
      match Feedback.estimate ~key with Some e -> e | None -> static)

(* Cost-based selection estimate: per-predicate match fractions from
   column statistics, combined under independence; feedback still wins
   once the shape has run. *)
let est_select_cost outer paths =
  let n = Relation.cardinality outer in
  match paths with
  | [] -> n
  | (path, _) :: _ -> (
      let predicates = List.map snd paths in
      let static =
        let nf = float_of_int (max 1 n) in
        let frac =
          List.fold_left
            (fun acc p -> acc *. (float_of_int (est_matches outer p) /. nf))
            1.0 predicates
        in
        max 1 (min n (int_of_float (Float.ceil (nf *. frac))))
      in
      let key = Select.feedback_key outer ~path ~predicates in
      match Feedback.estimate ~key with Some e -> e | None -> static)

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

(* §4's access-path preference as a sort key, so a conjunctive WHERE is
   led by its most selective indexable predicate: hash (exact match) over
   tree point lookup over tree range over scan. *)
let path_rank (path, pred) =
  match (path, pred) with
  | Select.Hash_lookup _, _ -> 0
  | Select.Tree_lookup _, Select.Eq _ -> 1
  | Select.Tree_lookup _, _ -> 2
  | Select.Sequential_scan, _ -> 3

let plan ?stats db (q : Query.t) =
  Mmdb_util.Trace.with_span "plan" @@ fun () ->
  let cost = cost_based () in
  let outer = Db.find_exn db q.Query.q_from in
  let schema = Relation.schema outer in
  let preds = List.map (predicate_of_where schema) q.Query.q_where in
  let paths, sel_cands =
    if cost then begin
      (* Minimum-cost access path per predicate; the cheapest (then most
         selective) one leads.  The leading predicate's full candidate
         list is kept for EXPLAIN. *)
      let scored =
        List.map
          (fun p ->
            let (path, c), cands = best_access outer p in
            ((path, p), c, est_matches outer p, cands))
          preds
      in
      let sorted =
        List.stable_sort
          (fun (_, c1, m1, _) (_, c2, m2, _) ->
            match compare c1 c2 with 0 -> compare m1 m2 | r -> r)
          scored
      in
      ( List.map (fun (pp, _, _, _) -> pp) sorted,
        match sorted with
        | (_, _, _, cands) :: _ ->
            List.stable_sort (fun (_, a) (_, b) -> compare a b) cands
            |> List.map (fun (p, c) -> (Fmt.str "%a" Select.pp_path p, c))
        | [] -> [] )
    end
    else
      ( List.map (fun p -> (Select.best_path outer p, p)) preds
        |> List.stable_sort (fun a b -> compare (path_rank a) (path_rank b)),
        [] )
  in
  let sel_estimate =
    if cost then est_select_cost outer paths else est_select outer paths
  in
  let join_info =
    Option.map
      (fun (j : Query.join_clause) ->
        let inner_rel = Db.find_exn db j.Query.j_rel in
        let outer_side =
          {
            Join.rel = outer;
            col = Schema.column_index_exn schema j.Query.j_outer_col;
          }
        in
        let inner_side =
          {
            Join.rel = inner_rel;
            col =
              Schema.column_index_exn (Relation.schema inner_rel)
                j.Query.j_inner_col;
          }
        in
        match j.Query.j_force with
        | Some m -> ((Algorithm m, outer_side, inner_side), false, [])
        | None ->
            if cost then
              let choice, build_outer, cands =
                choose_join_cost ?stats ~est_sel:sel_estimate ~outer:outer_side
                  ~inner:inner_side ()
              in
              ((choice, outer_side, inner_side), build_outer, cands)
            else
              let choice =
                choose_join ?stats ~outer:outer_side ~inner:inner_side ()
              in
              let cands =
                named_cands
                  (join_candidates
                     ~eff_outer:(Relation.cardinality outer_side.Join.rel)
                     ~outer:outer_side ~inner:inner_side)
              in
              ((choice, outer_side, inner_side), false, cands))
      q.Query.q_join
  in
  let join = Option.map (fun (j, _, _) -> j) join_info in
  let build_outer =
    match join_info with Some (_, b, _) -> b | None -> false
  in
  let join_cands = match join_info with Some (_, _, c) -> c | None -> [] in
  let join_estimate =
    Option.map
      (fun (choice, outer_side, inner_side) ->
        est_join ~est_sel:sel_estimate ~choice ~outer_side ~inner_side)
      join
  in
  if Mmdb_util.Trace.active () then begin
    Mmdb_util.Trace.add_attr "outer" (Relation.name outer);
    Mmdb_util.Trace.add_attr "planner" (planner_name ());
    Mmdb_util.Trace.add_attr "batch" (string_of_int (Batch.size ()));
    Mmdb_util.Trace.add_attr "est_rows" (string_of_int sel_estimate);
    Option.iter
      (fun e -> Mmdb_util.Trace.add_attr "est_join_rows" (string_of_int e))
      join_estimate;
    (match paths with
    | (path, _) :: _ ->
        Mmdb_util.Trace.add_attr "access" (Fmt.str "%a" Select.pp_path path)
    | [] -> ());
    if build_outer then Mmdb_util.Trace.add_attr "build" "outer";
    Option.iter
      (fun (choice, (o : Join.side), (i : Join.side)) ->
        Mmdb_util.Trace.add_attr "join" (Fmt.str "%a" pp_choice choice);
        match choice with
        | Algorithm m ->
            (* the estimate EXPLAIN ANALYZE sets against actual counters *)
            Mmdb_util.Trace.add_attr "est_cost"
              (match join_cands with
              | (_, c) :: _ -> Fmt.str "%.0f" c
              | [] ->
                  Fmt.str "%.0f"
                    (Cost.of_method m ~outer:(Relation.cardinality o.Join.rel)
                       ~inner:(Relation.cardinality i.Join.rel)))
        | Precomputed _ -> ())
      join
  end;
  {
    p_outer = outer;
    p_paths = paths;
    p_join = join;
    p_build_outer = build_outer;
    p_project = q.Query.q_project;
    p_distinct = q.Query.q_distinct;
    (* "one method for eliminating duplicates (Hash)" — §4 *)
    p_dedup_method = Project.Hashing;
    p_est_sel = sel_estimate;
    p_est_join = join_estimate;
    p_planner = (if cost then "cost-based" else "rule-based");
    p_sel_cands = sel_cands;
    p_join_cands = join_cands;
  }

let pp_cands ppf cands =
  Fmt.pf ppf "%a"
    (Fmt.list ~sep:(Fmt.any ", ") (fun ppf (name, c) ->
         Fmt.pf ppf "%s=%.0f" name c))
    cands

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
    Fmt.pf ppf "access candidates: %a@," pp_cands p.p_sel_cands;
  Fmt.pf ppf "est. rows: %d@," p.p_est_sel;
  Option.iter
    (fun (choice, outer, inner) ->
      Fmt.pf ppf "join with %s: %a" (Relation.name inner.Join.rel) pp_choice
        choice;
      if p.p_build_outer then Fmt.pf ppf " (build on outer)";
      (match choice with
      | Algorithm m ->
          Fmt.pf ppf " (est. %.0f comparison units"
            (match p.p_join_cands with
            | (_, c) :: _ -> c
            | [] ->
                Cost.of_method m ~outer:(Relation.cardinality outer.Join.rel)
                  ~inner:(Relation.cardinality inner.Join.rel));
          Option.iter (fun e -> Fmt.pf ppf ", est. %d rows" e) p.p_est_join;
          Fmt.pf ppf ")"
      | Precomputed _ -> Fmt.pf ppf " (follows existing pointers)");
      Fmt.pf ppf "@,";
      if List.length p.p_join_cands > 1 then
        Fmt.pf ppf "join candidates: %a@," pp_cands p.p_join_cands)
    p.p_join;
  Option.iter
    (fun ls ->
      Fmt.pf ppf "project: %a@," (Fmt.list ~sep:(Fmt.any ", ") Fmt.string) ls)
    p.p_project;
  if p.p_distinct then Fmt.pf ppf "distinct via %s@," (Project.method_name p.p_dedup_method);
  Fmt.pf ppf "@]"
