(** Query optimization for the MM-DBMS (§4).

    One planner: it scores each predicate's access paths and orders the
    predicates, estimates the selection's output, and prices the feasible
    join methods.  The cost-based planner (the default) and the paper's
    §4 rule-based ablation ([MMDB_COST=0]) differ only in three
    parameters of that pipeline:
    - the access-path score: the §4 rank of {!Select.best_path}'s choice
      (hash lookup > tree lookup > sequential scan), or {!Cost};
    - the selection prior: fixed fractions (1/10 exact match, 1/4 range,
      1/3 residual), or {!Column_stats} — {!Feedback} overrides either;
    - the outer cardinality a join is priced at: the relation's raw
      count, or the selection estimate.

    Either way the join is a precomputed join when the outer column is a
    foreign key to the inner relation, Sort Merge under the §3.3.5
    high-duplicates exception, and otherwise the cheapest feasible method
    under the §3.3.4 formulas — which reproduces §4's preferences: Tree
    Merge when both T Tree indices exist, Tree Join for a small outer
    against a tree-indexed inner, Hash Join elsewhere. *)

open Mmdb_storage

type join_stats = { dup_pct : float; semijoin_sel : float }
(** Optional workload statistics for the §3.3.5 exception-2 rule (the
    system does not maintain histograms; callers may supply estimates). *)

type join_choice =
  | Precomputed of int  (** follow pointers in this outer column *)
  | Algorithm of Join.method_

type plan = {
  p_outer : Relation.t;
  p_paths : (Select.access_path * Select.predicate) list;
      (** one per where clause; the first drives index access *)
  p_join : (join_choice * Join.side * Join.side) option;
  p_project : string list option;
  p_distinct : bool;
  p_dedup_method : Project.method_;  (** always [Hashing], per §4 *)
  p_est_sel : int;
      (** estimated selection output rows: per-column statistics
          ({!Column_stats}) under the cost-based planner, the fixed §4
          priors (1/10 exact match, 1/4 range, 1/3 residual) under the
          rule-based one — either way refined by the average observed
          cardinality from {!Feedback} once the same (relation,
          access-path, predicate-shape) has executed a few times *)
  p_est_join : int option;
      (** estimated join output rows (foreign-key prior scaled by the
          selection's reduction, feedback-refined), when joining *)
  p_est_cost : float option;
      (** the chosen join method's estimated cost in comparison units
          (EXPLAIN, and the [est_cost] trace attribute); a forced method is
          priced at the raw cardinalities; [None] without a join or for a
          precomputed one *)
  p_planner : string;  (** "cost-based" | "rule-based" (EXPLAIN) *)
  p_sel_cands : (Select.access_path * float) list;
      (** the leading predicate's candidate access paths with their
          scores, best first: every path with its estimated cost under the
          cost-based planner, the one preferred path with its §4 rank
          under the rule-based one.  Rendered only by {!pp_plan}. *)
  p_join_cands : (join_choice * float) list;
      (** join-method candidates with estimated costs, cheapest first;
          only the forced method when the query forced one *)
}

val cost_based : unit -> bool
(** Whether the cost-based planner is active.  Defaults from [MMDB_COST]
    at startup ("0"/"false"/"off"/"no"/"rule" disable it; default on);
    [MMDB_COST=0] is the paper-faithful §4 rule-based ablation. *)

val set_cost_based : bool -> unit
val planner_name : unit -> string

val pp_choice : Format.formatter -> join_choice -> unit

(** The paper's comparison-count cost formulas (§3.3.4), used to pick among
    the feasible methods.  Exposed so tests and EXPLAIN output can check
    predicted orderings against measurements. *)
module Cost : sig
  val hash_lookup_k : float
  (** the fixed hash lookup cost [k]: "much smaller than log2(|R2|) but
      larger than 2" *)

  val hash_build_per_tuple : float

  val nested_loops : outer:int -> inner:int -> float
  val hash_join : outer:int -> inner:int -> float
  val tree_join : outer:int -> inner:int -> float
  val tree_merge : outer:int -> inner:int -> float
  val sort_merge : outer:int -> inner:int -> float
  val of_method : Join.method_ -> outer:int -> inner:int -> float

  val seq_scan : n:int -> float
  val hash_lookup : matches:int -> float
  val tree_lookup : n:int -> matches:int -> float
  (** Access-path costs, calibrated against the counters each path bumps
      (§3.1): one comparison + one dereference per scanned tuple; [k]
      plus a dereference per match for a hash probe; log2 n comparisons
      plus a dereference per match for a tree descent. *)
end

val feasible_methods : outer:Join.side -> inner:Join.side -> Join.method_ list
(** The methods whose index prerequisites are met (tree methods need
    pre-existing ordered indices on their join columns), with or without
    an MVCC snapshot: every method reads through the relations' read
    entries. *)

val choose_join :
  ?stats:join_stats ->
  outer_rows:int ->
  outer:Join.side ->
  inner:Join.side ->
  unit ->
  join_choice * (join_choice * float) list
(** The join decision: a precomputed join when the outer column is a
    foreign key to the inner relation; Sort Merge under the §3.3.5
    high-duplicates exception; otherwise the first cheapest of
    {!feasible_methods} under the {!Cost} formulas, with the outer side
    priced at [outer_rows] (the rule-based planner passes the raw
    cardinality, the cost-based one its selection estimate).  Returns
    the choice and the candidates with their costs, cheapest first. *)

val plan : ?stats:join_stats -> Db.t -> Query.t -> plan
(** Resolve names against the catalog and choose methods.
    @raise Invalid_argument on unknown relations or columns. *)

val pp_plan : Format.formatter -> plan -> unit
