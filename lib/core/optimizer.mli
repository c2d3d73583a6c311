(** Query optimization for the MM-DBMS (§4).

    "There is a more definite ordering of preference": hash lookup > tree
    lookup > sequential scan for selection; precomputed join > Tree Merge
    (when both T Tree indices exist) > Hash Join, with the paper's two
    exceptions — Tree Join when only the inner side is tree-indexed and
    the outer is less than half its size, and Sort Merge when duplicates
    and semijoin selectivity are both high. *)

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
  p_build_outer : bool;
      (** hash join only: build the table on the (filtered) outer side —
          chosen by the cost-based planner when the selection leaves the
          outer smaller than the inner *)
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
  p_planner : string;  (** "cost-based" | "rule-based" (EXPLAIN) *)
  p_sel_cands : (string * float) list;
      (** access-path candidates for the leading predicate with their
          estimated costs, cheapest first (cost-based planner only) *)
  p_join_cands : (string * float) list;
      (** join-method candidates with estimated costs, cheapest first *)
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
  ?stats:join_stats -> outer:Join.side -> inner:Join.side -> unit -> join_choice
(** The §4 join-method decision: a precomputed join when the outer column
    is a foreign key to the inner relation; Sort Merge under the §3.3.5
    high-duplicates exception; otherwise the cheapest feasible method under
    the {!Cost} formulas at the raw relation cardinalities. *)

val choose_join_cost :
  ?stats:join_stats ->
  est_sel:int ->
  outer:Join.side ->
  inner:Join.side ->
  unit ->
  join_choice * bool * (string * float) list
(** The cost-based join decision: the foreign-key and §3.3.5 rules are
    kept, everything else is minimum estimated cost over the feasible
    candidates with the outer side at its selection-reduced cardinality
    [est_sel] — including a build-on-outer hash join when the filtered
    outer is the smaller side.  Returns (choice, build_outer, candidate
    names with costs, cheapest first). *)

val plan : ?stats:join_stats -> Db.t -> Query.t -> plan
(** Resolve names against the catalog and choose methods.
    @raise Invalid_argument on unknown relations or columns. *)

val pp_plan : Format.formatter -> plan -> unit
