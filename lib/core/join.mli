(** Join processing (§3.3): the five algorithms of the paper's study plus
    the pointer-based joins of §2.1.

    Every algorithm yields a temporary list of
    [(outer tuple ptr, inner tuple ptr)] entries under a joined descriptor
    — no data is copied.  Equijoins only, as in the paper. *)

open Mmdb_storage

type side = { rel : Relation.t; col : int }
(** A relation and the position of its join column. *)

type method_ =
  | Nested_loops
  | Hash_join
  | Tree_join
  | Sort_merge
  | Tree_merge

val method_name : method_ -> string
val all_methods : method_ list

val nested_loops :
  ?outer_filter:(Tuple.t -> bool) -> outer:side -> inner:side -> unit -> Temp_list.t
(** The O(N²) baseline with no index (Graph 10). *)

val hash_join :
  ?pool:Mmdb_util.Domain_pool.t ->
  ?build_outer:bool ->
  ?outer_filter:(Tuple.t -> bool) ->
  outer:side ->
  inner:side ->
  unit ->
  Temp_list.t
(** Nested loops through a Chained Bucket Hash built on the inner join
    column.  The build cost is always included: "a hash table index is
    less likely to exist than a T Tree index" (§3.3.2).

    One kernel over {!Relation.iter_batches}, at any batch size.  Both
    sides are routed by hash of the join key into partitions, each an
    independent build+probe: one partition, or — with a parallel [pool]
    and a large enough input (combined cardinality >= 2048) — one per
    worker, run on the pool and concatenated.  The result multiset is
    the same either way; the counters differ only by the routing
    dereferences and the smaller per-partition tables.

    [build_outer] (default false) builds the table on the outer side
    instead and probes with the inner — chosen by the cost-based planner
    when the selection leaves the outer smaller than the inner; the
    [outer_filter] then applies at build time, so the table holds only
    qualifying tuples.  With several partitions the hint is ignored: each
    partition picks its build side (role reversal on skew). *)

val find_tree_index : side -> Relation.index_instance option
(** The pre-existing ordered index on a side's join column, if any. *)

val tree_join :
  ?outer_filter:(Tuple.t -> bool) -> outer:side -> inner:side -> unit -> Temp_list.t
(** Nested loops through a {e pre-existing} ordered index on the inner
    join column (building one just for the join never pays off, §3.3.2).
    @raise Invalid_argument when no such index exists. *)

val sort_merge :
  ?pool:Mmdb_util.Domain_pool.t ->
  ?cutoff:int ->
  ?outer_filter:(Tuple.t -> bool) ->
  outer:side ->
  inner:side ->
  unit ->
  Temp_list.t
(** Build array indexes on both join columns, quicksort them ([cutoff] is
    the insertion-sort threshold, default 10 per footnote 6), merge.
    Build and sort costs are always charged; duplicate runs rescan the
    contiguous array with integer cursors, the efficiency behind its
    high-output wins (Graphs 7/8).  With a parallel [pool], each side's
    quicksort runs via {!Mmdb_util.Qsort.sort_parallel}; the merge join
    itself stays sequential. *)

val tree_merge :
  ?outer_filter:(Tuple.t -> bool) -> outer:side -> inner:side -> unit -> Temp_list.t
(** Merge join over {e pre-existing} ordered indexes on both join columns.
    @raise Invalid_argument when either index is missing. *)

val run :
  ?pool:Mmdb_util.Domain_pool.t ->
  ?build_outer:bool ->
  ?outer_filter:(Tuple.t -> bool) ->
  ?est_rows:int ->
  method_ ->
  outer:side ->
  inner:side ->
  Temp_list.t
(** Uniform driver over the five algorithms.  [pool] enables the parallel
    forms of {!hash_join} and {!sort_merge}, also under an MVCC snapshot;
    the other methods ignore it.  [build_outer] applies to {!hash_join} only.  [est_rows] is the optimizer's output-cardinality estimate,
    recorded as the [est_rows] trace attribute and fed with the actual
    row count to {!Feedback.observe} under {!feedback_key} (keyed on the
    method that actually ran, after any MVCC-snapshot remap). *)

val feedback_key : method_:method_ -> outer:side -> inner:side -> string
(** The (method, outer, inner) key under which {!Feedback} aggregates
    estimated-vs-actual cardinalities for this join shape. *)

val feedback_key_of :
  method_name:string -> outer_name:string -> inner_name:string -> string
(** Raw constructor behind {!feedback_key}; the precomputed pointer join
    uses [~method_name:"Precomputed" ~inner_name:"*"]. *)

val skew_stats : unit -> int * int
(** [(repartitions, role_reversals)]: the repartition count is always 0
    (role reversal alone handles skew); the second is the cumulative
    number of partitions the partitioned join built on the probe side
    because a hot key made the inner side exceed its bound.  Surfaced in
    STATS and in the join trace span. *)

(** {1 Non-equijoins (§3.3.5)} *)

type inequality = Lt | Le | Gt | Ge

val inequality_name : inequality -> string

val tree_inequality_join :
  ?outer_filter:(Tuple.t -> bool) ->
  op:inequality ->
  outer:side ->
  inner:side ->
  unit ->
  Temp_list.t
(** Non-equijoin with predicate [outer_key op inner_key], served by the
    ordering of a {e pre-existing} tree index on the inner join column —
    per the paper's note that ordered indices serve every non-equijoin
    except [<>].  For [Lt]/[Le] the inner index is scanned upward from
    each outer key; for [Gt]/[Ge] its in-order prefix is scanned.
    @raise Invalid_argument when no ordered index exists. *)

(** {1 Pointer-based joins (§2.1)} *)

val precomputed :
  ?est_rows:int ->
  outer:Relation.t ->
  ref_col:int ->
  inner_schema:Schema.t ->
  unit ->
  Temp_list.t
(** Query 1 style: the outer's foreign-key column already holds tuple
    pointers, so the join just follows them ("the joining tuples have
    already been paired").  [Null] pointers produce no pair.  [est_rows]
    behaves as in {!run}.
    @raise Invalid_argument if the column holds non-pointer values. *)

val pointer_join :
  outer:Relation.t -> ref_col:int -> selected:Temp_list.t -> Temp_list.t
(** Query 2 style: join a selected set of inner tuples back to the outer
    relation, comparing tuple {e pointers} rather than data values.
    [selected] must be a single-source temporary list over the referenced
    relation. *)

(** {1 Internals exposed for tests} *)

val merge_sequences :
  key_of1:('a -> Value.t) ->
  key_of2:('b -> Value.t) ->
  'a Seq.t ->
  'b Seq.t ->
  emit:('a -> 'b -> unit) ->
  unit
(** Merge two key-ordered sequences, emitting the cross product of each
    pair of equal-key runs; inner runs are rescanned through persistent
    sequence positions rather than buffered. *)

