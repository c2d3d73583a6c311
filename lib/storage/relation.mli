(** Relations: partitioned tuple storage where {e all} access goes through
    an index.

    §2.1: "the relations will not be allowed to be traversed directly, so
    all access to a relation is through an index.  (Note that this
    requires all relations to have at least one index.)"  [create] demands
    a primary index definition; the public scan {!iter} walks the primary
    index; direct partition iteration exists only for the recovery
    subsystem ({!iter_storage}).

    Indices hold tuple pointers, not attribute values (§2.2); each is an
    instance of one of the eight [Mmdb_index] structures, comparing tuples
    by extracting the indexed columns through the pointer. *)

type structure =
  | T_tree
  | Avl_tree
  | B_tree
  | Array_index
  | Chained_hash
  | Extendible_hash
  | Linear_hash
  | Mod_linear_hash

val structure_module : structure -> (module Mmdb_index.Index_intf.S)
val structure_is_ordered : structure -> bool

type index_def = {
  idx_name : string;
  columns : int array;  (** column positions; multi-attribute allowed *)
  unique : bool;
  structure : structure;
}

(** A live index: the structure module paired with its handle over this
    relation's tuples. *)
module type INSTANCE = sig
  module I : Mmdb_index.Index_intf.S

  val def : index_def
  val handle : Tuple.t I.t
end

type index_instance = (module INSTANCE)

type t

val create :
  ?slot_capacity:int ->
  ?heap_capacity:int ->
  ?expected:int ->
  schema:Schema.t ->
  primary:index_def ->
  unit ->
  t
(** @raise Invalid_argument if the primary index references a column
    outside the schema. *)

val schema : t -> Schema.t
val name : t -> string

val count : t -> int
(** Live tuple count; under an active MVCC snapshot, the count of tuples
    visible to that snapshot: a snapshot read entry, O(d) in the
    relation's versioned tuples. *)

val cardinality : t -> int
(** The live tuple count, in O(1), whatever snapshot is active.  For
    estimates (the planner, statistics staleness), not for answers. *)

val slot_capacity : t -> int
val heap_capacity : t -> int
val partitions : t -> Partition.t list

(** {1 MVCC} *)

val versioned_count : t -> int
(** How many tuples the relation lists as versioned (non-empty chain):
    the d every snapshot read entry and GC pass walks. *)

val gc : t -> horizon:int -> int
(** Prune the versioned tuples to [horizon] under the write mark
    ({!Version_store.gc_versioned}); returns the versions reclaimed. *)

(** {1 Indices} *)

val primary : t -> index_instance
val indices : t -> index_instance list
val index_defs : t -> index_def list
val find_index : t -> string -> index_instance option
val find_index_exn : t -> string -> index_instance

val find_index_on : ?ordered:bool -> t -> columns:int array -> index_instance option
(** An index keyed exactly on [columns]; with [~ordered:true], only
    order-preserving structures qualify. *)

val create_index :
  ?structure:structure ->
  ?unique:bool ->
  t ->
  idx_name:string ->
  columns:int array ->
  (unit, string) result
(** Build a new index over the current contents (populated through the
    primary index).  Fails on duplicate names or, for unique indexes, on
    duplicate keys. *)

val drop_index : t -> idx_name:string -> (unit, string) result
(** The primary index cannot be dropped. *)

(** {1 Tuple operations} *)

val insert : t -> Value.t array -> (Tuple.t, string) result
(** Type-check, enter into every index (unwinding on a uniqueness
    violation), and place into a partition. *)

val delete_tuple : t -> Tuple.t -> bool

val undelete : t -> Tuple.t -> (unit, string) result
(** Put a tuple that {!delete_tuple} removed back — the same record, so
    its identity and MVCC history survive.  For unwinding a failed
    commit. *)

val update_field : t -> Tuple.t -> int -> Value.t -> (unit, string) result
(** Update one field: only indices covering the column reposition their
    (pointer) entries.  If a growing string overflows the partition heap,
    the record moves to another partition behind a forwarding address
    (§2.1 footnote 1).  Uniqueness violations roll the update back. *)

(** {1 Access paths (all through indices)}

    Under an active MVCC snapshot each entry below makes two passes: it
    walks the live index for the tuples whose version chain is empty,
    waiting out a write operation in progress, and merges in the
    relation's versioned tuples visible at the snapshot, in the index's
    key order.  A read costs O(log n + m + d) for m results and d
    versioned tuples ({!versioned_count}). *)

val iter_matches : ?index:string -> t -> Value.t array -> (Tuple.t -> unit) -> unit
(** Every tuple whose index key equals the probe values; [index] defaults
    to the primary. *)

val lookup : ?index:string -> t -> Value.t array -> Tuple.t list
(** {!iter_matches}, collected. *)

val lookup_one : ?index:string -> t -> Value.t array -> Tuple.t option

val lookup_range :
  ?index:string -> t -> lo:Value.t array -> hi:Value.t array -> (Tuple.t -> unit) -> unit
(** Inclusive range scan; requires an ordered index.
    @raise Mmdb_index.Index_intf.Unsupported on hash indexes. *)

val lookup_from :
  ?index:string -> t -> Value.t array -> (Tuple.t -> unit) -> unit
(** Ascending scan of all tuples with index key [>=] the probe values.
    @raise Mmdb_index.Index_intf.Unsupported on hash indexes. *)

val lookup_below :
  ?index:string ->
  inclusive:bool ->
  t ->
  Value.t array ->
  (Tuple.t -> unit) ->
  unit
(** Ascending scan of all tuples with index key [<] the probe values
    ([<=] when [inclusive]): an in-order walk that stops at the first key
    past them, charging one comparison and one dereference per key it
    tests.
    @raise Mmdb_index.Index_intf.Unsupported on hash indexes. *)

val iter : t -> (Tuple.t -> unit) -> unit
(** Scan in primary-index order. *)

val iter_via : ?index:string -> t -> (Tuple.t -> unit) -> unit

val to_seq : ?index:string -> t -> Tuple.t Seq.t
(** The tuples in index order as a sequence.  Without a snapshot it is
    the live index's own persistent sequence, so a saved position
    replays the index scan; under one it is the snapshot's tuples,
    collected by one pass before the sequence is returned. *)

val iter_batches :
  ?key_col:int -> ?size:int -> t -> (Batch.t -> unit) -> unit
(** Batched scan production for the vectorized operator kernels: fills
    fixed-size batches (tuple pointers plus the extracted [key_col]
    slice) in {!iter} order and hands each to [f].  The batch is reused
    across calls — consume it before returning.  Under an MVCC snapshot,
    visibility filtering and version resolution happen once at fill
    time, so kernels reading the key slice are snapshot-safe without
    further [Tuple.get]s.  Key extraction is uncounted; the consumer
    accounts the §3.1 dereferences.  [size] defaults to
    {!Batch.size}. *)

val iter_storage : t -> (Tuple.t -> unit) -> unit
(** Direct partition iteration — recovery subsystem only. *)

val validate : t -> (unit, string) result
(** Deep consistency check: partition accounting, per-index invariants,
    index sizes, and reachability of every stored tuple through every
    index. *)
