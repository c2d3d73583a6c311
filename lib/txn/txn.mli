(** Transactions over the MM-DBMS: deferred updates, redo-only logging,
    partition-level locking (§2.4).

    Writes inside a transaction are buffered as intention records and
    applied to the memory-resident database atomically at commit — which
    is why an abort only has to discard log entries.  Reads see committed
    state.  Lock requests never block the calling thread; they surface
    {!Would_block} / {!Deadlock_victim} to whatever scheduler drives the
    simulation.

    A manager can carry a {!Fault.t} injector; the commit path exposes the
    ["commit.before-log"] and ["commit.after-log"] crash points, and the
    injector is shared with the manager's disk store and log device. *)

open Mmdb_storage

type failure = Would_block | Deadlock_victim | Failed of string

val pp_failure : Format.formatter -> failure -> unit

type manager
type txn

type status = Active | Committed | Aborted

val create_manager : ?fault:Fault.t -> unit -> manager

val add_relation : manager -> Relation.t -> (unit, string) result
(** Register a relation and write its initial checkpoint to the disk
    store; [Error] on duplicate names. *)

val relation : manager -> string -> Relation.t option
val store : manager -> Disk_store.t
val device : manager -> Log_device.t
val lock_manager : manager -> Lock_manager.t
val fault : manager -> Fault.t

val begin_txn : manager -> txn
val status : txn -> status

val insert : txn -> rel:string -> Value.t array -> (unit, failure) result
(** Declare an insert (applied at commit).  Takes the relation's growth
    lock exclusively. *)

val delete : txn -> rel:string -> Tuple.t -> (unit, failure) result
(** Declare a delete; exclusive lock on the tuple's partition. *)

val update :
  txn -> rel:string -> Tuple.t -> col:int -> Value.t -> (unit, failure) result
(** Declare a field update; exclusive locks on the tuple's partition and
    the growth lock (the tuple may move partitions at apply time). *)

val read : txn -> rel:string -> ?index:string -> Value.t array
  -> (Tuple.t list, failure) result
(** Committed-state key lookup; shared locks on the partitions of every
    returned tuple. *)

val read_range :
  txn ->
  rel:string ->
  ?index:string ->
  lo:Value.t array ->
  hi:Value.t array ->
  unit ->
  (Tuple.t list, failure) result

val commit : txn -> (unit, string) result
(** Apply the intention list in order, logging each change to the stable
    buffer; hand the committed records to the log device; release locks.
    Apply and log run in one MVCC write scope, so the transaction's
    versions publish under one commit timestamp.  Any apply failure (e.g.
    a uniqueness violation) unwinds every applied operation and aborts
    the whole transaction. *)

val abort : txn -> unit
(** Discard intentions and log entries, release locks — no undo needed. *)

val checkpoint_all : manager -> unit
(** Propagate the whole accumulation log, rewrite all partition images,
    then truncate the retained log they now cover. *)
