(** Evaluate parsed statements against a catalog. *)

type outcome =
  | Rows of Mmdb_storage.Temp_list.t  (** a query result (tuple pointers) *)
  | Table of Mmdb_core.Aggregate.result
      (** aggregation output (materialized rows) *)
  | Message of string  (** DDL/DML acknowledgements, listings *)
  | Plan_text of string  (** EXPLAIN output *)

type session
(** A shell session: the catalog plus a transaction manager sharing its
    relations.  Every write is a §2.4 transaction.  DML inside
    [BEGIN ... COMMIT] is deferred to [COMMIT] (queries inside a
    transaction read committed state; [ROLLBACK] needs no undo).  Outside
    a transaction each INSERT, UPDATE or DELETE is a one-statement
    transaction: it takes the same locks and log records, fails with
    "would block" on another transaction's lock, and applies whole or
    not at all. *)

val session : ?mgr:Mmdb_txn.Txn.manager -> Mmdb_core.Db.t -> session
(** Wrap a catalog; its current relations are registered with the
    transaction manager, as are tables created later through {!exec}.
    Passing [?mgr] makes several sessions share one transaction manager
    (hence one lock table) — required when concurrent sessions operate on
    the same catalog, e.g. under the network server. *)

val manager : session -> Mmdb_txn.Txn.manager
(** The session's transaction manager (for sharing via [session ?mgr]). *)

val in_txn : session -> bool

val exec : session -> Ast.stmt -> (outcome, string) result
(** Execute one statement.  Statements still containing unbound [?]
    parameters are rejected — bind them with {!Ast.substitute_params}
    first. *)

val exec_string : session -> string -> (outcome list, string) result
(** Parse and run a whole script, stopping at the first error. *)

val pp_outcome : Format.formatter -> outcome -> unit
