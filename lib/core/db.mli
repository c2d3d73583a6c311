(** The database catalog: named relations plus foreign-key maintenance.

    §2.1: when a schema declares a foreign key, "the MM-DBMS can
    substitute a tuple pointer field for the foreign key field".
    {!insert} performs that substitution, resolving a scalar key value
    through the target relation's primary index. *)

open Mmdb_storage

type t

val create : unit -> t

val add : t -> Relation.t -> (unit, string) result
(** Register an existing relation; fails on a duplicate name. *)

val find : t -> string -> Relation.t option
val find_exn : t -> string -> Relation.t
val relations : t -> Relation.t list

val create_relation :
  ?slot_capacity:int ->
  ?heap_capacity:int ->
  ?expected:int ->
  t ->
  schema:Schema.t ->
  primary_key:string ->
  (Relation.t, string) result
(** Create and register a relation with a unique T Tree primary index on
    the named column. *)

val resolve_foreign_keys :
  t -> Schema.t -> Value.t array -> (Value.t array, string) result
(** Substitute tuple pointers for scalar foreign-key values; values that
    are already pointers (or [Null]) pass through.  Fails on a dangling
    key or a missing target relation. *)

val resolve_row :
  t -> rel:string -> Value.t array -> (Value.t array, string) result
(** Arity check and foreign-key substitution of a row for [rel]. *)

val insert : t -> rel:string -> Value.t array -> (Tuple.t, string) result
(** {!resolve_row}, then [Relation.insert]. *)

(** {1 One-to-many pointer lists}

    §2.1: a foreign-key field "could hold a list of pointers if the
    relationship is one to many".  These maintain a [T_refs] column,
    keeping any indices over it consistent. *)

val link :
  t -> rel:string -> Tuple.t -> col:int -> target_key:Value.t -> (unit, string) result
(** Append a pointer to the target tuple (identified by its primary key)
    to the pointer list; idempotent. *)

val unlink :
  t -> rel:string -> Tuple.t -> col:int -> target_key:Value.t -> (unit, string) result
(** Remove the pointer to the target tuple; succeeds silently when it was
    not linked. *)
