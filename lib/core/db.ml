(** The database catalog: named relations plus foreign-key maintenance.

    §2.1: when a schema declares a foreign key (in the style proposed by
    Date), "the MM-DBMS can substitute a tuple pointer field for the foreign
    key field".  {!insert} performs that substitution: a scalar key value
    supplied for a [T_ref] column is resolved through the target relation's
    primary index and replaced by a pointer to the matching tuple. *)

open Mmdb_storage

(* The latch makes catalog lookups safe against a concurrent DDL writer:
   MVCC readers run off the dispatcher domain, and OCaml's Hashtbl is not
   safe under concurrent mutation.  Relation contents need no such guard —
   snapshot reads go through version chains. *)
type t = { rels : (string, Relation.t) Hashtbl.t; latch : Mutex.t }

let create () = { rels = Hashtbl.create 8; latch = Mutex.create () }

let add t rel =
  let n = Relation.name rel in
  Mutex.protect t.latch (fun () ->
      if Hashtbl.mem t.rels n then
        Error (Printf.sprintf "relation %s already exists" n)
      else begin
        Hashtbl.replace t.rels n rel;
        Ok ()
      end)

let find t name = Mutex.protect t.latch (fun () -> Hashtbl.find_opt t.rels name)

let find_exn t name =
  match find t name with
  | Some r -> r
  | None -> invalid_arg (Printf.sprintf "Db: unknown relation %s" name)

let relations t =
  Mutex.protect t.latch (fun () ->
      Hashtbl.fold (fun _ r acc -> r :: acc) t.rels [])
  |> List.sort (fun a b -> String.compare (Relation.name a) (Relation.name b))

(* Convenience constructor: create, register, and return a relation with a
   unique T Tree primary index on the named column. *)
let create_relation ?slot_capacity ?heap_capacity ?expected t ~schema
    ~primary_key =
  let pk_col = Schema.column_index_exn schema primary_key in
  let rel =
    Relation.create ?slot_capacity ?heap_capacity ?expected ~schema
      ~primary:
        {
          Relation.idx_name = "pk";
          columns = [| pk_col |];
          unique = true;
          structure = Relation.T_tree;
        }
      ()
  in
  match add t rel with Ok () -> Ok rel | Error _ as e -> e

(* Substitute tuple pointers for scalar foreign-key values (§2.1). *)
let resolve_foreign_keys t schema values =
  let values = Array.copy values in
  let rec resolve = function
    | [] -> Ok values
    | (col, target) :: rest -> (
        match values.(col) with
        | Value.Null | Value.Ref _ | Value.Refs _ ->
            resolve rest (* already a pointer (or absent) *)
        | scalar -> (
            match find t target with
            | None ->
                Error (Printf.sprintf "foreign key target %s not found" target)
            | Some target_rel -> (
                match Relation.lookup_one target_rel [| scalar |] with
                | Some tuple ->
                    values.(col) <- Value.Ref tuple;
                    resolve rest
                | None ->
                    Error
                      (Printf.sprintf
                         "dangling foreign key: no %s with key %s" target
                         (Value.to_string scalar)))))
  in
  resolve (Schema.foreign_keys schema)

(* One-to-many pointer lists (§2.1: a foreign-key field "could hold a list
   of pointers if the relationship is one to many").  [link] appends a
   pointer to the target tuple identified by its primary key; [unlink]
   removes it.  Both go through [Relation.update_field] so that indices
   covering the column stay consistent. *)
let refs_target schema col =
  match Schema.column_type schema col with
  | Schema.T_refs target -> Ok target
  | _ -> Error "column is not a one-to-many pointer list (T_refs)"

let edit_refs t ~rel tuple ~col ~target_key f =
  let r = find_exn t rel in
  let schema = Relation.schema r in
  if col < 0 || col >= Schema.arity schema then Error "column out of range"
  else
    match refs_target schema col with
    | Error _ as e -> e
    | Ok target -> (
        match find t target with
        | None -> Error (Printf.sprintf "foreign key target %s not found" target)
        | Some target_rel -> (
            match Relation.lookup_one target_rel [| target_key |] with
            | None ->
                Error
                  (Printf.sprintf "no %s with key %s" target
                     (Value.to_string target_key))
            | Some target_tuple -> (
                let current =
                  match Tuple.get tuple col with
                  | Value.Refs ts -> ts
                  | Value.Null -> []
                  | v ->
                      invalid_arg
                        (Printf.sprintf "T_refs column holds %s"
                           (Value.to_string v))
                in
                match f target_tuple current with
                | None -> Ok () (* no change needed *)
                | Some updated ->
                    Relation.update_field r tuple col (Value.Refs updated))))

let link t ~rel tuple ~col ~target_key =
  edit_refs t ~rel tuple ~col ~target_key (fun target current ->
      if List.exists (fun u -> Tuple.id u = Tuple.id target) current then None
      else Some (target :: current))

let unlink t ~rel tuple ~col ~target_key =
  edit_refs t ~rel tuple ~col ~target_key (fun target current ->
      if List.exists (fun u -> Tuple.id u = Tuple.id target) current then
        Some (List.filter (fun u -> Tuple.id u <> Tuple.id target) current)
      else None)

let resolve_row t ~rel values =
  match find t rel with
  | None -> Error (Printf.sprintf "unknown relation %s" rel)
  | Some r ->
      let schema = Relation.schema r in
      if Array.length values <> Schema.arity schema then
        Error
          (Printf.sprintf "%s: expected %d fields, got %d" rel
             (Schema.arity schema) (Array.length values))
      else resolve_foreign_keys t schema values

let insert t ~rel values =
  Result.bind (resolve_row t ~rel values) (Relation.insert (find_exn t rel))
