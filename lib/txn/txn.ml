(** Transactions over the MM-DBMS: deferred updates, redo-only logging,
    partition-level locking (§2.4).

    Writes performed inside a transaction are buffered as intention records
    (and logged to the stable buffer) and applied to the memory-resident
    database atomically at commit — which is why "if the transaction aborts,
    then the log entry is removed and no undo is needed".  Reads see
    committed state.

    Locking is at partition granularity.  Reads take shared locks on the
    partitions of the tuples they return; deletes and updates take exclusive
    locks on the target tuple's partition at declaration time; inserts take
    the relation's growth lock (partition id -1), since the target partition
    is unknown until placement.  Lock requests never block the calling
    thread: they surface [Would_block] / [Deadlock_victim] to the scheduler
    driving the simulation. *)

open Mmdb_storage

type failure = Would_block | Deadlock_victim | Failed of string

let pp_failure ppf = function
  | Would_block -> Fmt.string ppf "would block"
  | Deadlock_victim -> Fmt.string ppf "deadlock victim"
  | Failed msg -> Fmt.pf ppf "failed: %s" msg

type wop =
  | W_insert of { rel : string; values : Value.t array }
  | W_delete of { rel : string; tuple : Tuple.t }
  | W_update of { rel : string; tuple : Tuple.t; col : int; value : Value.t }

type status = Active | Committed | Aborted

type manager = {
  rels : (string, Relation.t) Hashtbl.t;
  locks : Lock_manager.t;
  buffer : Log_buffer.t;
  store : Disk_store.t;
  device : Log_device.t;
  fault : Fault.t;
  mutable next_txn : int;
  statuses : (int, status) Hashtbl.t;
  intents : (int, wop list) Hashtbl.t;  (** newest first *)
}

type txn = { id : int; mgr : manager }

let create_manager ?(fault = Fault.none) () =
  let store = Disk_store.create ~fault () in
  {
    rels = Hashtbl.create 8;
    locks = Lock_manager.create ();
    buffer = Log_buffer.create ();
    store;
    device = Log_device.create ~fault ~store ();
    fault;
    next_txn = 1;
    statuses = Hashtbl.create 16;
    intents = Hashtbl.create 16;
  }

let add_relation mgr rel_t =
  let n = Relation.name rel_t in
  if Hashtbl.mem mgr.rels n then
    Error (Printf.sprintf "relation %s already registered" n)
  else begin
    Hashtbl.replace mgr.rels n rel_t;
    (* Initial checkpoint so the disk copy knows the relation exists. *)
    Disk_store.checkpoint mgr.store rel_t;
    Ok ()
  end

let relation mgr n = Hashtbl.find_opt mgr.rels n

let find_rel mgr n =
  match Hashtbl.find_opt mgr.rels n with
  | Some r -> Ok r
  | None -> Error (Failed (Printf.sprintf "unknown relation %s" n))

let store mgr = mgr.store
let device mgr = mgr.device
let lock_manager mgr = mgr.locks
let fault mgr = mgr.fault

let begin_txn mgr =
  let id = mgr.next_txn in
  mgr.next_txn <- id + 1;
  Hashtbl.replace mgr.statuses id Active;
  Hashtbl.replace mgr.intents id [];
  { id; mgr }

let status t = Option.value ~default:Aborted (Hashtbl.find_opt t.mgr.statuses t.id)

let check_active t =
  match status t with
  | Active -> Ok ()
  | Committed -> Error (Failed "transaction already committed")
  | Aborted -> Error (Failed "transaction already aborted")

let lock t res mode =
  match Lock_manager.acquire t.mgr.locks ~txn:t.id res mode with
  | Lock_manager.Granted -> Ok ()
  | Lock_manager.Blocked -> Error Would_block
  | Lock_manager.Deadlock -> Error Deadlock_victim

let growth_lock rel = { Lock_manager.rel; pid = Lock_manager.growth_pid }

let partition_lock rel tuple =
  { Lock_manager.rel; pid = (Tuple.resolve tuple).Value.pid }

let add_intent t op =
  let cur = Option.value ~default:[] (Hashtbl.find_opt t.mgr.intents t.id) in
  Hashtbl.replace t.mgr.intents t.id (op :: cur)

let ( let* ) = Result.bind

let insert t ~rel values =
  let* () = check_active t in
  let* _ = find_rel t.mgr rel in
  let* () = lock t (growth_lock rel) Lock_manager.Exclusive in
  add_intent t (W_insert { rel; values = Array.copy values });
  Ok ()

let delete t ~rel tuple =
  let* () = check_active t in
  let* _ = find_rel t.mgr rel in
  let* () = lock t (partition_lock rel tuple) Lock_manager.Exclusive in
  add_intent t (W_delete { rel; tuple });
  Ok ()

let update t ~rel tuple ~col value =
  let* () = check_active t in
  let* _ = find_rel t.mgr rel in
  let* () = lock t (partition_lock rel tuple) Lock_manager.Exclusive in
  (* The update may move the tuple to a new partition at apply time; the
     growth lock covers that possibility. *)
  let* () = lock t (growth_lock rel) Lock_manager.Exclusive in
  add_intent t (W_update { rel; tuple; col; value });
  Ok ()

let read t ~rel ?index key =
  let* () = check_active t in
  let* r = find_rel t.mgr rel in
  let tuples = Relation.lookup ?index r key in
  (* Shared-lock every partition the result touches. *)
  let rec lock_parts = function
    | [] -> Ok tuples
    | tu :: rest ->
        let* () = lock t (partition_lock rel tu) Lock_manager.Shared in
        lock_parts rest
  in
  lock_parts tuples

let read_range t ~rel ?index ~lo ~hi () =
  let* () = check_active t in
  let* r = find_rel t.mgr rel in
  let acc = ref [] in
  Relation.lookup_range ?index r ~lo ~hi (fun tu -> acc := tu :: !acc);
  let tuples = List.rev !acc in
  let rec lock_parts = function
    | [] -> Ok tuples
    | tu :: rest ->
        let* () = lock t (partition_lock rel tu) Lock_manager.Shared in
        lock_parts rest
  in
  lock_parts tuples

let abort t =
  Log_buffer.abort t.mgr.buffer ~txn:t.id;
  Hashtbl.remove t.mgr.intents t.id;
  (* [status] reads a forgotten transaction as aborted *)
  Hashtbl.remove t.mgr.statuses t.id;
  Lock_manager.release_all t.mgr.locks ~txn:t.id

(* Inverse operations for unwinding a partially applied commit. *)
type applied =
  | A_inserted of string * Tuple.t
  | A_deleted of string * Tuple.t
  | A_updated of string * Tuple.t * int * Value.t  (** old value *)

let undo mgr = function
  | A_inserted (rel, tuple) -> (
      match relation mgr rel with
      | Some r -> ignore (Relation.delete_tuple r tuple)
      | None -> ())
  | A_deleted (rel, tuple) -> (
      match relation mgr rel with
      | Some r -> ignore (Relation.undelete r tuple)
      | None -> ())
  | A_updated (rel, tuple, col, old_v) -> (
      match relation mgr rel with
      | Some r -> ignore (Relation.update_field r tuple col old_v)
      | None -> ())

let commit t =
  match check_active t with
  | Error f -> Error (Fmt.str "%a" pp_failure f)
  | Ok () ->
      (* One deferred MVCC write scope covers apply, log and publish: the
         versions the intents push become visible under one commit
         timestamp when it closes, so a snapshot reader never sees part of
         a transaction, and a failed apply discards them unpublished. *)
      Version_store.with_write @@ fun () ->
      let ops =
        List.rev (Option.value ~default:[] (Hashtbl.find_opt t.mgr.intents t.id))
      in
      (* Apply each intent; log its change (with the partition it landed in)
         into the stable buffer.  On any failure, unwind and abort. *)
      let rec apply applied = function
        | [] -> Ok ()
        | op :: rest -> (
            match op with
            | W_insert { rel; values } -> (
                match find_rel t.mgr rel with
                | Error f -> Error (Fmt.str "%a" pp_failure f, applied)
                | Ok r -> (
                    match Relation.insert r values with
                    | Error msg -> Error (msg, applied)
                    | Ok tuple ->
                        Log_buffer.append t.mgr.buffer ~txn:t.id ~rel
                          ~pid:(Tuple.resolve tuple).Value.pid
                          (Log_record.Insert (Log_record.serialize_tuple tuple));
                        apply (A_inserted (rel, tuple) :: applied) rest))
            | W_delete { rel; tuple } -> (
                match find_rel t.mgr rel with
                | Error f -> Error (Fmt.str "%a" pp_failure f, applied)
                | Ok r ->
                    let pid = (Tuple.resolve tuple).Value.pid in
                    if Relation.delete_tuple r tuple then begin
                      Log_buffer.append t.mgr.buffer ~txn:t.id ~rel ~pid
                        (Log_record.Delete { tid = Tuple.id tuple });
                      apply (A_deleted (rel, tuple) :: applied) rest
                    end
                    else Error ("tuple already gone", applied))
            | W_update { rel; tuple; col; value } -> (
                match find_rel t.mgr rel with
                | Error f -> Error (Fmt.str "%a" pp_failure f, applied)
                | Ok r -> (
                    let old_v = Tuple.get_raw (Tuple.resolve tuple) col in
                    match Relation.update_field r tuple col value with
                    | Error msg -> Error (msg, applied)
                    | Ok () ->
                        Log_buffer.append t.mgr.buffer ~txn:t.id ~rel
                          ~pid:(Tuple.resolve tuple).Value.pid
                          (Log_record.Update
                             {
                               tid = Tuple.id tuple;
                               col;
                               svalue = Log_record.serialize_value value;
                             });
                        apply (A_updated (rel, tuple, col, old_v) :: applied)
                          rest)))
      in
      match apply [] ops with
      | Error (msg, applied) ->
          (* Discard the MVCC intents — the versions pushed by the
             partial apply were never published, so popping them leaves no
             trace — and physically unwind with the hooks off, under one
             write mark. *)
          Version_store.rollback_pending (fun () ->
              List.iter (undo t.mgr) applied);
          abort t;
          Error msg
      | Ok () ->
          (* A crash here loses the transaction entirely: its intentions
             never reached the stable buffer. *)
          Fault.hit t.mgr.fault ~point:"commit.before-log";
          ignore (Log_buffer.commit t.mgr.buffer ~txn:t.id);
          (* Commit is complete once the stable buffer holds the records;
             the log device picks them up asynchronously.  We absorb them
             eagerly here so crash simulations see them accumulated. *)
          Log_device.absorb t.mgr.device t.mgr.buffer;
          (* A crash here loses only the acknowledgement: the transaction
             is durable and recovery must replay it. *)
          Fault.hit t.mgr.fault ~point:"commit.after-log";
          Hashtbl.replace t.mgr.statuses t.id Committed;
          Hashtbl.remove t.mgr.intents t.id;
          Lock_manager.release_all t.mgr.locks ~txn:t.id;
          Ok ()

let checkpoint_all mgr =
  (* Propagate everything, rewrite partition images wholesale, then drop
     the retained log prefix the fresh images now cover. *)
  ignore (Log_device.propagate mgr.device);
  Hashtbl.iter (fun _ rel_t -> Disk_store.checkpoint mgr.store rel_t) mgr.rels;
  ignore (Log_device.truncate mgr.device)
