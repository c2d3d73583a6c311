(** Relations: partitioned tuple storage where {e all} access goes through
    an index.

    §2.1: "the relations will not be allowed to be traversed directly, so
    all access to a relation is through an index.  (Note that this requires
    all relations to have at least one index.)"  Accordingly [create]
    demands a primary index definition, and the public scan {!iter} walks
    the primary index.  Direct partition iteration exists only for the
    recovery subsystem ({!iter_storage}).

    Indices hold tuple pointers, not attribute values (§2.2); each index is
    an instance of one of the eight {!Mmdb_index} structures, comparing
    tuples by extracting the indexed columns through the pointer. *)

type structure =
  | T_tree
  | Avl_tree
  | B_tree
  | Array_index
  | Chained_hash
  | Extendible_hash
  | Linear_hash
  | Mod_linear_hash

let structure_module : structure -> (module Mmdb_index.Index_intf.S) =
  function
  | T_tree -> (module Mmdb_index.Ttree)
  | Avl_tree -> (module Mmdb_index.Avl_tree)
  | B_tree -> (module Mmdb_index.Btree)
  | Array_index -> (module Mmdb_index.Array_index)
  | Chained_hash -> (module Mmdb_index.Chained_hash)
  | Extendible_hash -> (module Mmdb_index.Extendible_hash)
  | Linear_hash -> (module Mmdb_index.Linear_hash)
  | Mod_linear_hash -> (module Mmdb_index.Mod_linear_hash)

let structure_is_ordered s =
  let (module I) = structure_module s in
  I.kind = Mmdb_index.Index_intf.Ordered

type index_def = {
  idx_name : string;
  columns : int array;  (** column positions; multi-attribute allowed *)
  unique : bool;
  structure : structure;
}

module type INSTANCE = sig
  module I : Mmdb_index.Index_intf.S

  val def : index_def
  val handle : Tuple.t I.t
end

type index_instance = (module INSTANCE)

type t = {
  schema : Schema.t;
  slot_capacity : int;
  heap_capacity : int;
  mutable partitions : Partition.t list;  (** newest first *)
  mutable next_pid : int;
  mutable indices : index_instance list;  (** primary index first *)
  mutable count : int;
  versioned : Version_store.versioned;
      (** tuples with a non-empty version chain, for snapshot reads *)
}

let schema t = t.schema
let name t = t.schema.Schema.name
let slot_capacity t = t.slot_capacity
let heap_capacity t = t.heap_capacity
let partitions t = List.rev t.partitions
let cardinality t = t.count
let versioned_count t = t.versioned.Version_store.size

let def_of (module Inst : INSTANCE) = Inst.def

let indices t = t.indices
let index_defs t = List.map def_of t.indices

let make_instance ~expected (def : index_def) : index_instance =
  Array.iter
    (fun c -> if c < 0 then invalid_arg "Relation: negative column in index")
    def.columns;
  if Array.length def.columns = 0 then
    invalid_arg "Relation: index needs at least one column";
  let (module I) = structure_module def.structure in
  let cmp =
    if def.unique then Tuple.compare_on ~columns:def.columns
    else Tuple.compare_keyed ~columns:def.columns
  in
  let hash = Tuple.hash_on ~columns:def.columns in
  let handle =
    (* With the identity tie-break every stored element is distinct, so the
       underlying structure always runs in duplicate-accepting mode except
       when enforcing uniqueness. *)
    I.create ~duplicates:(not def.unique) ~expected ~cmp ~hash ()
  in
  (module struct
    module I = I

    let def = def
    let handle = handle
  end : INSTANCE)

let create ?(slot_capacity = Partition.default_slot_capacity)
    ?(heap_capacity = Partition.default_heap_capacity) ?(expected = 1024)
    ~schema ~primary () =
  Array.iter
    (fun c ->
      if c >= Schema.arity schema then
        invalid_arg "Relation.create: index column out of schema range")
    primary.columns;
  {
    schema;
    slot_capacity;
    heap_capacity;
    partitions = [];
    next_pid = 0;
    indices = [ make_instance ~expected primary ];
    count = 0;
    versioned = Version_store.make_versioned ();
  }

let primary t =
  match t.indices with
  | inst :: _ -> inst
  | [] -> assert false (* create always installs a primary index *)

let find_index t idx_name =
  List.find_opt
    (fun (module Inst : INSTANCE) -> String.equal Inst.def.idx_name idx_name)
    t.indices

let find_index_exn t idx_name =
  match find_index t idx_name with
  | Some inst -> inst
  | None ->
      invalid_arg
        (Printf.sprintf "Relation %s: no index named %S" (name t) idx_name)

(* Find an index whose key is exactly [columns]; prefer ordered structures
   when [ordered] is requested. *)
let find_index_on ?(ordered = false) t ~columns =
  List.find_opt
    (fun (module Inst : INSTANCE) ->
      Inst.def.columns = columns
      && ((not ordered) || Inst.I.kind = Mmdb_index.Index_intf.Ordered))
    t.indices

(* --- tuple placement ------------------------------------------------- *)

let new_partition t =
  let p =
    Partition.create ~slot_capacity:t.slot_capacity
      ~heap_capacity:t.heap_capacity ~pid:t.next_pid ()
  in
  t.next_pid <- t.next_pid + 1;
  t.partitions <- p :: t.partitions;
  p

let partition_of_exn t pid =
  match List.find_opt (fun p -> Partition.pid p = pid) t.partitions with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "Relation %s: no partition %d" (name t) pid)

let place_tuple t tuple =
  let heap_need = Tuple.heap_bytes tuple in
  if heap_need > t.heap_capacity then
    Error
      (Printf.sprintf
         "tuple needs %d heap bytes, exceeding partition heap capacity %d"
         heap_need t.heap_capacity)
  else begin
    let rec try_parts = function
      | [] ->
          (* A fresh partition can only refuse the tuple under a degenerate
             configuration (e.g. zero slot capacity).  Surface it as a
             typed error rather than aborting the process: a server must
             answer the offending request and keep running. *)
          let p = new_partition t in
          (match Partition.add p tuple with
          | Partition.Added -> Ok ()
          | Slots_full ->
              Error
                (Printf.sprintf
                   "fresh partition rejected tuple: slot capacity %d too small"
                   t.slot_capacity)
          | Heap_full ->
              Error
                (Printf.sprintf
                   "fresh partition rejected tuple: %d heap bytes exceed \
                    capacity %d"
                   heap_need t.heap_capacity))
      | p :: rest -> (
          match Partition.add p tuple with
          | Partition.Added -> Ok ()
          | Slots_full | Heap_full -> try_parts rest)
    in
    try_parts t.partitions
  end

(* --- index plumbing --------------------------------------------------- *)

let idx_insert (module Inst : INSTANCE) tuple = Inst.I.insert Inst.handle tuple
let idx_delete (module Inst : INSTANCE) tuple = Inst.I.delete Inst.handle tuple

let probe_for t (def : index_def) key =
  if Array.length key <> Array.length def.columns then
    invalid_arg
      (Printf.sprintf "Relation %s: key arity %d, index %s wants %d" (name t)
         (Array.length key) def.idx_name
         (Array.length def.columns));
  let fields = Array.make (Schema.arity t.schema) Value.Null in
  Array.iteri (fun j c -> fields.(c) <- key.(j)) def.columns;
  Tuple.probe fields

(* --- MVCC snapshot reads ----------------------------------------------- *)

(* Field arrays [a] against [b] on [columns], from position [j]; read
   without the §3.1 tally, so that counters do not depend on what is
   versioned. *)
let rec compare_fields columns a b j =
  if j >= Array.length columns then 0
  else
    let c = Value.compare a.(columns.(j)) b.(columns.(j)) in
    if c <> 0 then c else compare_fields columns a b (j + 1)

(* The index key of [a] and [b] at snapshot [s], then identity: the
   order {!Tuple.compare_keyed} gives the live index. *)
let compare_at s columns a b =
  let at tu = Version_store.fields_at s (Tuple.resolve tu) in
  let c = compare_fields columns (at a) (at b) 0 in
  if c <> 0 then c else Int.compare (Tuple.id a) (Tuple.id b)

let unversioned (tu : Tuple.t) = tu.Value.vers.Value.vs = []

(* Under an MVCC snapshot [s], a read entry makes two passes.  Under the
   reader drain ({!Version_store.exclusive_read}), which waits out any
   held write mark and keeps marks out until it returns, it walks the
   live index with [traverse] keeping only the tuples whose chain is
   empty — those have the same fields and membership at every live
   snapshot — and captures the relation's versioned tuples.  After the
   drain it keeps the versioned tuples visible at [s] whose key there
   lies within the probes [lo] and [hi], sorts those few by the index
   key at [s] and merges them in.  The traversal only collects; no
   filtering or caller callback runs while writers wait.  A read costs
   O(log n + m + d) for m matches and d versioned tuples, whatever
   writes ran since [s]. *)
let snapshot_tuples t s (module Inst : INSTANCE) ?lo ?hi ?(open_hi = false)
    traverse =
  let columns = Inst.def.columns in
  let within bound sign fields =
    match bound with
    | None -> true
    | Some (p : Tuple.t) -> sign (compare_fields columns fields p.Value.fields 0)
  in
  let keep fields =
    within lo (fun c -> c >= 0) fields
    && within hi (fun c -> c < 0 || (c = 0 && not open_hi)) fields
  in
  let rev_live, versioned =
    Version_store.exclusive_read t.versioned (fun () ->
        let acc = ref [] in
        traverse (fun tu -> if unversioned tu then acc := tu :: !acc);
        !acc)
  in
  let live = List.rev rev_live in
  match Version_store.visible_of s keep versioned with
  | [] -> live
  | extra ->
      let cmp = compare_at s columns in
      List.merge cmp live (List.sort cmp extra)

let instance t = function None -> primary t | Some n -> find_index_exn t n

(* The one read body of every entry: walk [traverse] directly without a
   snapshot, else hand [f] the snapshot's tuples. *)
let read t inst ?lo ?hi ?open_hi traverse f =
  match Version_store.current_snapshot () with
  | None -> traverse f
  | Some s -> List.iter f (snapshot_tuples t s inst ?lo ?hi ?open_hi traverse)

(* Range scans need an ordered index on every path, snapshot or not. *)
let ordered (module Inst : INSTANCE) =
  if Inst.I.kind <> Mmdb_index.Index_intf.Ordered then
    raise
      (Mmdb_index.Index_intf.Unsupported (Inst.I.name ^ ": no range scans"))

(* At a snapshot: the live count, less the versioned tuples still
   stored (a deleted tuple's [pid] is -1), plus the versioned tuples
   visible at [s]. *)
let count t =
  match Version_store.current_snapshot () with
  | None -> t.count
  | Some s ->
      let live, versioned =
        Version_store.exclusive_read t.versioned (fun () ->
            List.fold_left
              (fun n tu -> if (Tuple.resolve tu).Value.pid >= 0 then n - 1 else n)
              t.count t.versioned.Version_store.tuples)
      in
      live + List.length (Version_store.visible_of s (fun _ -> true) versioned)

let gc t ~horizon = Version_store.gc_versioned t.versioned ~horizon

(* --- public operations ------------------------------------------------ *)

let versioned (tu : Tuple.t) = not (unversioned tu)

(* Every index-mutating entry holds the write mark
   ({!Version_store.mutating}) so that no snapshot read walks an index
   mid-change. *)

(* Enter [tuple] into every index and a partition, unwinding on a
   uniqueness violation or a full heap. *)
let enter t tuple =
  let rec go done_ = function
    | [] -> Ok ()
    | inst :: rest ->
        if idx_insert inst tuple then go (inst :: done_) rest
        else begin
          List.iter (fun i -> ignore (idx_delete i tuple)) done_;
          Error (Printf.sprintf "unique index %s violated" (def_of inst).idx_name)
        end
  in
  match go [] t.indices with
  | Error _ as e -> e
  | Ok () -> (
      match place_tuple t tuple with
      | Error msg ->
          List.iter (fun i -> ignore (idx_delete i tuple)) t.indices;
          Error msg
      | Ok () ->
          t.count <- t.count + 1;
          Ok ())

let insert t values =
  match Schema.check_tuple t.schema values with
  | Error msg -> Error msg
  | Ok () ->
      Version_store.mutating ~versioned:false @@ fun () ->
      let tuple = Tuple.make (Array.copy values) in
      Result.map
        (fun () ->
          Version_store.on_insert t.versioned tuple;
          tuple)
        (enter t tuple)

(* The same record back, with its identity and version history: a failed
   commit's unwind of a delete. *)
let undelete t tuple =
  let resolved = Tuple.resolve tuple in
  Version_store.mutating ~versioned:(versioned resolved) (fun () ->
      enter t resolved)

let delete_tuple t tuple =
  let resolved = Tuple.resolve tuple in
  if resolved.Value.pid < 0 then false
  else Version_store.mutating ~versioned:(versioned resolved) @@ fun () ->
    let p = partition_of_exn t resolved.Value.pid in
    if Partition.remove p resolved then begin
      List.iter (fun inst -> ignore (idx_delete inst tuple)) t.indices;
      resolved.Value.pid <- -1;
      t.count <- t.count - 1;
      Version_store.on_delete t.versioned resolved;
      true
    end
    else false

let iter_matches ?index t key f =
  let (module Inst : INSTANCE) as inst = instance t index in
  let probe = probe_for t Inst.def key in
  read t inst ~lo:probe ~hi:probe (Inst.I.iter_matches Inst.handle probe) f

let lookup ?index t key =
  let acc = ref [] in
  iter_matches ?index t key (fun tu -> acc := tu :: !acc);
  List.rev !acc

let lookup_one ?index t key =
  match lookup ?index t key with [] -> None | tu :: _ -> Some tu

let lookup_range ?index t ~lo ~hi f =
  let (module Inst : INSTANCE) as inst = instance t index in
  ordered inst;
  let lo = probe_for t Inst.def lo and hi = probe_for t Inst.def hi in
  read t inst ~lo ~hi (Inst.I.range Inst.handle ~lo ~hi) f

let lookup_from ?index t key f =
  let (module Inst : INSTANCE) as inst = instance t index in
  ordered inst;
  let lo = probe_for t Inst.def key in
  read t inst ~lo (Inst.I.iter_from Inst.handle lo) f

exception Past

(* The stop test of a walk bounded above by [hi], on the live key (the
   order the index holds), charged as a caller's own test would be: one
   comparison, and a dereference to read the key. *)
let past ~inclusive columns (hi : Tuple.t) tu =
  Mmdb_util.Counters.bump_comparisons ();
  Mmdb_util.Counters.bump_ptr_derefs ();
  let c = compare_fields columns (Tuple.resolve tu).Value.fields hi.Value.fields 0 in
  c > 0 || (c = 0 && not inclusive)

let lookup_below ?index ~inclusive t key f =
  let (module Inst : INSTANCE) as inst = instance t index in
  ordered inst;
  let hi = probe_for t Inst.def key in
  let columns = Inst.def.columns in
  read t inst ~hi ~open_hi:(not inclusive)
    (fun g ->
      try
        Inst.I.iter Inst.handle (fun tu ->
            if past ~inclusive columns hi tu then raise_notrace Past else g tu)
      with Past -> ())
    f

let iter_via ?index t f =
  let (module Inst : INSTANCE) as inst = instance t index in
  read t inst (Inst.I.iter Inst.handle) f

(* Scan through the primary index, honouring the all-access-via-index rule. *)
let iter t f = iter_via t f

(* Without a snapshot the live index's persistent sequence, so that a
   merge join rescans duplicate runs through the index; under one the
   snapshot's tuples, collected by one pass. *)
let to_seq ?index t =
  let (module Inst : INSTANCE) as inst = instance t index in
  match Version_store.current_snapshot () with
  | None -> Inst.I.to_seq Inst.handle
  | Some s -> List.to_seq (snapshot_tuples t s inst (Inst.I.iter Inst.handle))

(* Batched scan production: fill fixed-size batches of tuple pointers
   with the values of [key_col] extracted into the batch's key slice.
   Under a snapshot the visibility filtering and version resolution
   happen here, at batch-fill time, instead of per downstream
   [Tuple.get] — this is what makes the vectorized kernels snapshot-safe
   on cached keys.  Extraction is uncounted ({!Tuple.peek}): the
   consuming kernel accounts the §3.1 logical dereferences itself, so
   counter totals are the same at every batch size.  The
   emission order is the same as {!iter}'s (primary-index order, or the
   sorted visible set under a snapshot). *)
let iter_batches ?key_col ?size t f =
  let size = match size with Some s -> max 1 s | None -> Batch.size () in
  let b = Batch.create ~size () in
  let tuples = b.Batch.tuples in
  let keys = b.Batch.keys in
  let cap = Array.length tuples in
  (* snapshot state read once per scan, not once per tuple *)
  let read = Tuple.scan_reader () in
  let flush () =
    if b.Batch.n > 0 then begin
      Batch.note_batch ~rows:b.Batch.n;
      f b;
      Batch.clear b
    end
  in
  let push =
    match key_col with
    | None ->
        fun tu ->
          let n = b.Batch.n in
          tuples.(n) <- tu;
          b.Batch.n <- n + 1;
          if n + 1 >= cap then flush ()
    | Some c ->
        fun tu ->
          let n = b.Batch.n in
          tuples.(n) <- tu;
          keys.(n) <- read tu c;
          b.Batch.n <- n + 1;
          if n + 1 >= cap then flush ()
  in
  iter t push;
  flush ()

(* Direct partition access — recovery subsystem only. *)
let iter_storage t f = List.iter (fun p -> Partition.iter p f) (partitions t)

let create_index ?(structure = T_tree) ?(unique = false) t ~idx_name ~columns
    =
  if find_index t idx_name <> None then
    Error (Printf.sprintf "index %s already exists" idx_name)
  else begin
    Array.iter
      (fun c ->
        if c < 0 || c >= Schema.arity t.schema then
          invalid_arg "Relation.create_index: column out of range")
      columns;
    let def = { idx_name; columns; unique; structure } in
    let inst = make_instance ~expected:(max 16 t.count) def in
    let ok = ref true in
    (* Sort-based bulk build: collect the live tuples once off the
       primary index, sort them by the new index's key with the
       paper's quicksort, and insert in ascending key order —
       ordered structures then fill by appending at the tail instead of
       rebalancing against random arrivals, the "fast index
       reconstruction via sorted load" idea.  Hash structures skip the
       sort (insertion order is irrelevant to them).  The uniqueness
       check stays with [idx_insert]: adjacent duplicates fail the
       insert exactly as random-order ones did. *)
    let tuples = ref [] and n = ref 0 in
    iter t (fun tuple ->
        tuples := tuple :: !tuples;
        incr n);
    let arr = Array.make !n Tuple.filler in
    List.iteri (fun i tuple -> arr.(!n - 1 - i) <- tuple) !tuples;
    if structure_is_ordered structure && !n > 1 then
      Mmdb_util.Qsort.sort ~cmp:(Tuple.compare_keyed ~columns) arr;
    Array.iter (fun tuple -> if !ok && not (idx_insert inst tuple) then ok := false) arr;
    if !ok then begin
      Version_store.writing (fun () -> t.indices <- t.indices @ [ inst ]);
      Ok ()
    end
    else
      Error
        (Printf.sprintf "cannot build unique index %s: duplicate key present"
           idx_name)
  end

let drop_index t ~idx_name =
  match t.indices with
  | (module P : INSTANCE) :: _ when String.equal P.def.idx_name idx_name ->
      Error "cannot drop the primary index"
  | _ ->
      if find_index t idx_name = None then
        Error (Printf.sprintf "no index named %s" idx_name)
      else begin
        Version_store.writing (fun () ->
            t.indices <-
              List.filter
                (fun (module Inst : INSTANCE) ->
                  not (String.equal Inst.def.idx_name idx_name))
                t.indices);
        Ok ()
      end

(* Update one field of a tuple.  Pointer-based indices make this cheap: only
   indices covering the column need their (pointer) entries repositioned.
   If a string grows past the partition's heap budget the tuple record moves
   to another partition, leaving a forwarding address (§2.1 footnote 1). *)
let update_field t tuple col v =
  if col < 0 || col >= Schema.arity t.schema then
    invalid_arg "Relation.update_field: column out of range";
  if not (Schema.value_fits (Schema.column_type t.schema col) v) then
    Error "value does not fit column type"
  else
    let resolved = Tuple.resolve tuple in
    Version_store.mutating ~versioned:(versioned resolved) @@ fun () ->
    (* The tuple's base version, before any field write. *)
    Version_store.prepare_update t.versioned resolved;
    let affected =
      List.filter
        (fun (module Inst : INSTANCE) -> Array.mem col Inst.def.columns)
        t.indices
    in
    (* Remove stale entries while the old key is still in place. *)
    List.iter (fun inst -> ignore (idx_delete inst tuple)) affected;
    let old_v = Tuple.get_raw resolved col in
    let delta = Value.byte_width v - Value.byte_width old_v in
    let heap_delta =
      match (old_v, v) with
      | Value.Str _, _ | _, Value.Str _ -> delta
      | _ -> 0
    in
    let p = partition_of_exn t resolved.Value.pid in
    let moved =
      if heap_delta <> 0 && not (Partition.adjust_heap p ~delta:heap_delta)
      then begin
        (* Heap overflow: move the record, forwarding the old address. *)
        ignore (Partition.remove p resolved);
        let fields = Array.copy resolved.Value.fields in
        fields.(col) <- v;
        let fresh = Tuple.move_record resolved ~fields in
        match place_tuple t fresh with
        | Ok () -> true
        | Error _ ->
            (* Undo: put the old record back unchanged. *)
            resolved.Value.forward <- None;
            ignore (Partition.add p resolved);
            false
      end
      else begin
        Tuple.update resolved col v;
        true
      end
    in
    let rec reenter done_ = function
      | [] -> Ok ()
      | inst :: rest ->
          if idx_insert inst tuple then reenter (inst :: done_) rest
          else begin
            List.iter (fun i -> ignore (idx_delete i tuple)) done_;
            Error
              (Printf.sprintf "unique index %s violated by update"
                 (def_of inst).idx_name)
          end
    in
    if not moved then begin
      (* Field unchanged; restore index entries. *)
      List.iter (fun inst -> ignore (idx_insert inst tuple)) affected;
      Error "update would overflow every partition heap"
    end
    else
      match reenter [] affected with
      | Ok () ->
          Version_store.on_update t.versioned (Tuple.resolve tuple);
          Ok ()
      | Error msg ->
          (* Revert the field and restore entries under the old key. *)
          Tuple.update tuple col old_v;
          (match (old_v, v) with
          | Value.Str _, _ | _, Value.Str _ ->
              let cur = Tuple.resolve tuple in
              let p' = partition_of_exn t cur.Value.pid in
              ignore (Partition.adjust_heap p' ~delta:(-heap_delta))
          | _ -> ());
          List.iter (fun inst -> ignore (idx_insert inst tuple)) affected;
          Error msg

let validate t =
  let exception Bad of string in
  try
    (* Partitions. *)
    List.iter
      (fun p ->
        match Partition.validate p with
        | Ok () -> ()
        | Error msg ->
            raise (Bad (Printf.sprintf "partition %d: %s" (Partition.pid p) msg)))
      t.partitions;
    let stored = List.fold_left (fun acc p -> acc + Partition.count p) 0 t.partitions in
    if stored <> t.count then
      raise (Bad (Printf.sprintf "partition tuples %d <> count %d" stored t.count));
    (* Indices: size and internal invariants. *)
    List.iter
      (fun (module Inst : INSTANCE) ->
        if Inst.I.size Inst.handle <> t.count then
          raise
            (Bad
               (Printf.sprintf "index %s holds %d entries, relation has %d"
                  Inst.def.idx_name
                  (Inst.I.size Inst.handle)
                  t.count));
        match Inst.I.validate Inst.handle with
        | Ok () -> ()
        | Error msg ->
            raise (Bad (Printf.sprintf "index %s: %s" Inst.def.idx_name msg)))
      t.indices;
    (* Every stored tuple reachable through every index. *)
    iter_storage t (fun tuple ->
        List.iter
          (fun (module Inst : INSTANCE) ->
            let found = ref false in
            Inst.I.iter_matches Inst.handle tuple (fun tu ->
                if Tuple.id tu = Tuple.id tuple then found := true);
            if not !found then
              raise
                (Bad
                   (Printf.sprintf "tuple t%d missing from index %s"
                      (Tuple.id tuple) Inst.def.idx_name)))
          t.indices);
    Ok ()
  with Bad msg -> Error msg
