(** Operations on tuples (see {!Value.tuple} for the representation).

    Tuple pointers are the currency of the whole system: indices store them
    instead of key values (§2.2), temporary lists hold arrays of them
    (§2.3), and foreign keys follow them (§2.1).  Each dereference that
    reaches through a pointer for an attribute value is tallied in
    [Counters.ptr_derefs]. *)

open Mmdb_util

type t = Value.tuple

let next_id = ref 0

let make fields : t =
  let id = !next_id in
  incr next_id;
  { Value.id; fields; forward = None; pid = -1; vers = { Value.vs = [] } }

let id (t : t) = t.Value.id

(* Follow forwarding addresses left by partition moves.  Chains are at most
   one hop in practice (a tuple is forwarded at most once per heap
   overflow), but resolve fully for safety. *)
let rec resolve (t : t) =
  match t.Value.forward with None -> t | Some fwd -> resolve fwd

let arity (t : t) = Array.length (resolve t).Value.fields

(* Field access resolves against the active MVCC snapshot when one is
   installed (a server Read job): the visible version's frozen fields
   are read instead of the live array a concurrent writer may be
   replacing.  With no snapshot — the default — the extra cost is one
   domain-local read and a branch. *)
let get (t : t) i =
  Counters.bump_ptr_derefs ();
  (Version_store.current_fields (resolve t)).(i)

(* Raw accessor without counter or forwarding, for internal bookkeeping. *)
let get_raw (t : t) i = t.Value.fields.(i)

(* Snapshot-honouring field read without the ptr_deref tally: the batched
   kernels extract key slices with [peek] at batch-fill time and account
   the paper's logical dereferences themselves, per evaluation rather
   than per extraction, so §3.1 totals match the tuple-at-a-time path. *)
let peek (t : t) i = (Version_store.current_fields (resolve t)).(i)

(* [peek] hoisted out of the loop: capture the ambient snapshot state
   once per scan and return a field reader that skips the per-tuple
   domain-local lookup.  The batch fill path ({!Relation.iter_batches})
   calls this once and then reads thousands of fields through it. *)
let scan_reader () =
  match Version_store.current_snapshot () with
  | None -> fun (t : t) i -> (resolve t).Value.fields.(i)
  | Some s -> fun (t : t) i -> (Version_store.fields_at s (resolve t)).(i)

(* A stored tuple's field write replaces its field array rather than
   writing into it, so a snapshot reader that loaded the old array keeps
   reading consistent values ({!Version_store.fields_at}). *)
let update (t : t) i v =
  let t = resolve t in
  let fields = Array.copy t.Value.fields in
  fields.(i) <- v;
  t.Value.fields <- fields

let fields (t : t) = Array.copy (resolve t).Value.fields

let byte_width (t : t) =
  Array.fold_left
    (fun acc v -> acc + Value.byte_width v)
    0
    (resolve t).Value.fields

(* Heap bytes consumed by variable-length fields only (§2.1: "for a
   variable-length field, the tuple itself will contain a pointer to the
   field in the partition's heap space"). *)
let heap_bytes (t : t) =
  Array.fold_left
    (fun acc v -> match v with Value.Str s -> acc + String.length s | _ -> acc)
    0
    (resolve t).Value.fields

let pp ppf (t : t) =
  Fmt.pf ppf "@[<h>t%d(%a)@]" t.Value.id
    (Fmt.array ~sep:Fmt.comma Value.pp)
    (resolve t).Value.fields

(* Key extraction for indices: project the values of the index columns.
   A single tuple pointer gives access to any field, so multi-attribute
   indices need no special mechanism (§2.2). *)
let key ~columns (t : t) = Array.map (fun c -> get t c) columns

let compare_on ~columns a b =
  let rec go i =
    if i >= Array.length columns then 0
    else
      let c = Value.compare (get a columns.(i)) (get b columns.(i)) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

let hash_on ~columns t =
  let acc = ref 17 in
  Array.iter (fun c -> acc := (!acc * 31) + Value.hash (get t c)) columns;
  !acc

(* A probe is a transient tuple used only as a search key; its id of -1
   makes it a wildcard in [compare_keyed]'s identity tie-break, so a probe
   matches every tuple with the same key values. *)
let probe fields : t =
  { Value.id = -1; fields; forward = None; pid = -1; vers = { Value.vs = [] } }

let is_probe (t : t) = t.Value.id < 0

(* Made once, at module initialisation, so that it is promoted out of the
   minor heap long before any fill: [Array.make] runs a minor collection
   first when it builds an array of more than 256 slots around a
   minor-heap value, and with pool workers alive that stops every
   domain. *)
let filler = probe [||]

(* Comparison used by non-unique tuple indices: order by key values, then by
   tuple identity, so that each index entry is distinct and deleting a tuple
   removes exactly its own entry rather than an arbitrary key-equal one.
   Probes (id -1) compare equal to any tuple with the same key, which keeps
   key lookups working; they are never inserted, so the order remains total
   over stored elements. *)
let compare_keyed ~columns a b =
  let c = compare_on ~columns a b in
  if c <> 0 then c
  else if is_probe a || is_probe b then 0
  else Int.compare (id a) (id b)

(* Clone a tuple's record for a partition move, preserving its identity, and
   leave a forwarding address in the old record (§2.1 footnote 1). *)
let move_record (t : t) ~fields : t =
  let t = resolve t in
  (* the version chain travels with the identity: both records share it *)
  let fresh =
    { Value.id = t.Value.id; fields; forward = None; pid = -1;
      vers = t.Value.vers }
  in
  t.Value.forward <- Some fresh;
  fresh
