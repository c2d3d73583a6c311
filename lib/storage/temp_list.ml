(** Temporary lists (§2.3): intermediate query results.

    "A temporary list is a list of tuple pointers plus an associated result
    descriptor" — each entry points back into the source relation(s); no
    attribute data is copied until results are rendered.  Unlike relations,
    a temporary list may be traversed directly; it can also carry an index.

    Figure 1's example: joining Employee and Department on department id
    yields entries [(emp_ptr, dept_ptr)] under the descriptor
    [Emp.Name; Emp.Age; Dept.Name]. *)

type entry = Tuple.t array  (** one pointer per source relation *)

type t = {
  desc : Descriptor.t;
  mutable entries : entry array;
  mutable count : int;
}

(* --- per-query tuple budget -------------------------------------------- *)

exception Quota_exceeded of { used : int; limit : int }

type budget = { limit : int; mutable used : int }

(* Domain-local, like Trace's collector: the serving layer installs a
   budget around one executor job, and every append on that domain charges
   it.  Parallel operator workers fill their local lists on other domains
   unbudgeted; the coordinator's stitch-up ([append_all] / [concat])
   charges the full entry count, so fanned-out intermediates are still
   accounted where they accumulate.  When no budget is installed (the
   common case) the cost is one DLS read and a branch. *)
let budget_key : budget option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let charge n =
  match Domain.DLS.get budget_key with
  | None -> ()
  | Some b ->
      b.used <- b.used + n;
      if b.used > b.limit then
        raise (Quota_exceeded { used = b.used; limit = b.limit })

let with_budget ~limit f =
  let prev = Domain.DLS.get budget_key in
  Domain.DLS.set budget_key (Some { limit; used = 0 });
  Fun.protect ~finally:(fun () -> Domain.DLS.set budget_key prev) f

let budget_used () =
  match Domain.DLS.get budget_key with None -> None | Some b -> Some b.used

let create desc = { desc; entries = [||]; count = 0 }

(* Make room for [needed] entries, at least doubling.  The new slots hold
   the empty array, a static atom, never an entry: OCaml's [Array.make]
   runs a minor collection first when it builds an array too large for
   the minor heap around a minor-heap value, and while pool workers exist
   every minor collection stops all domains.  A fill with an entry would
   force one per doubling past 256 slots, in every worker's local list of
   a parallel scan. *)
let ensure_capacity t needed =
  if needed > Array.length t.entries then begin
    let grown =
      Array.make (max 16 (max needed (2 * Array.length t.entries))) [||]
    in
    Array.blit t.entries 0 grown 0 t.count;
    t.entries <- grown
  end

let descriptor t = t.desc
let length t = t.count

let append t entry =
  if Array.length entry <> Descriptor.n_sources t.desc then
    invalid_arg "Temp_list.append: entry arity does not match descriptor";
  charge 1;
  ensure_capacity t (t.count + 1);
  t.entries.(t.count) <- entry;
  t.count <- t.count + 1

(* Bulk append with a single capacity check — the concatenation half of
   partition-parallel scans (each worker fills a local list, the
   coordinator stitches them together). *)
let append_all t src =
  if Descriptor.n_sources src.desc <> Descriptor.n_sources t.desc then
    invalid_arg "Temp_list.append_all: source arity does not match";
  if src.count > 0 then begin
    charge src.count;
    let needed = t.count + src.count in
    ensure_capacity t needed;
    Array.blit src.entries 0 t.entries t.count src.count;
    t.count <- needed
  end

(* Bulk appends for the batched kernels: one quota charge and one
   capacity check per flush instead of per entry.  The first [n] tuples
   of [tuples] become single-source entries. *)
let append_n t tuples n =
  if Descriptor.n_sources t.desc <> 1 then
    invalid_arg "Temp_list.append_n: single-source lists only";
  if n > 0 then begin
    charge n;
    ensure_capacity t (t.count + n);
    for i = 0 to n - 1 do
      t.entries.(t.count + i) <- [| tuples.(i) |]
    done;
    t.count <- t.count + n
  end

(* The first [n] already-built entries of [entries]. *)
let append_many t entries n =
  if n > 0 then begin
    if Array.length entries.(0) <> Descriptor.n_sources t.desc then
      invalid_arg "Temp_list.append_many: entry arity does not match";
    charge n;
    ensure_capacity t (t.count + n);
    Array.blit entries 0 t.entries t.count n;
    t.count <- t.count + n
  end

let concat desc parts =
  let t = create desc in
  List.iter (fun p -> append_all t p) parts;
  t

let get t i =
  if i < 0 || i >= t.count then invalid_arg "Temp_list.get: out of bounds";
  t.entries.(i)

let iter t f =
  for i = 0 to t.count - 1 do
    f t.entries.(i)
  done

let to_seq t =
  let rec from i () =
    if i >= t.count then Seq.Nil else Seq.Cons (t.entries.(i), from (i + 1))
  in
  from 0

(* The value of descriptor field [i] for [entry]: follow the pointer, read
   the column. *)
let field_value t entry i =
  let f = Descriptor.field t.desc i in
  Tuple.get entry.(f.Descriptor.source) f.Descriptor.column

(* Render an entry as a row of values, in descriptor order.  This is the
   only point where data is copied out of the source relations. *)
let materialize_entry t entry =
  Array.init (Descriptor.arity t.desc) (fun i -> field_value t entry i)

let materialize t =
  let rows = ref [] in
  iter t (fun e -> rows := materialize_entry t e :: !rows);
  List.rev !rows

(* Single-source temporary list over a whole relation, scanned through its
   primary index (per the access rule of §2.1). *)
let of_relation rel =
  let t = create (Descriptor.of_schema (Relation.schema rel)) in
  Relation.iter rel (fun tuple -> append t [| tuple |]);
  t

(* Narrow the visible fields without touching the entries (projection by
   descriptor, §2.3/§3.4). *)
let project t labels = { t with desc = Descriptor.project t.desc labels }

(* §2.3: "it is also possible to have an index on a temporary list".  The
   index holds the list's entries, keyed by one descriptor field; like all
   MM-DBMS indices it stores (entry) pointers and extracts the key through
   them on each comparison.  Probe entries carry a wildcard-identity probe
   tuple in the keyed slot, mirroring [Tuple.compare_keyed]. *)
module type ENTRY_INDEX = sig
  module I : Mmdb_index.Index_intf.S

  val handle : entry I.t
  val field : int
end

type entry_index = (module ENTRY_INDEX)

let build_index ?(structure : (module Mmdb_index.Index_intf.S) option) t
    ~label =
  match Descriptor.field_index t.desc label with
  | None -> Error (Printf.sprintf "no field %S in descriptor" label)
  | Some field ->
      let (module I) =
        Option.value structure
          ~default:(module Mmdb_index.Ttree : Mmdb_index.Index_intf.S)
      in
      let f = Descriptor.field t.desc field in
      let src = f.Descriptor.source and col = f.Descriptor.column in
      let key (e : entry) = Tuple.get e.(src) col in
      let cmp a b =
        let c = Value.compare (key a) (key b) in
        if c <> 0 then c
        else if Tuple.is_probe a.(src) || Tuple.is_probe b.(src) then 0
        else
          (* distinct entries with equal keys coexist; identity tie-break *)
          compare (Array.map Tuple.id a) (Array.map Tuple.id b)
      in
      let hash e = Value.hash (key e) in
      let handle = I.create ~duplicates:true ~expected:t.count ~cmp ~hash () in
      iter t (fun e -> ignore (I.insert handle e));
      Ok
        (module struct
          module I = I

          let handle = handle
          let field = field
        end : ENTRY_INDEX)

(* Key lookup through a temporary-list index. *)
let lookup_via t (module Idx : ENTRY_INDEX) v =
  let f = Descriptor.field t.desc Idx.field in
  let src_schema = t.desc.Descriptor.sources.(f.Descriptor.source) in
  let fields = Array.make (Schema.arity src_schema) Value.Null in
  fields.(f.Descriptor.column) <- v;
  let probe_tuple = Tuple.probe fields in
  let probe = Array.make (Descriptor.n_sources t.desc) probe_tuple in
  let acc = ref [] in
  Idx.I.iter_matches Idx.handle probe (fun e -> acc := e :: !acc);
  List.rev !acc

let pp ppf t =
  Fmt.pf ppf "@[<v>%a@,%d rows@]" Descriptor.pp t.desc t.count
