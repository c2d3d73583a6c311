(** Selection (§3.2, §4).

    Three access paths exist in the MM-DBMS: hash lookup (exact match
    only), tree lookup (exact match or range), and sequential scan through
    an unrelated index.  §4's preference ordering is total: "a hash lookup
    is always faster than a tree lookup which is always faster than a
    sequential scan"; {!best_path} encodes it.

    Results are temporary lists of tuple pointers (§2.3) — selection copies
    nothing. *)

open Mmdb_util
open Mmdb_storage

type predicate =
  | Eq of int * Value.t  (** column = value *)
  | Between of int * Value.t * Value.t  (** lo <= column <= hi, inclusive *)
  | Filter of (Tuple.t -> bool)  (** arbitrary residual predicate *)

let matches tuple = function
  | Eq (col, v) -> Value.equal (Tuple.get tuple col) v
  | Between (col, lo, hi) ->
      let x = Tuple.get tuple col in
      Value.compare lo x <= 0 && Value.compare x hi <= 0
  | Filter f -> f tuple

type access_path =
  | Hash_lookup of string  (** index name; exact match only *)
  | Tree_lookup of string  (** index name; exact match or range *)
  | Sequential_scan  (** scan via the primary index *)

let pp_path ppf = function
  | Hash_lookup i -> Fmt.pf ppf "hash lookup via %s" i
  | Tree_lookup i -> Fmt.pf ppf "tree lookup via %s" i
  | Sequential_scan -> Fmt.string ppf "sequential scan"

(* Indexes usable for an exact-match / range predicate on [col]. *)
let candidate_indexes rel ~col =
  List.filter_map
    (fun (module Inst : Relation.INSTANCE) ->
      if Inst.def.Relation.columns = [| col |] then
        Some (Inst.def.Relation.idx_name, Inst.I.kind)
      else None)
    (Relation.indices rel)

(* §4's ordering: hash > tree > scan; hash only serves exact matches. *)
let best_path rel = function
  | Eq (col, _) -> (
      let cands = candidate_indexes rel ~col in
      match
        List.find_opt (fun (_, k) -> k = Mmdb_index.Index_intf.Hash) cands
      with
      | Some (name, _) -> Hash_lookup name
      | None -> (
          match
            List.find_opt
              (fun (_, k) -> k = Mmdb_index.Index_intf.Ordered)
              cands
          with
          | Some (name, _) -> Tree_lookup name
          | None -> Sequential_scan))
  | Between (col, _, _) -> (
      match
        List.find_opt
          (fun (_, k) -> k = Mmdb_index.Index_intf.Ordered)
          (candidate_indexes rel ~col)
      with
      | Some (name, _) -> Tree_lookup name
      | None -> Sequential_scan)
  | Filter _ -> Sequential_scan

(* Partitions below this total cardinality are scanned sequentially: the
   fork/join round trip costs more than the scan it saves. *)
let parallel_scan_threshold = 1024

(* A worker's local list of the tuples [iter] offers that pass [keep].
   Survivors collect in a batch buffer that flushes with one bulk append
   ({!Temp_list.append_n}), not one append — and one domain-local budget
   read — per tuple. *)
let survivors desc ~keep iter =
  let local = Temp_list.create desc in
  let buf = Array.make (Batch.size ()) Tuple.filler in
  let m = ref 0 in
  iter (fun tuple ->
      if keep tuple then begin
        buf.(!m) <- tuple;
        incr m;
        if !m = Array.length buf then begin
          Temp_list.append_n local buf !m;
          m := 0
        end
      end);
  Temp_list.append_n local buf !m;
  local

(* Partition-parallel sequential scan: relations already store tuples in
   partitions (§2.1), so each worker scans a disjoint set of partitions
   into a local temporary list and the coordinator concatenates.  Every
   tuple is touched exactly once with the same [Tuple.get] dereferences
   as the sequential scan, so the paper's counters merge to identical
   totals; only the emission order differs (storage order rather than
   primary-index order — result sets are unordered).  *)
let scan_parallel pool rel ~keep out =
  let parts = Array.of_list (Relation.partitions rel) in
  let desc = Temp_list.descriptor out in
  let locals =
    Domain_pool.parallel_map pool
      (fun p -> survivors desc ~keep (Partition.iter p))
      parts
  in
  Array.iter (fun l -> Temp_list.append_all out l) locals

(* Parallel scan under a snapshot: the coordinator collects the tuples
   visible at its snapshot through the relation's two-pass snapshot
   read, chunks them, and each worker applies [keep] to its chunk with
   the snapshot installed in its DLS ({!Version_store.with_installed_snapshot},
   safe because the coordinator holds its registry slot until every
   future is awaited), so residual [Tuple.get]s resolve
   snapshot-consistent values.  Emission order is chunk order (result
   sets are unordered); MVCC-mode equivalence with the sequential path
   is by multiset. *)
let scan_parallel_snapshot pool rel ~snapshot ~keep out =
  let acc = ref [] in
  Relation.iter rel (fun t -> acc := t :: !acc);
  let tuples = Array.of_list (List.rev !acc) in
  let n = Array.length tuples in
  let desc = Temp_list.descriptor out in
  if n > 0 then begin
    let ranges =
      Domain_pool.chunks ~n ~pieces:(4 * Domain_pool.size pool)
    in
    let locals =
      Domain_pool.parallel_map pool
        (fun (lo, hi) ->
          Version_store.with_installed_snapshot snapshot (fun () ->
              survivors desc ~keep (fun f ->
                  for i = lo to hi - 1 do
                    f tuples.(i)
                  done)))
        ranges
    in
    Array.iter (fun l -> Temp_list.append_all out l) locals
  end

let use_parallel_scan pool rel =
  match
    Domain_pool.fan_out pool ~n:(Relation.cardinality rel)
      ~threshold:parallel_scan_threshold
  with
  | Some _ as p
    when Version_store.current_snapshot () <> None
         || List.length (Relation.partitions rel) > 1 ->
      p
  | _ -> None

(* The sequential scan: batches come off the relation with the first
   indexable predicate's column pre-extracted into the key slice, the
   first predicate is evaluated in a monomorphic loop over that
   contiguous slice, and survivors flush with one bulk append per batch.
   Counter bumps follow the paper's scan operation for operation — one
   logical dereference per first-predicate evaluation (amortized into a
   single [~n] bump per batch), residuals through the same counted
   [matches] — so §3.1 totals are identical at every batch size. *)
let scan_seq rel ~predicates out =
  let key_col, check_first, rest =
    match predicates with
    | Eq (c, v) :: rest -> (Some c, (fun k -> Value.equal k v), rest)
    | Between (c, lo, hi) :: rest ->
        ( Some c,
          (fun k -> Value.compare lo k <= 0 && Value.compare k hi <= 0),
          rest )
    | rest -> (None, (fun _ -> true), rest)
  in
  let size = Batch.size () in
  let keep = Array.make size Tuple.filler in
  (* Monomorphic kernels for the hot shapes: a lone int [Eq]/[Between]
     head runs an unboxed comparison loop over the contiguous key slice
     instead of a closure call + polymorphic compare per tuple. *)
  let filter_keys =
    match (predicates, rest) with
    | Eq (_, Value.Int v) :: _, [] ->
        fun keys tuples n m ->
          for i = 0 to n - 1 do
            match keys.(i) with
            | Value.Int k when k = v ->
                keep.(!m) <- tuples.(i);
                incr m
            | _ -> ()
          done
    | Between (_, Value.Int lo, Value.Int hi) :: _, [] ->
        fun keys tuples n m ->
          for i = 0 to n - 1 do
            match keys.(i) with
            | Value.Int k when lo <= k && k <= hi ->
                keep.(!m) <- tuples.(i);
                incr m
            | _ -> ()
          done
    | _ ->
        fun keys tuples n m ->
          for i = 0 to n - 1 do
            if check_first keys.(i) && List.for_all (matches tuples.(i)) rest
            then begin
              keep.(!m) <- tuples.(i);
              incr m
            end
          done
  in
  Relation.iter_batches ?key_col ~size rel (fun b ->
      let n = b.Batch.n in
      let m = ref 0 in
      (match key_col with
      | Some _ ->
          (* the paper's scan pays one [Tuple.get] per tuple for the
             first predicate; same total, bumped once per batch *)
          Counters.bump_ptr_derefs ~n ();
          filter_keys b.Batch.keys b.Batch.tuples n m
      | None ->
          for i = 0 to n - 1 do
            let t = b.Batch.tuples.(i) in
            if List.for_all (matches t) rest then begin
              keep.(!m) <- t;
              incr m
            end
          done);
      if !m > 0 then Temp_list.append_n out keep !m)

(* The (relation, access-path, predicate-shape) key under which the
   feedback store aggregates estimated-vs-actual cardinalities.  Values
   are deliberately excluded: "Emp.age = 30" and "Emp.age = 50" share a
   shape, which is exactly the granularity the optimizer estimates at.
   The leading predicate's column name IS included ("eq@Age") — the
   index advisor aggregates these keys into per-(relation, column,
   shape) access counts, so the column must be recoverable. *)
let feedback_key rel ~path ~predicates =
  let path_tag =
    match path with
    | Hash_lookup _ -> "hash"
    | Tree_lookup _ -> "tree"
    | Sequential_scan -> "scan"
  in
  let colname c = Schema.column_name (Relation.schema rel) c in
  let shape =
    match predicates with
    | [] -> "none"
    | first :: rest ->
        let head =
          match first with
          | Eq (c, _) -> "eq@" ^ colname c
          | Between (c, _, _) -> "between@" ^ colname c
          | Filter _ -> "filter"
        in
        if rest = [] then head
        else Printf.sprintf "%s+%d" head (List.length rest)
  in
  Printf.sprintf "select/%s/%s:%s" (Relation.name rel) path_tag shape

(* The index advisor may drop a secondary index between planning and
   execution; degrade to a sequential scan (always correct for any
   predicate list) instead of failing the query. *)
let resolve_path rel path =
  match path with
  | Sequential_scan -> Sequential_scan
  | (Hash_lookup idx | Tree_lookup idx) as p ->
      if Relation.find_index rel idx = None then Sequential_scan else p

(* Run a selection with an explicit access path; residual predicates are
   applied on top.  The first predicate is the indexable one. *)
let run ?pool ?est_rows rel ~path ~predicates =
  Trace.with_span "select" @@ fun () ->
  let path = resolve_path rel path in
  if Trace.active () then begin
    Trace.add_attr "relation" (Relation.name rel);
    Trace.add_attr "path" (Fmt.str "%a" pp_path path);
    (match est_rows with
    | Some e -> Trace.add_attr "est_rows" (string_of_int e)
    | None -> ());
    if path = Sequential_scan then
      Trace.add_attr "batch" (string_of_int (Batch.size ()))
  end;
  let out = Temp_list.create (Descriptor.of_schema (Relation.schema rel)) in
  let residual_ok tuple rest = List.for_all (matches tuple) rest in
  (match (path, predicates) with
  | Hash_lookup idx, Eq (_, v) :: rest ->
      List.iter
        (fun tuple -> if residual_ok tuple rest then Temp_list.append out [| tuple |])
        (Relation.lookup ~index:idx rel [| v |])
  | Tree_lookup idx, Eq (_, v) :: rest ->
      Relation.lookup_range ~index:idx rel ~lo:[| v |] ~hi:[| v |] (fun tuple ->
          if residual_ok tuple rest then Temp_list.append out [| tuple |])
  | Tree_lookup idx, Between (_, lo, hi) :: rest ->
      Relation.lookup_range ~index:idx rel ~lo:[| lo |] ~hi:[| hi |]
        (fun tuple ->
          if residual_ok tuple rest then Temp_list.append out [| tuple |])
  | Sequential_scan, preds -> (
      match use_parallel_scan pool rel with
      | Some pool -> (
          match Version_store.current_snapshot () with
          | Some s ->
              scan_parallel_snapshot pool rel ~snapshot:s
                ~keep:(fun t -> residual_ok t preds)
                out
          | None ->
              scan_parallel pool rel ~keep:(fun t -> residual_ok t preds) out)
      | None -> scan_seq rel ~predicates:preds out)
  | (Hash_lookup _ | Tree_lookup _), _ ->
      invalid_arg "Select.run: access path incompatible with predicate");
  let actual = Temp_list.length out in
  if Trace.active () then Trace.add_attr "rows" (string_of_int actual);
  (match est_rows with
  | Some est ->
      Feedback.observe ~key:(feedback_key rel ~path ~predicates) ~est ~actual
  | None -> ());
  out

(* Selection with automatic access-path choice. *)
let select ?pool rel predicates =
  match predicates with
  | [] -> run ?pool rel ~path:Sequential_scan ~predicates:[]
  | first :: _ ->
      let path = best_path rel first in
      run ?pool rel ~path ~predicates
