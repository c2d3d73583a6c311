(** Projection (§3.4).

    In the MM-DBMS most of projection is free: the result descriptor names
    the visible fields and no width reduction is ever performed, "so the
    only step requiring any significant processing is the final operation
    of removing duplicates".  Two duplicate-elimination methods from the
    paper:

    - {!sort_scan} [BBD83] — sort the entries on the projected fields
      (quicksort + insertion sort), then scan dropping adjacent equals;
    - {!hashing} [DKO84] — insert projected keys into a chained-bucket
      hash table of size |R|/2, discarding duplicates as they are met.

    Graphs 11/12: hashing is linear in |R| and speeds up as the duplicate
    share grows (shorter chains), while sort scan pays O(|R| log |R|)
    regardless. *)

open Mmdb_util
open Mmdb_storage

type method_ = Sort_scan | Hashing

let method_name = function Sort_scan -> "Sort Scan" | Hashing -> "Hash"

(* Projected keys of [tl]'s entries: the values of the visible fields,
   read through one {!Temp_list.field_reader} taken on the calling
   domain, so keys built on pool workers resolve the caller's MVCC
   snapshot.  Uncounted: the kernels charge the dereferences that
   materializing through the tuple pointers pays, arity x rows. *)
let key_reader tl =
  let read = Temp_list.field_reader tl in
  let arity = Descriptor.arity (Temp_list.descriptor tl) in
  fun e ->
    let k = Array.make arity Value.Null in
    for i = 0 to arity - 1 do
      k.(i) <- read e i
    done;
    k

(* Lexicographic order on projected keys, one comparison per field
   compared.  The leading field's comparison is charged by the caller,
   once per kernel call, from its own count of calls ([leading]); a tie
   there makes the call compare, and charge, the further fields. *)
let rec key_cmp_from a b i =
  if i >= Array.length a then 0
  else begin
    Counters.bump_comparisons ();
    let c = Value.compare a.(i) b.(i) in
    if c <> 0 then c else key_cmp_from a b (i + 1)
  end

let key_cmp a b =
  if Array.length a = 0 then 0
  else
    let c = Value.compare a.(0) b.(0) in
    if c <> 0 then c else key_cmp_from a b 1

(* Leading-field comparisons per [key_cmp] call on keys of [arity]. *)
let leading arity = if arity > 0 then 1 else 0

(* Uncounted: the kernels charge one hash call per key. *)
let key_hash k = Array.fold_left (fun acc v -> (acc * 31) + Value.hash v) 17 k

(* Lists shorter than this dedup faster sequentially than the fork/join
   round trips cost. *)
let parallel_threshold = 1024

(* [tl]'s entries as an array.  Arrays here are filled with a constant
   first, never with an entry or a fresh pair: [Array.make] and
   [Array.init] run a minor collection first when they build an array of
   more than 256 slots around a minor-heap value. *)
let entries tl =
  let a = Array.make (Temp_list.length tl) [||] in
  Array.iteri (fun i _ -> a.(i) <- Temp_list.get tl i) a;
  a

let no_key = ([||], [||])

(* Narrow [tl] to [labels], then eliminate duplicate rows by sorting. *)
let sort_scan ?pool ?(cutoff = 10) tl labels =
  let narrowed = Temp_list.project tl labels in
  let n = Temp_list.length narrowed in
  let out = Temp_list.create (Temp_list.descriptor narrowed) in
  if n = 0 then out
  else begin
    (* Pair each entry with its projected key so the sort compares values,
       not pointers.  Key extraction reads through the tuple pointers, so
       with a pool it fans out too. *)
    let key = key_reader narrowed in
    let arity = Descriptor.arity (Temp_list.descriptor narrowed) in
    let keyed =
      match Domain_pool.fan_out pool ~n ~threshold:parallel_threshold with
      | Some pool ->
          Domain_pool.parallel_map pool (fun e -> (key e, e)) (entries narrowed)
      | None ->
          let keyed = Array.make n no_key in
          for i = 0 to n - 1 do
            let e = Temp_list.get narrowed i in
            keyed.(i) <- (key e, e)
          done;
          keyed
    in
    Counters.bump_ptr_derefs ~n:(arity * n) ();
    let cmp (a, _) (b, _) = key_cmp a b in
    let lead = leading arity in
    let sorted = Qsort.sort_counted ~cutoff ?pool ~cmp keyed in
    Counters.bump_comparisons ~n:(lead * sorted) ();
    Counters.counting (fun t ->
        let last = ref None in
        Array.iter
          (fun (k, e) ->
            let dup =
              match !last with
              | Some p ->
                  t.t_comparisons <- t.t_comparisons + lead;
                  key_cmp p k = 0
              | None -> false
            in
            if not dup then begin
              Temp_list.append out e;
              last := Some k
            end)
          keyed);
    out
  end

(* Is [k] in [bucket]?  Counts the leading-field comparisons into [t]. *)
let rec in_bucket (t : Counters.tally) lead k = function
  | [] -> false
  | k' :: rest ->
      t.t_comparisons <- t.t_comparisons + lead;
      key_cmp k' k = 0 || in_bucket t lead k rest

(* Dedup a run of (hash, key, entry) triples in order, keeping the first
   occurrence of each key — the sequential [DKO84] inner loop, shared by
   the sequential path (one run) and the parallel path (one run per hash
   partition).  One tally per run, published where the run ran. *)
let dedup_run out slots ~arity triples =
  Counters.counting @@ fun t ->
  let lead = leading arity in
  let table : (int, Value.t array list) Hashtbl.t = Hashtbl.create slots in
  List.iter
    (fun (h, k, e) ->
      let bucket = Option.value ~default:[] (Hashtbl.find_opt table h) in
      if not (in_bucket t lead k bucket) then begin
        Hashtbl.replace table h (k :: bucket);
        Temp_list.append out e
      end)
    triples

(* Hash-based duplicate elimination; table sized |R|/2 as in the paper.
   Every key costs one hash call and arity dereferences, charged once
   per call on the calling domain.

   Parallel variant: project+hash every entry in parallel, route the
   triples by hash into one run per worker (equal keys share a hash, so
   they always land in the same run and keep their original relative
   order), dedup the runs in parallel, concatenate.  The surviving
   representative of each key group is the first occurrence, exactly as in
   the sequential scan, and both key-hash calls and bucket-scan
   comparisons are identical (hash partitions are unions of whole
   hash-collision buckets). *)
let hashing ?pool tl labels =
  let narrowed = Temp_list.project tl labels in
  let n = Temp_list.length narrowed in
  let desc = Temp_list.descriptor narrowed in
  let arity = Descriptor.arity desc in
  let out = Temp_list.create desc in
  let key = key_reader narrowed in
  let triple e =
    let k = key e in
    (key_hash k, k, e)
  in
  let charge () =
    Counters.bump_hash_calls ~n ();
    Counters.bump_ptr_derefs ~n:(arity * n) ()
  in
  match Domain_pool.fan_out pool ~n ~threshold:parallel_threshold with
  | Some pool ->
      let keyed = Domain_pool.parallel_map pool triple (entries narrowed) in
      charge ();
      let p = Domain_pool.size pool in
      let parts = Array.make p [] in
      Array.iter
        (fun ((h, _, _) as triple) ->
          let b = h land max_int mod p in
          parts.(b) <- triple :: parts.(b))
        keyed;
      let locals =
        Domain_pool.parallel_map pool
          (fun part ->
            let local = Temp_list.create desc in
            let part = List.rev part in
            dedup_run local (max 16 (List.length part / 2)) ~arity part;
            local)
          parts
      in
      Array.iter (fun l -> Temp_list.append_all out l) locals;
      out
  | None ->
      let triples = ref [] in
      Temp_list.iter narrowed (fun e -> triples := triple e :: !triples);
      charge ();
      dedup_run out (max 16 (n / 2)) ~arity (List.rev !triples);
      out

let run ?pool method_ tl labels =
  Trace.with_span "project" @@ fun () ->
  if Trace.active () then begin
    Trace.add_attr "method" (method_name method_);
    Trace.add_attr "rows_in" (string_of_int (Temp_list.length tl))
  end;
  let out =
    match method_ with
    | Sort_scan -> sort_scan ?pool tl labels
    | Hashing -> hashing ?pool tl labels
  in
  if Trace.active () then
    Trace.add_attr "rows" (string_of_int (Temp_list.length out));
  out
