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

(* Projected key of an entry: the materialized values of the visible
   fields.  Materializing dereferences the tuple pointers, which is the
   honest cost of comparing projected fields. *)
let entry_key tl entry = Temp_list.materialize_entry tl entry

let key_cmp a b =
  let n = Array.length a in
  let rec go i =
    if i >= n then 0
    else
      let c = Counters.counting_cmp Value.compare a.(i) b.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

let key_hash k =
  Counters.bump_hash_calls ();
  Array.fold_left (fun acc v -> (acc * 31) + Value.hash v) 17 k

(* Lists shorter than this dedup faster sequentially than the fork/join
   round trips cost. *)
let parallel_threshold = 1024

let parallel_pool pool n =
  match pool with
  | Some pool
    when Domain_pool.size pool > 1
         && (not (Domain_pool.in_worker ()))
         && n >= parallel_threshold ->
      Some pool
  | _ -> None

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
       not pointers.  Key extraction materializes through the tuple
       pointers, so with a pool it fans out too. *)
    let keyed =
      match parallel_pool pool n with
      | Some pool ->
          Domain_pool.parallel_map pool
            (fun e -> (entry_key narrowed e, e))
            (entries narrowed)
      | None ->
          let keyed = Array.make n no_key in
          for i = 0 to n - 1 do
            let e = Temp_list.get narrowed i in
            keyed.(i) <- (entry_key narrowed e, e)
          done;
          keyed
    in
    let cmp (a, _) (b, _) = key_cmp a b in
    Qsort.sort_with ~cutoff ?pool Qsort.Quicksort ~cmp keyed;
    let last = ref None in
    Array.iter
      (fun (k, e) ->
        let dup = match !last with Some p -> key_cmp p k = 0 | None -> false in
        if not dup then begin
          Temp_list.append out e;
          last := Some k
        end)
      keyed;
    out
  end

(* Dedup a run of (hash, key, entry) triples in order, keeping the first
   occurrence of each key — the sequential [DKO84] inner loop, shared by
   the sequential path (one run) and the parallel path (one run per hash
   partition). *)
let dedup_run out slots triples =
  let table : (int, Value.t array list) Hashtbl.t = Hashtbl.create slots in
  List.iter
    (fun (h, k, e) ->
      let bucket = Option.value ~default:[] (Hashtbl.find_opt table h) in
      if not (List.exists (fun k' -> key_cmp k' k = 0) bucket) then begin
        Hashtbl.replace table h (k :: bucket);
        Temp_list.append out e
      end)
    triples

(* Hash-based duplicate elimination; table sized |R|/2 as in the paper.

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
  let out = Temp_list.create (Temp_list.descriptor narrowed) in
  match parallel_pool pool n with
  | Some pool ->
      let keyed =
        Domain_pool.parallel_map pool
          (fun e ->
            let k = entry_key narrowed e in
            (key_hash k, k, e))
          (entries narrowed)
      in
      let p = Domain_pool.size pool in
      let parts = Array.make p [] in
      Array.iter
        (fun ((h, _, _) as triple) ->
          let b = h land max_int mod p in
          parts.(b) <- triple :: parts.(b))
        keyed;
      let desc = Temp_list.descriptor narrowed in
      let locals =
        Domain_pool.parallel_map pool
          (fun part ->
            let local = Temp_list.create desc in
            let part = List.rev part in
            dedup_run local (max 16 (List.length part / 2)) part;
            local)
          parts
      in
      Array.iter (fun l -> Temp_list.append_all out l) locals;
      out
  | None ->
      let triples = ref [] in
      Temp_list.iter narrowed (fun e ->
          let k = entry_key narrowed e in
          triples := (key_hash k, k, e) :: !triples);
      dedup_run out (max 16 (n / 2)) (List.rev !triples);
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
