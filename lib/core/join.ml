(** Join processing (§3.3).

    The five algorithms of the paper's study, plus the pointer-based
    precomputed join of §2.1:

    - {!nested_loops} — the O(N²) baseline with no index (Graph 10);
    - {!hash_join} — nested loops with a Chained Bucket Hash built on the
      inner relation's join column (build cost always included, §3.3.2);
    - {!tree_join} — nested loops through a {e pre-existing} T Tree index
      on the inner join column;
    - {!sort_merge} — build array indexes on both relations, quicksort
      them (insertion sort below 10 elements), merge;
    - {!tree_merge} — merge join over {e pre-existing} T Tree indexes on
      both join columns;
    - {!precomputed} / {!pointer_join} — follow foreign-key tuple pointers,
      or compare on pointers instead of data values (§2.1, Queries 1/2).

    Every algorithm produces a temporary list whose entries are
    [(outer tuple ptr, inner tuple ptr)] pairs under a joined descriptor —
    no data is copied (§2.3).  Equijoins only, as in the paper; for
    non-equijoins other than ≠ the ordering of a tree index applies
    (§3.3.5). *)

open Mmdb_util
open Mmdb_storage

type side = { rel : Relation.t; col : int }

type method_ =
  | Nested_loops
  | Hash_join
  | Tree_join
  | Sort_merge
  | Tree_merge

let method_name = function
  | Nested_loops -> "Nested Loops"
  | Hash_join -> "Hash Join"
  | Tree_join -> "Tree Join"
  | Sort_merge -> "Sort Merge"
  | Tree_merge -> "Tree Merge"

let all_methods = [ Nested_loops; Hash_join; Tree_join; Sort_merge; Tree_merge ]

let result_list outer inner =
  Temp_list.create
    (Descriptor.join
       (Descriptor.of_schema (Relation.schema outer.rel))
       (Descriptor.of_schema (Relation.schema inner.rel)))

let key side tuple = Tuple.get tuple side.col

let vcmp = Counters.counting_cmp Value.compare

(* Optional predicate pushed into the outer scan by the executor, so a
   selection + join pipeline does not materialize the selection. *)
let keep filter tuple = match filter with None -> true | Some f -> f tuple

(* --- nested loops ------------------------------------------------------ *)

let nested_loops ?outer_filter ~outer ~inner () =
  let out = result_list outer inner in
  Relation.iter outer.rel (fun o ->
      if keep outer_filter o then begin
        let ko = key outer o in
        Relation.iter inner.rel (fun i ->
            if vcmp ko (key inner i) = 0 then Temp_list.append out [| o; i |])
      end);
  out

(* --- hash join ---------------------------------------------------------- *)

(* Role reversals the partitioned join has taken (per 2112.02480,
   translated to the in-memory setting): surfaced in STATS and as a
   trace attr. *)
let role_reversals = Atomic.make 0

(* The repartition count is always 0: role reversal alone handles skew. *)
let skew_stats () = (0, Atomic.get role_reversals)

(* A chain cell carrying the extracted key next to the tuple pointer:
   probe comparisons read the cache-resident value instead of
   dereferencing two tuples per cell. *)
type hcell = { hkey : Value.t; htup : Tuple.t; mutable hnext : hcell option }

(* The paper's Chained Bucket Hash, with its hash formula, prepend-on-
   insert chain layout and per-operation counts:
   [Tuple.hash_on ~columns:[|c|]] is [17 * 31 + Value.hash v]. *)
let hslot ~slots k = (527 + Value.hash k) land max_int mod slots

(* Matches collect in a fixed buffer that flushes into [out] in bulk:
   one quota charge and capacity check per flush instead of per pair.
   Flushing every 256 pairs doubled the partitioned join's time in
   bench join's skew phase (4 domains); every 4096 did not. *)
type pair_buf = {
  buf : Temp_list.entry array;
  mutable bn : int;
  out : Temp_list.t;
}

let pair_buf out = { buf = Array.make 4096 [||]; bn = 0; out }

let pair_flush pb =
  if pb.bn > 0 then begin
    Temp_list.append_many pb.out pb.buf pb.bn;
    pb.bn <- 0
  end

let pair_push pb o i =
  if pb.bn = Array.length pb.buf then pair_flush pb;
  pb.buf.(pb.bn) <- [| o; i |];
  pb.bn <- pb.bn + 1

(* One probe's chain walk from [cell], counting as
   [Chained_hash.iter_matches] does: one comparison plus two
   dereferences per cell ([counting_cmp] over [Tuple.compare_keyed]).
   Matches of probe tuple [tp] go to [pb], swapped back to (outer,
   inner) when [rev] says the chains hold the outer tuples. *)
let rec probe_chain (t : Counters.tally) pb ~rev ko tp = function
  | None -> ()
  | Some c ->
      t.t_comparisons <- t.t_comparisons + 1;
      t.t_ptr_derefs <- t.t_ptr_derefs + 2;
      if Value.compare ko c.hkey = 0 then
        if rev then pair_push pb c.htup tp else pair_push pb tp c.htup;
      probe_chain t pb ~rev ko tp c.hnext

(* One partition's (key, tuple) pairs in scan order, as two growable
   parallel arrays. *)
type part = {
  mutable pkeys : Value.t array;
  mutable ptups : Tuple.t array;
  mutable plen : int;
}

let part_push p k t =
  if p.plen = Array.length p.pkeys then begin
    let cap = max 64 (2 * p.plen) in
    let keys = Array.make cap Value.Null in
    let tups = Array.make cap Tuple.filler in
    Array.blit p.pkeys 0 keys 0 p.plen;
    Array.blit p.ptups 0 tups 0 p.plen;
    p.pkeys <- keys;
    p.ptups <- tups
  end;
  p.pkeys.(p.plen) <- k;
  p.ptups.(p.plen) <- t;
  p.plen <- p.plen + 1

(* Route the tuples of [side] that pass [filter] into [n] partitions by
   hash of the join key.  Keys come off {!Relation.iter_batches}, so
   under an MVCC snapshot they are version-resolved here and the
   partition jobs never dereference a tuple.  [deref] charges the one
   dereference that reads each routed tuple's key. *)
let partition ?filter ~deref ~n side =
  let parts =
    Array.init n (fun _ -> { pkeys = [||]; ptups = [||]; plen = 0 })
  in
  Relation.iter_batches ~key_col:side.col side.rel (fun b ->
      let kept = ref 0 in
      for i = 0 to b.Batch.n - 1 do
        let t = b.Batch.tuples.(i) in
        if keep filter t then begin
          let k = b.Batch.keys.(i) in
          let p = if n = 1 then 0 else Value.hash k land max_int mod n in
          part_push parts.(p) k t;
          incr kept
        end
      done;
      if deref then Counters.bump_ptr_derefs ~n:!kept ());
  parts

(* Build a value-carrying chain table of [slots] slots on [build] and
   probe it with [probe], emitting into [pb]; [rev] means [build] holds
   the outer tuples.  The build charges the Chained Bucket Hash insert
   per tuple: one hash call, one dereference, one node and one data
   move; each probe charges one hash call and one dereference for its
   hash, then its chain walk.  One tally per call, published on the
   domain that ran it, also when a flush raises [Quota_exceeded]. *)
let build_probe pb ~slots ~rev build probe =
  Counters.counting @@ fun t ->
  let nb = build.plen in
  let table = Array.make slots None in
  t.t_hash_calls <- nb;
  t.t_ptr_derefs <- nb;
  t.t_node_allocs <- nb;
  t.t_data_moves <- nb;
  for i = 0 to nb - 1 do
    let k = build.pkeys.(i) in
    let s = hslot ~slots k in
    table.(s) <- Some { hkey = k; htup = build.ptups.(i); hnext = table.(s) }
  done;
  for i = 0 to probe.plen - 1 do
    let ko = probe.pkeys.(i) in
    t.t_hash_calls <- t.t_hash_calls + 1;
    t.t_ptr_derefs <- t.t_ptr_derefs + 1;
    probe_chain t pb ~rev ko probe.ptups.(i) table.(hslot ~slots ko)
  done

(* Below this combined cardinality the partitioned join loses to the
   fork/join overhead. *)
let parallel_join_threshold = 2048

(* A partition's build side may exceed the even share by 2x before role
   reversal is considered; the floor keeps small partitions out of it
   entirely. *)
let skew_bound_floor = 1024

(* The hash join kernel.  Both sides are routed into [parts] partitions
   by hash of the join key — one partition, or one per pool worker above
   [parallel_join_threshold] — and each partition is an independent
   build+probe (Grace-style: equal keys always share a partition, so the
   union of the partition joins is the whole join).

   Each probe tuple pays one dereference to read its key, as the
   paper's probe loop does.  With more than one partition every tuple
   pays it for routing, build side included.

   With one partition the table is built on the inner relation with
   half its cardinality in slots, as in the paper's projection
   experiments.  With several, each partition's table has half its build
   side, and the side is chosen per partition: a build side over its
   working-set bound that a smaller probe side can replace is reversed
   (the fix for a hot key, which no hash split can divide). *)
let hash_join ?pool ?outer_filter ~outer ~inner () =
  let pool =
    Domain_pool.fan_out pool
      ~n:(Relation.cardinality outer.rel + Relation.cardinality inner.rel)
      ~threshold:parallel_join_threshold
  in
  let parts = match pool with Some p -> Domain_pool.size p | None -> 1 in
  let inners = partition ~deref:(parts > 1) ~n:parts inner in
  let outers = partition ?filter:outer_filter ~deref:true ~n:parts outer in
  let slots side nb =
    max 16 ((if parts = 1 then Relation.cardinality side.rel else nb) / 2)
  in
  let total_inner = Array.fold_left (fun acc p -> acc + p.plen) 0 inners in
  let bound = max skew_bound_floor (2 * total_inner / parts) in
  let join_part b out =
    let pb = pair_buf out in
    let i = inners.(b) and o = outers.(b) in
    if i.plen > 0 && o.plen > 0 then
      if i.plen > bound && o.plen < i.plen then begin
        Atomic.incr role_reversals;
        build_probe pb ~slots:(slots outer o.plen) ~rev:true o i
      end
      else build_probe pb ~slots:(slots inner i.plen) ~rev:false i o;
    pair_flush pb
  in
  match pool with
  | None ->
      let out = result_list outer inner in
      join_part 0 out;
      out
  | Some pool ->
      let desc = Temp_list.descriptor (result_list outer inner) in
      let locals =
        Domain_pool.parallel_map pool
          (fun b ->
            let local = Temp_list.create desc in
            join_part b local;
            local)
          (Array.init parts Fun.id)
      in
      Temp_list.concat desc (Array.to_list locals)

(* --- tree join ----------------------------------------------------------- *)

(* The tree methods require an existing ordered index on the join
   column; the paper shows that building a T Tree just for the join never
   pays off. *)
let find_tree_index side =
  Option.map
    (fun (module Inst : Relation.INSTANCE) -> Inst.def.Relation.idx_name)
    (Relation.find_index_on ~ordered:true side.rel ~columns:[| side.col |])

let tree_index caller side =
  match find_tree_index side with
  | Some index -> index
  | None ->
      invalid_arg
        (Printf.sprintf "Join.%s: no ordered index on %s column %d" caller
           (Relation.name side.rel) side.col)

(* One index lookup per outer tuple; under an MVCC snapshot each is a
   snapshot read entry. *)
let tree_join ?outer_filter ~outer ~inner () =
  let index = tree_index "tree_join" inner in
  let out = result_list outer inner in
  Relation.iter outer.rel (fun o ->
      if keep outer_filter o then
        Relation.iter_matches ~index inner.rel [| key outer o |] (fun i ->
            Temp_list.append out [| o; i |]));
  out

(* --- merge joins ----------------------------------------------------------- *)

(* Merge two key-ordered tuple sequences, emitting the cross product of each
   pair of equal-key runs.

   As in the paper's implementation, duplicate runs are not buffered: for
   each outer tuple of a run, the inner run is {e rescanned through the
   index} from a saved position (the sequences are persistent, so a saved
   continuation replays the index scan).  This is what makes the scan cost
   of the underlying structure — contiguous array vs pointer-chasing tree —
   visible in high-duplicate joins, the effect behind the Sort Merge
   crossovers of Graphs 7 and 8. *)
let merge_sequences ~key_of1 ~key_of2 seq1 seq2 ~emit =
  (* Emit pairs (x, y) for every y at the head of [s2] whose key equals [k],
     returning the rest. *)
  let rec scan_inner k x s2 =
    match s2 () with
    | Seq.Cons (y, r2) when vcmp (key_of2 y) k = 0 ->
        emit x y;
        scan_inner k x r2
    | _ -> ()
  in
  let rec drop_run key_of k s =
    match s () with
    | Seq.Cons (y, r) when vcmp (key_of y) k = 0 -> drop_run key_of k r
    | other -> fun () -> other
  in
  let rec loop s1 s2 =
    match (s1 (), s2 ()) with
    | Seq.Nil, _ | _, Seq.Nil -> ()
    | Seq.Cons (x, r1), (Seq.Cons (y, r2) as n2) ->
        let c = vcmp (key_of1 x) (key_of2 y) in
        if c < 0 then loop r1 (fun () -> n2)
        else if c > 0 then loop (fun () -> Seq.Cons (x, r1)) r2
        else begin
          let k = key_of1 x in
          let inner_start = fun () -> n2 in
          (* every outer tuple of the run rescans the inner run *)
          let rec each_outer s1' =
            match s1' () with
            | Seq.Cons (x', r1') when vcmp (key_of1 x') k = 0 ->
                scan_inner k x' inner_start;
                each_outer r1'
            | other -> fun () -> other
          in
          let rest1 = each_outer (fun () -> Seq.Cons (x, r1)) in
          let rest2 = drop_run key_of2 k inner_start in
          loop rest1 rest2
        end
  in
  loop seq1 seq2

(* The fill of the pair arrays, made once: [Array.make] runs a minor
   collection first when its fill value is in the minor heap. *)
let no_pair = (Value.Null, Tuple.filler)

(* Merge join specialized to array indexes: "the array index holds a list
   of contiguous elements", so run rescans are integer cursor resets with
   no per-element allocation — the efficiency that lets Sort Merge win
   high-output joins (Graphs 7/8) despite paying for its sort.  Each key
   read charges the dereference [Tuple.get] would pay, and each key
   comparison one comparison, into [t]. *)
let merge_pairs (t : Counters.tally) arr1 arr2 pb =
  let n1 = Array.length arr1 and n2 = Array.length arr2 in
  let key arr i =
    t.t_ptr_derefs <- t.t_ptr_derefs + 1;
    fst arr.(i)
  in
  let cmp k1 k2 =
    t.t_comparisons <- t.t_comparisons + 1;
    Value.compare k1 k2
  in
  let i = ref 0 and j = ref 0 in
  while !i < n1 && !j < n2 do
    let c = cmp (key arr1 !i) (key arr2 !j) in
    if c < 0 then incr i
    else if c > 0 then incr j
    else begin
      let k = key arr1 !i in
      let j_end = ref !j in
      while !j_end < n2 && cmp (key arr2 !j_end) k = 0 do
        incr j_end
      done;
      while !i < n1 && cmp (key arr1 !i) k = 0 do
        let o = snd arr1.(!i) in
        for jj = !j to !j_end - 1 do
          pair_push pb o (snd arr2.(jj))
        done;
        incr i
      done;
      j := !j_end
    end
  done

(* Sort Merge: build array indexes on both join columns, quicksort them
   (§3.3.2) and merge.  Build cost is always charged.  Both sides are
   collected as (key, tuple) pairs through {!Relation.iter_batches}
   (snapshot-safe key extraction at fill time) and sorted on the cached
   key, so the comparator and the merge read a contiguous pair array
   instead of dereferencing two tuples per comparison; each still
   charges the dereferences [Tuple.compare_on] and [Tuple.get] would
   pay — the sorts' two per comparison once, from the comparison count
   {!Qsort.sort_counted} returns, and the merge's in its own tally.
   With a pool, each sort is [Qsort.sort_parallel] (slice quicksorts
   plus parallel merge rounds); the sides sort one after the other,
   since each parallel sort already uses every worker.  The final merge
   join stays sequential (it emits into one list). *)
let sort_merge ?pool ?(cutoff = 10) ?outer_filter ~outer ~inner () =
  let out = result_list outer inner in
  let collect ?filter side =
    let acc = ref [] and n = ref 0 in
    Relation.iter_batches ~key_col:side.col side.rel (fun b ->
        for i = 0 to b.Batch.n - 1 do
          let t = b.Batch.tuples.(i) in
          if keep filter t then begin
            acc := (b.Batch.keys.(i), t) :: !acc;
            incr n
          end
        done);
    let arr = Array.make !n no_pair in
    List.iteri (fun i p -> arr.(!n - 1 - i) <- p) !acc;
    arr
  in
  let arr1 = collect ?filter:outer_filter outer and arr2 = collect inner in
  let cmp ((k1 : Value.t), _) (k2, _) = Value.compare k1 k2 in
  let sorted arr = Qsort.sort_counted ~cutoff ?pool ~cmp arr in
  let comparisons = sorted arr1 + sorted arr2 in
  Counters.bump_ptr_derefs ~n:(2 * comparisons) ();
  let pb = pair_buf out in
  Counters.counting (fun t -> merge_pairs t arr1 arr2 pb);
  pair_flush pb;
  out

(* Tree Merge: merge join over pre-existing T Tree indexes on both sides.
   The tree scan follows node pointers, which is why the paper measures it
   at ~1.5x the array scan cost — that cost shows up here through the
   pointer-chasing Seq, not as a magic constant.  Under an MVCC snapshot
   each side is one snapshot pass ({!Relation.to_seq}). *)
let tree_merge ?outer_filter ~outer ~inner () =
  let oi = tree_index "tree_merge" outer and ii = tree_index "tree_merge" inner in
  let out = result_list outer inner in
  let outer_seq = Relation.to_seq ~index:oi outer.rel in
  let outer_seq =
    match outer_filter with None -> outer_seq | Some f -> Seq.filter f outer_seq
  in
  merge_sequences ~key_of1:(key outer) ~key_of2:(key inner) outer_seq
    (Relation.to_seq ~index:ii inner.rel)
    ~emit:(fun a b -> Temp_list.append out [| a; b |]);
  out

(* --- non-equijoins (§3.3.5) ----------------------------------------------- *)

type inequality = Lt | Le | Gt | Ge

let inequality_name = function Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">="

(* "Non-equijoins other than 'not equals' can make use of ordering of the
   data, so the Tree Join should be used for such (<, <=, >, >=) joins."
   The join predicate is [outer_key op inner_key].  For </<= the inner
   index is scanned upward from the outer key ({!Relation.lookup_from});
   for >/>= it is walked in order up to the outer key
   ({!Relation.lookup_below}).  Each scan is one read entry: under an
   MVCC snapshot the first costs O(log n + m + d) and the second
   O(m + d), for m results and d versioned inner tuples. *)
let tree_inequality_join ?outer_filter ~op ~outer ~inner () =
  let index = tree_index "tree_inequality_join" inner in
  let out = result_list outer inner in
  Relation.iter outer.rel (fun o ->
      if keep outer_filter o then begin
        let ko = key outer o in
        let emit i = Temp_list.append out [| o; i |] in
        match op with
        | Lt | Le ->
            Relation.lookup_from ~index inner.rel [| ko |] (fun i ->
                if op = Le || vcmp (key inner i) ko > 0 then emit i)
        | Gt | Ge ->
            Relation.lookup_below ~index ~inclusive:(op = Ge) inner.rel
              [| ko |] emit
      end);
  out

(* --- pointer-based joins (§2.1) ------------------------------------------ *)

(* The (method, outer, inner) key under which the feedback store
   aggregates estimated-vs-actual join cardinalities. *)
let feedback_key_of ~method_name ~outer_name ~inner_name =
  Printf.sprintf "join/%s/%s*%s" method_name outer_name inner_name

let feedback_key ~method_ ~outer ~inner =
  feedback_key_of ~method_name:(method_name method_)
    ~outer_name:(Relation.name outer.rel)
    ~inner_name:(Relation.name inner.rel)

(* Query 1 style: the outer relation's foreign-key column already holds
   tuple pointers, so the "join" just follows them. *)
let precomputed ?est_rows ~outer ~ref_col ~inner_schema () =
  Trace.with_span "join" @@ fun () ->
  if Trace.active () then begin
    Trace.add_attr "method" "Precomputed";
    Trace.add_attr "outer" (Relation.name outer);
    match est_rows with
    | Some e -> Trace.add_attr "est_rows" (string_of_int e)
    | None -> ()
  end;
  let out =
    Temp_list.create
      (Descriptor.join
         (Descriptor.of_schema (Relation.schema outer))
         (Descriptor.of_schema inner_schema))
  in
  Relation.iter outer (fun o ->
      match Tuple.get o ref_col with
      | Value.Ref i -> Temp_list.append out [| o; i |]
      | Value.Refs is -> List.iter (fun i -> Temp_list.append out [| o; i |]) is
      | Value.Null -> ()
      | v ->
          invalid_arg
            (Printf.sprintf "Join.precomputed: column %d holds %s, not pointers"
               ref_col (Value.to_string v)));
  let actual = Temp_list.length out in
  if Trace.active () then Trace.add_attr "rows" (string_of_int actual);
  (match est_rows with
  | Some est ->
      Feedback.observe
        ~key:
          (feedback_key_of ~method_name:"Precomputed"
             ~outer_name:(Relation.name outer) ~inner_name:"*")
        ~est ~actual
  | None -> ());
  out

(* Query 2 style: join a selected set of inner tuples back to the outer
   relation, comparing tuple {e pointers} rather than data values — cheaper
   than string comparison and equivalent in cost to integer comparison. *)
let pointer_join ~outer ~ref_col ~selected =
  let inner_desc = Temp_list.descriptor selected in
  let out =
    Temp_list.create
      (Descriptor.join (Descriptor.of_schema (Relation.schema outer)) inner_desc)
  in
  (* Hash the selected tuples' identities. *)
  let wanted = Hashtbl.create (2 * Temp_list.length selected) in
  Temp_list.iter selected (fun entry ->
      Counters.bump_hash_calls ();
      Hashtbl.replace wanted (Tuple.id (Tuple.resolve entry.(0))) entry.(0));
  Relation.iter outer (fun o ->
      let consider i =
        Counters.bump_hash_calls ();
        match Hashtbl.find_opt wanted (Tuple.id (Tuple.resolve i)) with
        | Some i -> Temp_list.append out [| o; i |]
        | None -> ()
      in
      match Tuple.get o ref_col with
      | Value.Ref i -> consider i
      | Value.Refs is -> List.iter consider is
      | Value.Null -> ()
      | v ->
          invalid_arg
            (Printf.sprintf
               "Join.pointer_join: column %d holds %s, not pointers" ref_col
               (Value.to_string v)));
  out

(* --- uniform driver -------------------------------------------------------- *)

let run ?pool ?outer_filter ?est_rows method_ ~outer ~inner =
  Trace.with_span "join" @@ fun () ->
  if Trace.active () then begin
    Trace.add_attr "method" (method_name method_);
    Trace.add_attr "outer" (Relation.name outer.rel);
    Trace.add_attr "inner" (Relation.name inner.rel);
    (match est_rows with
    | Some e -> Trace.add_attr "est_rows" (string_of_int e)
    | None -> ());
    Trace.add_attr "batch" (string_of_int (Batch.size ()))
  end;
  let _, rv0 = skew_stats () in
  let out =
    match method_ with
    | Nested_loops -> nested_loops ?outer_filter ~outer ~inner ()
    | Hash_join -> hash_join ?pool ?outer_filter ~outer ~inner ()
    | Tree_join -> tree_join ?outer_filter ~outer ~inner ()
    | Sort_merge -> sort_merge ?pool ?outer_filter ~outer ~inner ()
    | Tree_merge -> tree_merge ?outer_filter ~outer ~inner ()
  in
  let actual = Temp_list.length out in
  if Trace.active () then begin
    let _, rv1 = skew_stats () in
    if rv1 > rv0 then
      Trace.add_attr "role_reversals" (string_of_int (rv1 - rv0));
    Trace.add_attr "rows" (string_of_int actual)
  end;
  (match est_rows with
  | Some est ->
      Feedback.observe ~key:(feedback_key ~method_ ~outer ~inner) ~est ~actual
  | None -> ());
  out
