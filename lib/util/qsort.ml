(* Every pass counts into the kernel call's tally [t]: one comparison
   per [cmp] call, one data move per element written.  The callers
   publish it once per call ({!Counters.counting}). *)

let compared (t : Counters.tally) ~cmp x y =
  t.t_comparisons <- t.t_comparisons + 1;
  cmp x y

let insertion_pass (t : Counters.tally) ~cmp a lo hi =
  for i = lo + 1 to hi do
    let v = a.(i) in
    let j = ref (i - 1) in
    let continue = ref true in
    while !continue && !j >= lo do
      if compared t ~cmp a.(!j) v > 0 then begin
        a.(!j + 1) <- a.(!j);
        t.t_data_moves <- t.t_data_moves + 1;
        decr j
      end
      else continue := false
    done;
    if !j + 1 <> i then begin
      a.(!j + 1) <- v;
      t.t_data_moves <- t.t_data_moves + 1
    end
  done

let insertion_sort ?(lo = 0) ?hi ~cmp a =
  let hi = match hi with Some h -> h | None -> Array.length a - 1 in
  Counters.counting (fun t -> insertion_pass t ~cmp a lo hi)

let swap (t : Counters.tally) a i j =
  if i <> j then begin
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp;
    t.t_data_moves <- t.t_data_moves + 2
  end

(* Median-of-three pivot selection: order a.(lo), a.(mid), a.(hi) and use the
   middle value, which also acts as a sentinel for the partition loops. *)
let median_of_three t ~cmp a lo hi =
  let mid = lo + ((hi - lo) / 2) in
  if compared t ~cmp a.(mid) a.(lo) < 0 then swap t a mid lo;
  if compared t ~cmp a.(hi) a.(lo) < 0 then swap t a hi lo;
  if compared t ~cmp a.(hi) a.(mid) < 0 then swap t a hi mid;
  a.(mid)

let rec quick t ~cutoff ~cmp a lo hi =
  if hi - lo + 1 > cutoff then begin
    let pivot = median_of_three t ~cmp a lo hi in
    let i = ref lo and j = ref hi in
    while !i <= !j do
      while compared t ~cmp a.(!i) pivot < 0 do incr i done;
      while compared t ~cmp a.(!j) pivot > 0 do decr j done;
      if !i <= !j then begin
        swap t a !i !j;
        incr i;
        decr j
      end
    done;
    quick t ~cutoff ~cmp a lo !j;
    quick t ~cutoff ~cmp a !i hi
  end

(* Sort a.(lo) .. a.(hi) inclusive: median-of-three quicksort down to
   [cutoff]-sized subarrays, then one insertion-sort pass over the range
   cleans up all small subarrays at once (each element is at most
   [cutoff - 1] slots from home).  Publishes its counts on the running
   domain and returns its comparisons. *)
let sort_range ~cutoff ~cmp a lo hi =
  Counters.counting (fun t ->
      if hi > lo then begin
        quick t ~cutoff ~cmp a lo hi;
        insertion_pass t ~cmp a lo hi
      end;
      t.t_comparisons)

(* Merge src.[lo, mid) and src.[mid, hi) into dst.[lo, hi), counting one
   data move per element placed (mirrors the merge in Join.sort_merge).
   Publishes like [sort_range] and returns its comparisons. *)
let merge_ranges ~cmp src dst lo mid hi =
  Counters.counting @@ fun t ->
  let i = ref lo and j = ref mid and k = ref lo in
  while !i < mid && !j < hi do
    if compared t ~cmp src.(!i) src.(!j) <= 0 then begin
      dst.(!k) <- src.(!i);
      incr i
    end
    else begin
      dst.(!k) <- src.(!j);
      incr j
    end;
    t.t_data_moves <- t.t_data_moves + 1;
    incr k
  done;
  (* one run is exhausted: the rest of the other lands in place *)
  Array.blit src !i dst !k (mid - !i);
  Array.blit src !j dst (!k + mid - !i) (hi - !j);
  t.t_data_moves <- t.t_data_moves + (hi - !k);
  t.t_comparisons

(* --- kernel selection --------------------------------------------------- *)

(* One kernel: the paper's quicksort.  The type and [choose] stay so
   callers that name a kernel keep compiling; [choose] always answers
   [Quicksort]. *)
type kernel = Quicksort

let kernel_name Quicksort = "qsort"
let choose ~n:_ ~batched:_ = Quicksort

(* Below this size the slice sorts finish faster than the fork/join
   round trips they would save. *)
let parallel_threshold = 2048

(* Slice quicksorts and merge rounds across [pool]; the comparisons of
   every slice and merge, each published on the domain that ran it. *)
let sort_slices ~cutoff ~pool ~cmp a =
  let n = Array.length a in
  let sum = Array.fold_left ( + ) 0 in
  (* Phase 1: quicksort disjoint slices in place, one per worker. *)
  let ranges = Domain_pool.chunks ~n ~pieces:(Domain_pool.size pool) in
  let comparisons =
    ref
      (sum
         (Domain_pool.parallel_map pool
            (fun (lo, hi) -> sort_range ~cutoff ~cmp a lo (hi - 1))
            ranges))
  in
  (* Phase 2: parallel pairwise merge rounds, ping-ponging between the
     input array and a scratch buffer; blit back if the final round
     lands in the scratch.  A copy: [Array.make n a.(0)] would run a
     minor collection first when a.(0) is in the minor heap. *)
  let scratch = Array.copy a in
  let src = ref a and dst = ref scratch in
  let runs = ref (Array.to_list ranges) in
  while List.length !runs > 1 do
    let rec pair = function
      | (lo1, mid) :: (lo2, hi) :: rest ->
          assert (mid = lo2);
          `Merge (lo1, mid, hi) :: pair rest
      | [ (lo, hi) ] -> [ `Copy (lo, hi) ]
      | [] -> []
    in
    let jobs = Array.of_list (pair !runs) in
    let s = !src and d = !dst in
    let merged =
      Domain_pool.parallel_map pool
        (function
          | `Merge (lo, mid, hi) -> merge_ranges ~cmp s d lo mid hi
          | `Copy (lo, hi) ->
              Array.blit s lo d lo (hi - lo);
              0)
        jobs
    in
    comparisons := !comparisons + sum merged;
    runs :=
      List.map
        (function `Merge (lo, _, hi) -> (lo, hi) | `Copy (lo, hi) -> (lo, hi))
        (Array.to_list jobs);
    let tmp = !src in
    src := !dst;
    dst := tmp
  done;
  if !src != a then Array.blit !src 0 a 0 n;
  !comparisons

let sort_counted ?(cutoff = 10) ?pool ~cmp a =
  if cutoff < 1 then invalid_arg "Qsort: cutoff must be >= 1";
  let n = Array.length a in
  match pool with
  | Some pool
    when n >= parallel_threshold
         && Domain_pool.size pool > 1
         && not (Domain_pool.in_worker ()) ->
      sort_slices ~cutoff ~pool ~cmp a
  | _ -> sort_range ~cutoff ~cmp a 0 (n - 1)

let sort ?cutoff ~cmp a = ignore (sort_counted ?cutoff ~cmp a)
let sort_parallel ?cutoff ~pool ~cmp a =
  ignore (sort_counted ?cutoff ~pool ~cmp a)

(* Quicksort, sliced across [pool] by {!sort_parallel} when one is given
   and usable. *)
let sort_with ?cutoff ?pool Quicksort ~cmp a =
  ignore (sort_counted ?cutoff ?pool ~cmp a)

let is_sorted ~cmp a =
  let n = Array.length a in
  let rec check i = i >= n || (cmp a.(i - 1) a.(i) <= 0 && check (i + 1)) in
  check 1
