let insertion_sort ?(lo = 0) ?hi ~cmp a =
  let hi = match hi with Some h -> h | None -> Array.length a - 1 in
  for i = lo + 1 to hi do
    let v = a.(i) in
    let j = ref (i - 1) in
    let continue = ref true in
    while !continue && !j >= lo do
      if Counters.counting_cmp cmp a.(!j) v > 0 then begin
        a.(!j + 1) <- a.(!j);
        Counters.bump_data_moves ();
        decr j
      end
      else continue := false
    done;
    if !j + 1 <> i then begin
      a.(!j + 1) <- v;
      Counters.bump_data_moves ()
    end
  done

let swap a i j =
  if i <> j then begin
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp;
    Counters.bump_data_moves ~n:2 ()
  end

(* Median-of-three pivot selection: order a.(lo), a.(mid), a.(hi) and use the
   middle value, which also acts as a sentinel for the partition loops. *)
let median_of_three ~cmp a lo hi =
  let mid = lo + ((hi - lo) / 2) in
  if Counters.counting_cmp cmp a.(mid) a.(lo) < 0 then swap a mid lo;
  if Counters.counting_cmp cmp a.(hi) a.(lo) < 0 then swap a hi lo;
  if Counters.counting_cmp cmp a.(hi) a.(mid) < 0 then swap a hi mid;
  a.(mid)

(* Sort a.(lo) .. a.(hi) inclusive: median-of-three quicksort down to
   [cutoff]-sized subarrays, then one insertion-sort pass over the range
   cleans up all small subarrays at once (each element is at most
   [cutoff - 1] slots from home). *)
let sort_range ~cutoff ~cmp a lo hi =
  let rec quick lo hi =
    if hi - lo + 1 > cutoff then begin
      let pivot = median_of_three ~cmp a lo hi in
      let i = ref lo and j = ref hi in
      while !i <= !j do
        while Counters.counting_cmp cmp a.(!i) pivot < 0 do incr i done;
        while Counters.counting_cmp cmp a.(!j) pivot > 0 do decr j done;
        if !i <= !j then begin
          swap a !i !j;
          incr i;
          decr j
        end
      done;
      quick lo !j;
      quick !i hi
    end
  in
  if hi > lo then begin
    quick lo hi;
    insertion_sort ~lo ~hi ~cmp a
  end

let sort ?(cutoff = 10) ~cmp a =
  if cutoff < 1 then invalid_arg "Qsort.sort: cutoff must be >= 1";
  sort_range ~cutoff ~cmp a 0 (Array.length a - 1)

(* Merge src.[lo, mid) and src.[mid, hi) into dst.[lo, hi), counting one
   data move per element placed (mirrors the merge in Join.sort_merge). *)
let merge_ranges ~cmp src dst lo mid hi =
  let i = ref lo and j = ref mid and k = ref lo in
  while !i < mid && !j < hi do
    if Counters.counting_cmp cmp src.(!i) src.(!j) <= 0 then begin
      dst.(!k) <- src.(!i);
      incr i
    end
    else begin
      dst.(!k) <- src.(!j);
      incr j
    end;
    Counters.bump_data_moves ();
    incr k
  done;
  while !i < mid do
    dst.(!k) <- src.(!i);
    Counters.bump_data_moves ();
    incr i;
    incr k
  done;
  while !j < hi do
    dst.(!k) <- src.(!j);
    Counters.bump_data_moves ();
    incr j;
    incr k
  done

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

let sort_parallel ?(cutoff = 10) ~pool ~cmp a =
  if cutoff < 1 then invalid_arg "Qsort.sort_parallel: cutoff must be >= 1";
  let n = Array.length a in
  if n < parallel_threshold || Domain_pool.size pool <= 1
     || Domain_pool.in_worker ()
  then sort ~cutoff ~cmp a
  else begin
    (* Phase 1: quicksort disjoint slices in place, one per worker. *)
    let ranges = Domain_pool.chunks ~n ~pieces:(Domain_pool.size pool) in
    Domain_pool.parallel_iter pool
      (fun (lo, hi) -> sort_range ~cutoff ~cmp a lo (hi - 1))
      ranges;
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
      Domain_pool.parallel_iter pool
        (function
          | `Merge (lo, mid, hi) -> merge_ranges ~cmp s d lo mid hi
          | `Copy (lo, hi) -> Array.blit s lo d lo (hi - lo))
        jobs;
      runs :=
        List.map
          (function `Merge (lo, _, hi) -> (lo, hi) | `Copy (lo, hi) -> (lo, hi))
          (Array.to_list jobs);
      let tmp = !src in
      src := !dst;
      dst := tmp
    done;
    if !src != a then Array.blit !src 0 a 0 n
  end

(* Quicksort, sliced across [pool] by {!sort_parallel} when one is given
   and usable. *)
let sort_with ?cutoff ?pool Quicksort ~cmp a =
  match pool with
  | Some pool -> sort_parallel ?cutoff ~pool ~cmp a
  | None -> sort ?cutoff ~cmp a

let is_sorted ~cmp a =
  let n = Array.length a in
  let rec check i = i >= n || (cmp a.(i - 1) a.(i) <= 0 && check (i + 1)) in
  check 1
