(** The paper's sort routine.

    §3.3.2: "The sort was done using quicksort with an insertion sort for
    subarrays of ten elements or less", and footnote 6 records that 10 was
    found to be the optimal cutoff experimentally.  Ablation bench A3
    re-runs that experiment, so the cutoff is a parameter here.

    Comparisons and data movement are tallied through {!Counters} so tests
    can check the O(n log n) shape and the duplicate-heavy behaviour the
    paper observes in Project Test 2 (nearly-sorted subarrays make the
    insertion-sort phase cheap).  Each slice sort, insertion pass and
    merge counts into a tally of its own and publishes it once, on the
    domain that ran it (the {!Counters} tally contract). *)

val insertion_sort :
  ?lo:int -> ?hi:int -> cmp:('a -> 'a -> int) -> 'a array -> unit
(** [insertion_sort ~lo ~hi ~cmp a] sorts [a.(lo) .. a.(hi)] inclusive in
    place.  Defaults cover the whole array.  Stable. *)

val sort : ?cutoff:int -> cmp:('a -> 'a -> int) -> 'a array -> unit
(** [sort ~cutoff ~cmp a] sorts [a] in place: median-of-three quicksort,
    switching to insertion sort for subarrays of [cutoff] elements or less.
    [cutoff] defaults to 10, the paper's optimum.  Not stable. *)

val sort_parallel :
  ?cutoff:int -> pool:Domain_pool.t -> cmp:('a -> 'a -> int) -> 'a array -> unit
(** [sort_parallel ~pool ~cmp a] sorts [a] in place using the pool:
    disjoint slices are quicksorted concurrently, then merged in parallel
    pairwise rounds.  Falls back to {!sort} for small arrays (< 2048),
    sequential pools, or when called from a pool worker — in those cases
    the comparison/move counts are identical to {!sort}; in the parallel
    case they differ (merge rounds replace deep quicksort recursion) but
    stay within the same O(n log n) envelope.  Not stable. *)

val sort_counted :
  ?cutoff:int -> ?pool:Domain_pool.t -> cmp:('a -> 'a -> int) -> 'a array -> int
(** {!sort_parallel} when a [pool] is given, else {!sort}, returning the
    number of [cmp] calls made (already published to {!Counters}).
    Callers that charge a cost per comparison charge it once from this
    count instead of inside [cmp]. *)

type kernel = Quicksort
(** The one sort kernel, kept as a type for callers that name it. *)

val kernel_name : kernel -> string
(** ["qsort"]. *)

val choose : n:int -> batched:bool -> kernel
(** Always [Quicksort]; the arguments are ignored. *)

val sort_with :
  ?cutoff:int ->
  ?pool:Domain_pool.t ->
  kernel ->
  cmp:('a -> 'a -> int) ->
  'a array ->
  unit
(** {!sort_parallel} when a [pool] is given, else {!sort}. *)

val is_sorted : cmp:('a -> 'a -> int) -> 'a array -> bool
(** [is_sorted ~cmp a] checks nondecreasing order (no counters bumped). *)
