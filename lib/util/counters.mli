(** Operation counters for algorithm validation.

    The paper (§3.1) validated its timing results by "recording and examining
    the number of comparisons, the amount of data movement, the number of
    hash function calls, and other miscellaneous operations to ensure that
    the algorithms were doing what they were supposed to".  This module is
    that instrumentation: every index and query-processing algorithm bumps
    these counters, and the test suite asserts the expected operation counts
    (which are hardware-independent, unlike wall-clock times).

    Counting is on by default, and stays on in every query the engine
    serves or runs embedded: the network server and the [perfbench]
    benchmark both count.  Only the experiment harness under [bench/]
    turns it off for its timed runs, as the paper did when "these
    counters were compiled out of the code when the final performance
    tests were run".  Because counting stays on, the hot kernels do not
    bump a counter per operation.

    {b The tally contract.}  A kernel counts its operations in local
    integers or one small {!tally} per call, and {!publish}es them once
    per call, on the domain that ran it; {!counting} also publishes when
    the kernel raises.  Per-operation {!bump_comparisons} and friends
    stay for the index structures and the cold paths.  Either way the
    totals, the per-domain merge and {!Trace}'s per-span deltas are
    exact: a kernel call publishes before its span or its future
    completes.

    Counters are {e domain-local}: each domain bumps a private cell with no
    synchronization, and [snapshot]/[reset] merge/clear every domain's cell
    under a registry mutex.  Parallel operators therefore count exactly the
    same operations as their sequential counterparts; take snapshots from
    the coordinating domain after the parallel work has been awaited. *)

type snapshot = {
  comparisons : int;  (** key/value comparisons performed *)
  data_moves : int;   (** elements moved or copied within/between nodes *)
  hash_calls : int;   (** hash-function evaluations *)
  node_allocs : int;  (** index nodes / buckets allocated *)
  ptr_derefs : int;   (** tuple-pointer dereferences to reach attribute values *)
}
(** An immutable copy of all counters. *)

val enabled : bool ref
(** Master switch.  When [false], the bump functions are no-ops. *)

val reset : unit -> unit
(** Zero every counter in every domain. *)

val snapshot : unit -> snapshot
(** Current counter values, merged across all domains. *)

val local_snapshot : unit -> snapshot
(** The calling domain's counters only. *)

val absorb : snapshot -> unit
(** Add a snapshot into the calling domain's counters — the explicit merge
    half of domain-local counting, for carrying counts across domains by
    hand. *)

val zero : snapshot
(** The all-zero snapshot. *)

val add : snapshot -> snapshot -> snapshot
(** Componentwise sum. *)

val diff : snapshot -> snapshot -> snapshot
(** [diff later earlier] is the componentwise difference. *)

val bump_comparisons : ?n:int -> unit -> unit
val bump_data_moves : ?n:int -> unit -> unit
val bump_hash_calls : ?n:int -> unit -> unit
val bump_node_allocs : ?n:int -> unit -> unit
val bump_ptr_derefs : ?n:int -> unit -> unit

(** {1 Kernel tallies} *)

type tally = {
  mutable t_comparisons : int;
  mutable t_data_moves : int;
  mutable t_hash_calls : int;
  mutable t_node_allocs : int;
  mutable t_ptr_derefs : int;
}
(** One kernel call's counts, kept in plain fields. *)

val tally : unit -> tally
(** A fresh all-zero tally. *)

val publish : tally -> unit
(** Add a tally into the calling domain's counters; a no-op when
    [enabled] is [false]. *)

val counting : (tally -> 'a) -> 'a
(** [counting f] runs [f] with a fresh tally and publishes it when [f]
    returns or raises. *)

val counting_cmp : ('a -> 'a -> int) -> 'a -> 'a -> int
(** [counting_cmp cmp] behaves as [cmp] but bumps [comparisons] on each
    call. *)

val with_counters : (unit -> 'a) -> 'a * snapshot
(** [with_counters f] runs [f] and returns its result together with the
    counters accumulated during the call (other concurrent bumps included;
    the MM-DBMS is single-threaded per the paper's experiments). *)

val pp : Format.formatter -> snapshot -> unit
(** Human-readable rendering. *)
