(** Common interface implemented by every main-memory index structure.

    Following §2.2 of the paper, indices do not store attribute values: they
    store {e tuple pointers} and extract key values through them when
    comparing.  The structures here are therefore generic in the element
    type ['a]; the storage layer instantiates them with tuple pointers and a
    comparison function that dereferences the pointer (bumping the
    [ptr_derefs] counter), while unit tests and benchmarks instantiate them
    directly with integers.

    All structures share one tuning knob, [node_size], so that they can be
    compared on the same axis as in Graphs 1 and 2 of the paper.  For the
    hash-based structures with single-item nodes (Modified Linear Hashing)
    the knob is reinterpreted as the target average chain length, exactly as
    the paper does. *)

type kind = Ordered | Hash

module type S = sig
  type 'a t

  val name : string
  (** Display name used in benchmark output, e.g. ["T Tree"]. *)

  val kind : kind
  (** Whether the structure preserves key order (supports {!val-range} and
      ordered {!val-to_seq}). *)

  val default_node_size : int
  (** The node size used when [create] is not given one; chosen per
      structure from the sweet spots visible in the paper's graphs. *)

  val create :
    ?node_size:int ->
    ?duplicates:bool ->
    ?expected:int ->
    cmp:('a -> 'a -> int) ->
    hash:('a -> int) ->
    unit ->
    'a t
  (** [create ()] makes an empty index.

      - [node_size]: elements per node (or average-chain-length target).
      - [duplicates]: when [false] (default), inserting an element equal to
        an existing one is rejected — the "unique index" configuration of
        the paper's index study.  When [true], equal elements coexist and
        {!val-iter_matches} visits all of them.
      - [expected]: size hint; only static structures (the array index and
        Chained Bucket Hashing) use it to pre-size their storage.
      - [cmp]: total order on elements (hash structures use it only as an
        equality test).
      - [hash]: hash on elements; ignored by ordered structures. *)

  val insert : 'a t -> 'a -> bool
  (** [insert t x] adds [x].  Returns [false] (and leaves [t] unchanged) if
      [x] is a duplicate and duplicates are disallowed. *)

  val delete : 'a t -> 'a -> bool
  (** [delete t x] removes one element equal to [x]; [false] if none. *)

  val search : 'a t -> 'a -> 'a option
  (** [search t x] is some element equal to [x], if present. *)

  val iter_matches : 'a t -> 'a -> ('a -> unit) -> unit
  (** [iter_matches t x f] applies [f] to every stored element equal to [x]
      (several when duplicates are allowed). *)

  val iter : 'a t -> ('a -> unit) -> unit
  (** Full scan; in key order for ordered structures. *)

  val to_seq : 'a t -> 'a Seq.t
  (** Like {!val-iter} but demand-driven; used by merge joins.  The sequence
      must not be consumed across mutations. *)

  val range : 'a t -> lo:'a -> hi:'a -> ('a -> unit) -> unit
  (** [range t ~lo ~hi f] applies [f] to elements in [\[lo, hi\]] inclusive,
      ascending.  @raise Unsupported on hash structures. *)

  val iter_from : 'a t -> 'a -> ('a -> unit) -> unit
  (** [iter_from t lo f] applies [f] to every element [>= lo], ascending —
      the open-ended scan used by non-equijoins (§3.3.5).
      @raise Unsupported on hash structures. *)

  val size : 'a t -> int
  (** Number of stored elements. *)

  val storage_bytes : 'a t -> int
  (** Simulated storage footprint in bytes, using the paper's accounting:
      4-byte tuple pointers and 4-byte node pointers (§3.2.2 "Storage
      Cost").  Used to reproduce the storage-factor comparison. *)

  val validate : 'a t -> (unit, string) result
  (** Check every internal structural invariant; [Error msg] pinpoints the
      first violation.  Meant for tests, not production paths. *)
end

exception Unsupported of string
(** Raised by {!S.range} on hash-based structures. *)

type packed = Pack : (module S) -> packed
(** Existential wrapper so benchmarks and tests can sweep over all
    structures uniformly. *)

(* [n] slots all holding [x], built without [Array.make] around [x]:
   past 256 words, [Array.make] first empties the minor heap — stopping
   every domain — when [x] still lives there.  Copying ([Array.append],
   [Array.sub]) allocates the same array without that collection.  The
   index structures grow their arrays by copying for the same reason. *)
let slots n x =
  let rec grow a =
    if Array.length a < n then grow (Array.append a a)
    else if Array.length a = n then a
    else Array.sub a 0 n
  in
  grow (Array.make (min n 256) x)

(* Shared helper: binary search of [x] in the sorted segment [a.(0 ..
   count-1)].  Returns [Found i] for some matching index, or [Insert_at i]
   for the insertion point.  Bumps the comparison counter through
   [Mmdb_util.Counters]. *)
type probe = Found of int | Insert_at of int

let binary_search ~cmp a ~count x =
  let rec go lo hi =
    if lo > hi then Insert_at lo
    else
      let mid = (lo + hi) / 2 in
      let c = Mmdb_util.Counters.counting_cmp cmp x a.(mid) in
      if c = 0 then Found mid
      else if c < 0 then go lo (mid - 1)
      else go (mid + 1) hi
  in
  go 0 (count - 1)

(* Leftmost index whose element is >= x (first candidate of a duplicate
   run), or [count] if none. *)
let lower_bound ~cmp a ~count x =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if Mmdb_util.Counters.counting_cmp cmp a.(mid) x < 0 then go (mid + 1) hi
      else go lo mid
  in
  go 0 count

(* Leftmost index whose element is > x, or [count] if none. *)
let upper_bound ~cmp a ~count x =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if Mmdb_util.Counters.counting_cmp cmp a.(mid) x <= 0 then go (mid + 1) hi
      else go lo mid
  in
  go 0 count
