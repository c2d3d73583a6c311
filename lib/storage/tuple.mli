(** Operations on tuples (see {!Value.tuple} for the representation).

    Tuple pointers are the currency of the whole system: indices store
    them instead of key values (§2.2), temporary lists hold arrays of them
    (§2.3), and foreign keys follow them (§2.1).  Each dereference that
    reaches through a pointer for an attribute value is tallied in
    [Mmdb_util.Counters.ptr_derefs]. *)

type t = Value.tuple

val make : Value.t array -> t
(** Allocate a tuple with a fresh identity.  The array is owned by the
    tuple afterwards. *)

val id : t -> int
(** The tuple's stable identity (survives partition moves). *)

val resolve : t -> t
(** Follow forwarding addresses to the current record (§2.1 footnote 1). *)

val arity : t -> int

val get : t -> int -> Value.t
(** [get t i] reads field [i] through the pointer (resolving forwarding and
    counting the dereference). *)

val get_raw : t -> int -> Value.t
(** Field access without forwarding resolution or counting — internal
    bookkeeping only. *)

val peek : t -> int -> Value.t
(** Like {!get} — resolves forwarding and the active MVCC snapshot — but
    without the ptr_deref tally.  Batch fill uses it to extract key
    slices; the consuming kernel accounts the logical dereferences. *)

val scan_reader : unit -> t -> int -> Value.t
(** {!peek} with the snapshot state captured once: returns a field reader
    for a whole scan, avoiding the per-tuple domain-local snapshot
    lookup.  Uncounted, like {!peek}. *)

val update : t -> int -> Value.t -> unit
(** Write a stored tuple's field by replacing its field array, so that a
    concurrent snapshot reader keeps reading the array it loaded. *)

val fields : t -> Value.t array
(** A copy of all field values. *)

val byte_width : t -> int
(** Total simulated width of the tuple's fields. *)

val heap_bytes : t -> int
(** Bytes of partition heap consumed by variable-length (string) fields. *)

val pp : Format.formatter -> t -> unit

(** {1 Key extraction for indices}

    A single tuple pointer gives access to any field, so multi-attribute
    indices need no special mechanism (§2.2). *)

val key : columns:int array -> t -> Value.t array

val compare_on : columns:int array -> t -> t -> int
(** Lexicographic comparison on the projected columns. *)

val hash_on : columns:int array -> t -> int

val probe : Value.t array -> t
(** A transient search-key tuple with wildcard identity: it compares equal
    (under {!compare_keyed}) to any tuple with the same key values.  Never
    insert a probe into an index. *)

val is_probe : t -> bool

val filler : t
(** The fill value for tuple arrays whose unused slots are never read.
    Filling with it never forces a minor collection, as filling a large
    array with a freshly allocated tuple does. *)

val compare_keyed : columns:int array -> t -> t -> int
(** Key comparison with a tuple-identity tie-break, used by non-unique
    indices so each entry is distinct and deleting a tuple removes exactly
    its own entry.  Probes are wildcards in the tie-break. *)

val move_record : t -> fields:Value.t array -> t
(** [move_record t ~fields] clones [t]'s record with the new fields,
    preserving its identity, and installs a forwarding address in the old
    record.  Used when a growing variable-length field overflows the
    partition heap. *)
