(** All eight index structures of the paper's study (§3.2.2), packed as
    first-class modules so tests and benchmarks can sweep over them
    uniformly. *)

val all : Index_intf.packed list
(** Array, AVL Tree, B Tree, T Tree, Chained Bucket Hash, Extendible Hash,
    Linear Hash, Modified Linear Hash — in that order. *)

val ordered : Index_intf.packed list
(** The order-preserving structures (support range scans). *)

val hashed : Index_intf.packed list
(** The hash-based structures. *)

val extras : Index_intf.packed list
(** Structures beyond the paper's eight (currently the B+ Tree, kept for
    the footnote-3 ablation); excluded from [all] so the paper's sweeps
    stay faithful. *)

val by_name : string -> Index_intf.packed option
(** Look up a structure by its display name, e.g. ["T Tree"]; searches
    [all] and [extras]. *)
