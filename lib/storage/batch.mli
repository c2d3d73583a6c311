(** Fixed-size execution batches: vectors of tuple pointers plus an
    extracted value slice for one hot column.  Produced by
    {!Relation.iter_batches}; consumed by the vectorized operator kernels
    in [Select] / [Join].  See DESIGN.md "Batched execution".

    Key extraction into a batch is uncounted — the consuming kernel
    accounts the paper's §3.1 operations itself, so every batch size
    reports identical counter totals. *)

val default_size : int
(** 256: large enough to amortize per-batch bookkeeping, small enough
    that a batch's key slice stays cache-resident. *)

val size : unit -> int
(** The configured batch size ([MMDB_BATCH]; [0] there means 1). *)

val enabled : unit -> bool
(** Whether batches carry more than one tuple: [false] only at batch
    size 1, the tuple-at-a-time ablation. *)

val set_size : int -> unit
(** [set_size n] sets the batch size; [n <= 1] means 1. *)

type stats = {
  st_enabled : bool;  (** {!enabled} *)
  st_size : int;
  st_batches : int;  (** batches produced by scan entry points *)
  st_rows : int;  (** rows carried in those batches *)
}

val stats : unit -> stats

val note_batch : rows:int -> unit
(** Record one produced batch (called by the scan entry points). *)

type t = {
  tuples : Tuple.t array;  (** valid in [0, n) *)
  keys : Value.t array;  (** hot-column values, parallel to [tuples] *)
  mutable n : int;
}

val create : ?size:int -> unit -> t
(** A fresh batch; [size] defaults to the configured {!size}. *)

val clear : t -> unit
