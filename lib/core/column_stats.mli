(** Per-column statistics for cost-based planning.

    One analyze pass per (relation, column) yields the live row count, a
    distinct-value estimate (linear counting over a fixed 16384-bit
    bitmap), numeric min/max, and a value histogram on
    {!Mmdb_util.Histogram}'s log-bucket layout for range selectivities.
    Scans use [Tuple.scan_reader] — snapshot-aware but uncounted, so
    planning never perturbs the §3.1 counters the cost model is
    calibrated against. *)

type t = {
  cs_rows : int;  (** live rows at analyze time *)
  cs_distinct : int;  (** distinct-value estimate, >= 1 when rows > 0 *)
  cs_numeric : int;  (** rows carrying an Int/Float in the column *)
  cs_min : float;  (** numeric min; 0.0 when [cs_numeric = 0] *)
  cs_max : float;  (** numeric max; 0.0 when [cs_numeric = 0] *)
  cs_hist : Mmdb_util.Histogram.t;
}

val analyze : Mmdb_storage.Relation.t -> col:int -> t
(** One full (uncounted) scan; pure — under an MVCC snapshot the result
    reflects the snapshot's visible rows. *)

val stats_for : Mmdb_storage.Relation.t -> col:int -> t
(** Cached {!analyze}, re-run lazily once the relation's live count
    drifts >20% (or 64 rows) from the count at analyze time. *)

val est_eq : t -> int
(** Expected matches for an equality predicate: rows / distinct. *)

val est_range : t -> lo:float -> hi:float -> int
(** Expected matches for an inclusive numeric range, from cumulative
    histogram buckets; falls back to the §4 uniform prior (rows/4) when
    the column holds no numeric (or signed) data. *)

val invalidate : Mmdb_storage.Relation.t -> unit
(** Drop cached statistics for one relation (bulk load, tests). *)

val reset : unit -> unit
