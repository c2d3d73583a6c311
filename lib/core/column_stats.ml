(* Per-column statistics for cost-based planning.

   One analyze pass per (relation, column) collects: live row count, a
   distinct-value estimate (linear counting over a fixed bitmap — one
   hash per row, error ~1% at the cardinalities this engine holds),
   numeric min/max, and a value histogram reusing {!Mmdb_util.Histogram}'s
   log-bucket layout so range selectivities come from cumulative bucket
   counts instead of the uniform-spread guess.

   Scans go through [Tuple.scan_reader] — forwarding- and
   snapshot-aware but uncounted, so planning does not perturb the §3.1
   counters the cost model is calibrated against.  Results are cached
   process-globally and re-analyzed lazily once the relation's row count
   drifts past a staleness bound; [analyze] itself is pure and
   side-effect-free, which is what the MVCC tests use to check that a
   snapshot reader computes statistics over its snapshot, not the live
   table. *)

open Mmdb_util
open Mmdb_storage

type t = {
  cs_rows : int;  (* live rows at analyze time *)
  cs_distinct : int;  (* linear-counting estimate, >= 1 when rows > 0 *)
  cs_numeric : int;  (* rows carrying an Int/Float in the column *)
  cs_min : float;  (* numeric min/max; 0.0 when cs_numeric = 0 *)
  cs_max : float;
  cs_hist : Histogram.t;  (* log-bucketed over scale |v| *)
}

(* Linear counting: hash every value into an m-bit bitmap; with z bits
   still zero, distinct ~ -m ln(z/m).  m = 16384 keeps the estimate
   within a few percent up to ~m distinct values, far past anything the
   planner needs to discriminate. *)
let lc_bits = 16384

(* Histogram buckets span 1e-6 .. 1e2 (seconds, in the latency use);
   scaling |v| by 1e-6 maps the integer ranges these workloads hold
   (1 .. 1e8) onto the same span, so the bucket layout is reused as-is. *)
let scale v = Float.abs v *. 1e-6

let analyze rel ~col =
  let read = Tuple.scan_reader () in
  let bitmap = Bytes.make (lc_bits / 8) '\000' in
  let rows = ref 0 and numeric = ref 0 in
  let mn = ref infinity and mx = ref neg_infinity in
  let hist = Histogram.create () in
  let note_numeric f =
    incr numeric;
    if f < !mn then mn := f;
    if f > !mx then mx := f;
    Histogram.add hist (scale f)
  in
  Relation.iter rel (fun tu ->
      incr rows;
      let v = read tu col in
      let h = Value.hash v land (lc_bits - 1) in
      let byte = h lsr 3 and bit = h land 7 in
      Bytes.unsafe_set bitmap byte
        (Char.unsafe_chr (Char.code (Bytes.unsafe_get bitmap byte) lor (1 lsl bit)));
      match v with
      | Value.Int n -> note_numeric (float_of_int n)
      | Value.Float f -> note_numeric f
      | _ -> ());
  let zeros = ref 0 in
  Bytes.iter
    (fun c ->
      let c = Char.code c in
      for bit = 0 to 7 do
        if c land (1 lsl bit) = 0 then incr zeros
      done)
    bitmap;
  let distinct =
    if !rows = 0 then 0
    else if !zeros = 0 then !rows
    else
      let m = float_of_int lc_bits in
      let est = int_of_float (Float.round (-.m *. log (float_of_int !zeros /. m))) in
      max 1 (min !rows est)
  in
  {
    cs_rows = !rows;
    cs_distinct = distinct;
    cs_numeric = !numeric;
    cs_min = (if !numeric = 0 then 0.0 else !mn);
    cs_max = (if !numeric = 0 then 0.0 else !mx);
    cs_hist = hist;
  }

(* --- process-global cache ------------------------------------------------ *)

type slot = { stats : t; built_rows : int }

let m = Mutex.create ()
let cache : (string * int, slot) Hashtbl.t = Hashtbl.create 64

let locked f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

(* Stale once the live count drifts by >20% (or 64 rows, whichever is
   larger) from the count at analyze time. *)
let stale ~built ~now =
  let drift = abs (now - built) in
  drift > max 64 (built / 5)

let stats_for rel ~col =
  let key = (Relation.name rel, col) in
  let now = Relation.cardinality rel in
  let cached =
    locked @@ fun () ->
    match Hashtbl.find_opt cache key with
    | Some s when not (stale ~built:s.built_rows ~now) -> Some s.stats
    | _ -> None
  in
  match cached with
  | Some s -> s
  | None ->
      (* Analyze outside the lock: scans can be long and planning is
         concurrent.  Racing analyzers do redundant work, not harm. *)
      let s = analyze rel ~col in
      (locked @@ fun () ->
       Hashtbl.replace cache key { stats = s; built_rows = s.cs_rows });
      s

let invalidate rel =
  let name = Relation.name rel in
  locked @@ fun () ->
  Hashtbl.filter_map_inplace
    (fun (r, _) s -> if String.equal r name then None else Some s)
    cache

let reset () = locked @@ fun () -> Hashtbl.reset cache

(* --- estimators ---------------------------------------------------------- *)

(* Expected matches for an equality predicate: rows / distinct. *)
let est_eq s =
  if s.cs_rows = 0 then 1
  else max 1 (s.cs_rows / max 1 s.cs_distinct)

(* Samples with scaled value <= x, from cumulative bucket counts.  The
   bucket straddling x contributes in full — estimates stay on the
   pessimistic (larger) side, which the cost model prefers. *)
let cum_le hist x =
  let rec go acc = function
    | [] -> acc
    | (bound, count) :: rest ->
        if bound <= x then go (acc + count) rest else acc + count
  in
  go 0 (Histogram.buckets hist)

(* Samples with scaled value strictly below x: every bucket entirely
   under x (optimistic side — this count gets subtracted). *)
let cum_lt hist x =
  let rec go acc = function
    | [] -> acc
    | (bound, count) :: rest -> if bound < x then go (acc + count) rest else acc
  in
  go 0 (Histogram.buckets hist)

(* Expected matches for [lo <= v <= hi] over the numeric samples.  Rows
   with no numeric value in the column can never match; a column with no
   numeric data (or with signed data, which the |v| histogram folds
   together) falls back to the uniform prior rows/4 — the §4 static
   Between factor. *)
let est_range s ~lo ~hi =
  if s.cs_rows = 0 then 1
  else if hi < s.cs_min || lo > s.cs_max then 1
  else if s.cs_numeric = 0 || s.cs_min < 0.0 then max 1 (s.cs_rows / 4)
  else
    let below_hi = cum_le s.cs_hist (scale hi) in
    let below_lo = if lo <= s.cs_min then 0 else cum_lt s.cs_hist (scale lo) in
    max 1 (below_hi - below_lo)
