(* On-the-fly index advisor: workload-driven creation and removal of
   secondary indices.

   The observed workload is already aggregated for free: every executed
   selection reports under a {!Feedback} key that names its relation,
   access path and leading predicate column ("select/Emp/scan:eq@Age").
   Each advisor run parses those keys into per-(relation, column,
   predicate-shape) access counts, takes the delta since the previous
   run as the current workload window, and solves the
   benefit-vs-maintenance selection problem per candidate:

     create when   delta_scans * (seq_cost - indexed_cost)
                 > delta_writes * maintenance_cost + build_cost

   Single-column candidates make the objective separable, so the optimal
   selection is per-candidate thresholding — linear in candidates, the
   degenerate (independent-attribute) case of the polynomial-time
   formulation in "Optimal On The Fly Index Selection in Polynomial
   Time".  Builds go through {!Relation.create_index}, which bulk-loads
   via a sorted pass ("Compressed Key Sort and Fast Index
   Reconstruction"-style).  Shapes with range predicates get an ordered
   T Tree; pure equality workloads get a Chained Bucket Hash.

   Dropping is streak-based: an advisor-owned index that serves no
   indexed reads across [drop_after_unused] consecutive runs while its
   relation keeps taking writes is paying maintenance for nothing and is
   dropped.  (A dropped index can come back: the scans it would have
   served start accumulating again.)

   Safety rules:
   - [run] is a no-op under an MVCC snapshot: [Relation.create_index]
     fills the new index through [Relation.iter], which under a snapshot
     yields the snapshot's tuples, not the live ones.  The server
     schedules runs as exclusive writer jobs, where no snapshot is
     installed and no readers are in flight.
   - Create and drop change a relation's index list under the write
     mark, so no snapshot read entry walks an index while it is added
     or removed.
   - Advisor indices are in-memory only and never logged: recovery
     replay rebuilds relations without them, and the advisor simply
     re-learns from the fresh workload.  The drop pass forgets owned
     indices that no longer exist (recovered database, manual DROP).
   - Only indices the advisor itself created (named "adv_*") are ever
     dropped. *)

open Mmdb_storage

type action = Created of string * string * string | Dropped of string * string
(* (relation, index, structure) / (relation, index) *)

let pp_action ppf = function
  | Created (rel, idx, s) -> Fmt.pf ppf "create %s on %s (%s)" idx rel s
  | Dropped (rel, idx) -> Fmt.pf ppf "drop %s on %s" idx rel

type stats = {
  adv_runs : int;
  adv_created : int;
  adv_dropped : int;
  adv_active : (string * string) list;  (* (relation, index) currently owned *)
  adv_last_actions : action list;  (* most recent run's actions *)
}

(* --- tuning ---------------------------------------------------------------- *)

(* Comparison-unit costs, aligned with {!Optimizer.Cost}: a write into
   one extra index costs about one hash/descend plus one move. *)
let maintenance_cost_per_write = 3.0
let drop_after_unused = 2

(* Cadence default: run the advisor every N statements when MMDB_ADVISOR
   is a positive integer; 0 (or unset/garbage) means off. *)
let default_every () =
  match Sys.getenv_opt "MMDB_ADVISOR" with
  | None -> 0
  | Some s -> ( match int_of_string_opt (String.trim s) with
    | Some n when n > 0 -> n
    | _ -> 0)

(* --- state ----------------------------------------------------------------- *)

type cand = {
  mutable seen_scan : int;  (* cumulative scan observations consumed *)
  mutable seen_scan_rows : float;  (* cumulative actual rows over those *)
  mutable seen_range : int;  (* cumulative range-shaped observations *)
  mutable seen_idx : int;  (* cumulative indexed observations consumed *)
}

type owned = {
  ow_rel : string;
  ow_idx : string;
  ow_col : string;
  mutable ow_unused_runs : int;
}

let m = Mutex.create ()

let cands : (string * string, cand) Hashtbl.t = Hashtbl.create 32
(* keyed (relation, column name) *)

let owned : owned list ref = ref []
let writes : (string, int) Hashtbl.t = Hashtbl.create 16
let seen_writes : (string, int) Hashtbl.t = Hashtbl.create 16
let runs = ref 0
let created_total = ref 0
let dropped_total = ref 0
let last_actions : action list ref = ref []
let tick_counter = Atomic.make 0

let locked f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let note_write ?(n = 1) ~rel () =
  locked @@ fun () ->
  Hashtbl.replace writes rel (n + Option.value ~default:0 (Hashtbl.find_opt writes rel))

(* One atomic statement tick; true every [every]-th call.  The server
   calls this per executed batch and schedules a run when it fires. *)
let due ~every =
  every > 0 && Atomic.fetch_and_add tick_counter 1 mod every = every - 1

let reset () =
  locked @@ fun () ->
  Hashtbl.reset cands;
  Hashtbl.reset writes;
  Hashtbl.reset seen_writes;
  owned := [];
  runs := 0;
  created_total := 0;
  dropped_total := 0;
  last_actions := [];
  Atomic.set tick_counter 0

let stats () =
  locked @@ fun () ->
  {
    adv_runs = !runs;
    adv_created = !created_total;
    adv_dropped = !dropped_total;
    adv_active = List.map (fun o -> (o.ow_rel, o.ow_idx)) !owned;
    adv_last_actions = !last_actions;
  }

(* --- feedback-key parsing -------------------------------------------------- *)

(* "select/<rel>/<path>:<head>[@<col>][+<residuals>]" ->
   (rel, path, head, col).  Anything else (join keys, the overflow
   bucket) is not a selection observation. *)
let parse_key key =
  match String.split_on_char '/' key with
  | [ "select"; rel; rest ] -> (
      match String.index_opt rest ':' with
      | None -> None
      | Some i ->
          let path = String.sub rest 0 i in
          let shape = String.sub rest (i + 1) (String.length rest - i - 1) in
          let shape =
            match String.index_opt shape '+' with
            | Some j -> String.sub shape 0 j
            | None -> shape
          in
          let head, col =
            match String.index_opt shape '@' with
            | Some j ->
                ( String.sub shape 0 j,
                  Some (String.sub shape (j + 1) (String.length shape - j - 1))
                )
            | None -> (shape, None)
          in
          Some (rel, path, head, col))
  | _ -> None

type window = {
  w_scan : int;  (* new scan observations this window *)
  w_scan_rows : float;  (* actual rows those scans returned, summed *)
  w_range : int;  (* new range-shaped observations *)
  w_idx : int;  (* new indexed observations *)
}

(* Aggregate current feedback totals per (rel, col), subtract what
   previous runs already consumed, and advance the consumed marks. *)
let collect_windows () =
  let totals : (string * string, window) Hashtbl.t = Hashtbl.create 32 in
  let bump (rel, col) ~scan ~rows ~range ~idx =
    let w =
      Option.value
        (Hashtbl.find_opt totals (rel, col))
        ~default:{ w_scan = 0; w_scan_rows = 0.0; w_range = 0; w_idx = 0 }
    in
    Hashtbl.replace totals (rel, col)
      {
        w_scan = w.w_scan + scan;
        w_scan_rows = w.w_scan_rows +. rows;
        w_range = w.w_range + range;
        w_idx = w.w_idx + idx;
      }
  in
  List.iter
    (fun (e : Feedback.entry) ->
      match parse_key e.Feedback.fb_key with
      | Some (rel, path, head, Some col) ->
          let n = e.Feedback.fb_n in
          let range = if head = "between" then n else 0 in
          if path = "scan" then
            bump (rel, col) ~scan:n
              ~rows:(e.Feedback.fb_avg_actual *. float_of_int n)
              ~range ~idx:0
          else bump (rel, col) ~scan:0 ~rows:0.0 ~range ~idx:n
      | _ -> ())
    (Feedback.entries ());
  Hashtbl.fold
    (fun key w acc ->
      let c =
        match Hashtbl.find_opt cands key with
        | Some c -> c
        | None ->
            let c =
              { seen_scan = 0; seen_scan_rows = 0.0; seen_range = 0; seen_idx = 0 }
            in
            Hashtbl.replace cands key c;
            c
      in
      let delta =
        {
          w_scan = max 0 (w.w_scan - c.seen_scan);
          w_scan_rows = Float.max 0.0 (w.w_scan_rows -. c.seen_scan_rows);
          w_range = max 0 (w.w_range - c.seen_range);
          w_idx = max 0 (w.w_idx - c.seen_idx);
        }
      in
      c.seen_scan <- max c.seen_scan w.w_scan;
      c.seen_scan_rows <- Float.max c.seen_scan_rows w.w_scan_rows;
      c.seen_range <- max c.seen_range w.w_range;
      c.seen_idx <- max c.seen_idx w.w_idx;
      (key, delta) :: acc)
    totals []

let write_delta rel =
  let total = Option.value ~default:0 (Hashtbl.find_opt writes rel) in
  let seen = Option.value ~default:0 (Hashtbl.find_opt seen_writes rel) in
  max 0 (total - seen)

let consume_writes rel =
  Hashtbl.replace seen_writes rel
    (Option.value ~default:0 (Hashtbl.find_opt writes rel))

(* --- the selection problem ------------------------------------------------- *)

let log2 x = if x <= 1.0 then 1.0 else log x /. log 2.0

(* Net benefit (comparison units) of indexing (rel, col) for the window:
   each scan this window would have cost [2n] and instead costs a probe
   plus its matches; each write pays index maintenance; the build pays a
   sorted bulk load once. *)
let net_benefit ~n ~(w : window) ~writes =
  let nf = float_of_int n in
  let avg_rows =
    if w.w_scan = 0 then 1.0 else w.w_scan_rows /. float_of_int w.w_scan
  in
  let indexed_cost =
    if w.w_range > 0 then log2 nf +. avg_rows else 2.5 +. avg_rows
  in
  let per_scan_saving = Float.max 0.0 ((2.0 *. nf) -. indexed_cost) in
  let benefit = float_of_int w.w_scan *. per_scan_saving in
  let maintenance = float_of_int writes *. maintenance_cost_per_write in
  let build = nf *. log2 nf in
  benefit -. maintenance -. build

let create_candidate db ~rel_name ~col_name ~(w : window) =
  match Db.find db rel_name with
  | None -> None
  | Some rel -> (
      match Schema.column_index (Relation.schema rel) col_name with
      | None -> None
      | Some col ->
          if Select.candidate_indexes rel ~col <> [] then None
          else
            let n = Relation.cardinality rel in
            if n < 64 then None  (* scans of tiny relations are free *)
            else if net_benefit ~n ~w ~writes:(write_delta rel_name) <= 0.0 then
              None
            else
              let structure =
                if w.w_range > 0 then Relation.T_tree else Relation.Chained_hash
              in
              let idx_name = Printf.sprintf "adv_%s_%s" rel_name col_name in
              (match
                 Relation.create_index rel ~idx_name ~columns:[| col |]
                   ~structure ~unique:false
               with
              | Ok () ->
                  Some
                    ( { ow_rel = rel_name; ow_idx = idx_name; ow_col = col_name;
                        ow_unused_runs = 0 },
                      Created
                        ( rel_name,
                          idx_name,
                          (if structure = Relation.T_tree then "t_tree"
                           else "chained_hash") ) )
              | Error _ -> None))

(* Drop pass: forget owned indices that vanished (recovery, manual
   DROP); drop the ones that served nothing for [drop_after_unused]
   consecutive runs while their relation kept taking writes. *)
let drop_pass db ~windows =
  let actions = ref [] in
  owned :=
    List.filter
      (fun o ->
        match Db.find db o.ow_rel with
        | None -> false
        | Some rel ->
            if Relation.find_index rel o.ow_idx = None then false
            else begin
              let idx_reads =
                match List.assoc_opt (o.ow_rel, o.ow_col) windows with
                | Some w -> w.w_idx
                | None -> 0
              in
              let w_delta = write_delta o.ow_rel in
              if idx_reads > 0 then begin
                o.ow_unused_runs <- 0;
                true
              end
              else if w_delta > 0 then begin
                o.ow_unused_runs <- o.ow_unused_runs + 1;
                if o.ow_unused_runs >= drop_after_unused then (
                  match Relation.drop_index rel ~idx_name:o.ow_idx with
                  | Ok () ->
                      actions := Dropped (o.ow_rel, o.ow_idx) :: !actions;
                      false
                  | Error _ -> true)
                else true
              end
              else true
            end)
      !owned;
  !actions

let run db =
  (* Never under a snapshot: the bulk build's [iter] would read the
     snapshot's tuples, not the live ones. *)
  if Version_store.current_snapshot () <> None then []
  else
    locked @@ fun () ->
    incr runs;
    let windows = collect_windows () in
    let created =
      List.filter_map
        (fun ((rel_name, col_name), w) ->
          if w.w_scan = 0 then None
          else create_candidate db ~rel_name ~col_name ~w)
        windows
    in
    List.iter (fun (o, _) -> owned := o :: !owned) created;
    let create_actions = List.map snd created in
    let drop_actions = drop_pass db ~windows in
    (* Windows consumed: writes advance after both passes used them. *)
    List.iter (fun ((rel_name, _), _) -> consume_writes rel_name) windows;
    List.iter (fun o -> consume_writes o.ow_rel) !owned;
    let actions = create_actions @ drop_actions in
    created_total := !created_total + List.length create_actions;
    dropped_total := !dropped_total + List.length drop_actions;
    last_actions := actions;
    actions
