(** MVCC versioning: the global commit clock, per-tuple version chains,
    statement snapshots, and the storage-side write/read hooks.

    The paper's §2.4 partition locks make every reader block behind any
    writer.  This module gives read-only statements a consistent
    {e snapshot} instead: each committed mutation stamps immutable
    version records ({!Value.version}) onto the affected tuples' chains,
    and a reader that acquired snapshot [s] resolves every field access
    against the version visible at [s] — never taking a lock and never
    observing a concurrent writer's uncommitted state.

    Visibility rule: version [v] is visible at snapshot [s] iff
    [v.v_begin <= s < v.v_end].  [max_int] in [v_begin] means "not yet
    committed", in [v_end] "still current".  A tuple with an {e empty}
    chain predates versioning (or was created with MVCC off) and is
    visible to every snapshot through its live fields.

    Two stamping modes:

    - {e deferred} (inside {!with_write}, which [Txn.commit] opens
      around a transaction's apply): mutations push versions stamped
      [v_begin = max_int] — invisible — and record them in a pending
      buffer; {!with_write} publishes at scope end by stamping every
      pending version with one freshly reserved timestamp and only then
      moving the commit clock to it ({!stamp_with}).  The clock move is
      the happens-before edge: a snapshot acquired at [s >= ts] is
      guaranteed to see the stamps.  Because uncommitted versions carry
      [v_begin = max_int], another database sharing the process-global
      clock can never expose them early.

    - {e immediate} (no scope: direct {!Relation} use in tests, benches
      and recovery): mutations stamp at a freshly bumped timestamp right
      away.  When no snapshot is live, immediate mode is {e lazy} — it
      skips version copies entirely for unversioned tuples, so MVCC-on
      adds no per-operation cost to single-threaded workloads.

    Safety argument for the snapshot registry (readers vs. the epoch
    GC): {!acquire} publishes its slot and then re-validates that the
    commit clock did not move; the GC reads the clock {e before}
    scanning slots.  If the GC missed a just-registered slot [s], its
    clock read happened before the reader's successful re-validation of
    [s], and the clock is monotonic, so the GC's horizon is <= [s] —
    it can only prune versions that snapshot could not see anyway.

    Live-index reads (readers vs. the writer's index mutations): a
    snapshot may walk a relation's live index only when that index holds
    exactly the state at the snapshot.  Every write holds a mark in
    {!writers} from before its first index mutation until after
    {!publish}, then bumps {!write_epoch} and drops the mark; after
    setting the mark it waits until no traversal counted in {!readers}
    is in flight.  A snapshot remembers the epoch it read {e before}
    acquiring its timestamp.  {!exclusive_read} counts itself a reader
    and only then checks that no write is marked and the epoch is
    unchanged.  All three are SC atomics, so either the reader sees the
    writer's mark or the writer waits for the reader.  On success every
    write the index reflects published before the snapshot's timestamp
    was taken, and none can start until the traversal ends. *)

let unstamped = max_int

(* --- the enable knob --------------------------------------------------- *)

let enabled_flag =
  ref
    (match Sys.getenv_opt "MMDB_MVCC" with
    | Some ("0" | "false" | "off" | "no") -> false
    | _ -> true)

let enabled () = !enabled_flag
let set_enabled b = enabled_flag := b

(* --- the global commit clock ------------------------------------------- *)

(* One clock per process, shared by every database: snapshot timestamps
   only ever compare against versions of the same database, and deferred
   stamping keeps other databases' uncommitted work invisible. *)
let commit_ts : int Atomic.t = Atomic.make 0

let now () = Atomic.get commit_ts

(* Raise [clock] to at least [ts]; clocks never move backwards. *)
let raise_to clock ts =
  let rec go () =
    let cur = Atomic.get clock in
    if ts > cur && not (Atomic.compare_and_set clock cur ts) then go ()
  in
  go ()

(* Wait until [ready ()]: spin briefly, then sleep in short naps, which
   give the processor (and this domain's runtime lock) to the awaited
   party when it is descheduled or is a thread of this same domain. *)
let await ready =
  let spins = ref 0 in
  while not (ready ()) do
    if !spins < 64 then begin
      incr spins;
      Domain.cpu_relax ()
    end
    else Unix.sleepf 1e-5
  done

(* Commit timestamps are reserved here, ahead of the clock snapshots
   read: a write stamps its versions with its reserved timestamp while
   the clock is still below it, so no snapshot can see them half
   stamped, and only then moves the clock to it.  Reservations publish
   in order — a write waits for the writes that reserved before it,
   which are only stamping — and snapshots never wait. *)
let reserved_ts : int Atomic.t = Atomic.make 0

(* Reserve the next commit timestamp, run [f] (the stamping) with it,
   then publish it. *)
let stamp_with f =
  let ts = 1 + Atomic.fetch_and_add reserved_ts 1 in
  Fun.protect
    ~finally:(fun () ->
      await (fun () -> Atomic.get commit_ts >= ts - 1);
      raise_to commit_ts ts)
    (fun () -> f ts)

(* Recovery replays a crashed instance's log in immediate mode and then
   raises the clock to the log's highest LSN so that post-recovery
   snapshots order after everything replayed.  Monotonic-only: the clock
   is process-global and must never move backwards. *)
let bump_to ts =
  raise_to reserved_ts ts;
  raise_to commit_ts ts

(* --- observability counters -------------------------------------------- *)

let snapshots_taken = Atomic.make 0
let gc_runs = Atomic.make 0
let versions_reclaimed = Atomic.make 0
let versions_created = Atomic.make 0
let max_chain = Atomic.make 0
let tuples_swept = Atomic.make 0

(* Version-chain entries walked while resolving reads under the current
   snapshot; the server surfaces the per-statement delta as the
   [versions] trace-span attribute. *)
let versions_walked_key : int ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref 0)

let versions_walked () = !(Domain.DLS.get versions_walked_key)

(* Snapshot read entries that walked the live index, and those that fell
   back to the membership view because a write intervened. *)
let fast_reads = Atomic.make 0
let fallback_reads = Atomic.make 0

(* --- write epoch and reader drain --------------------------------------- *)

(* See the live-index safety argument in the header. *)
let write_epoch : int Atomic.t = Atomic.make 0
let writers : int Atomic.t = Atomic.make 0
let readers : int Atomic.t = Atomic.make 0

(* Hold the write mark around [f]: no live-index traversal overlaps it,
   and snapshots taken before it ends stop trusting the live index.  The
   in-flight traversals it waits out only collect tuples and never wait
   on a writer. *)
let marked f =
  Atomic.incr writers;
  await (fun () -> Atomic.get readers = 0);
  Fun.protect
    ~finally:(fun () ->
      Atomic.incr write_epoch;
      Atomic.decr writers)
    f

(* --- snapshot registry ------------------------------------------------- *)

let max_snapshots = 256

(* A slot holds a live snapshot's timestamp, or -1 when free.  The GC
   takes the minimum over live slots as its pruning horizon. *)
let slots : int Atomic.t array =
  Array.init max_snapshots (fun _ -> Atomic.make (-1))

let live_snapshots () =
  Array.fold_left
    (fun n s -> if Atomic.get s >= 0 then n + 1 else n)
    0 slots

let oldest_snapshot () =
  Array.fold_left
    (fun acc s ->
      let v = Atomic.get s in
      if v >= 0 then match acc with None -> Some v | Some o -> Some (min o v)
      else acc)
    None slots

(* The GC horizon: nothing a live (or future) snapshot can see may be
   pruned.  Read the clock FIRST — see the safety argument above. *)
let horizon () =
  let h = Atomic.get commit_ts in
  match oldest_snapshot () with None -> h | Some o -> min o h

exception Snapshot_slots_exhausted

let acquire_slot () =
  let rec find i =
    if i >= max_snapshots then raise Snapshot_slots_exhausted
    else if
      Atomic.get slots.(i) = -1
      && Atomic.compare_and_set slots.(i) (-1) (Atomic.get commit_ts)
    then i
    else find (i + 1)
  in
  let slot = find 0 in
  (* Validated publication: land on a timestamp the GC is guaranteed to
     respect.  The loop terminates because the clock only moves when a
     writer publishes, and re-reading it is O(1). *)
  let rec stamp () =
    let s = Atomic.get commit_ts in
    Atomic.set slots.(slot) s;
    if Atomic.get commit_ts <> s then stamp () else s
  in
  let s = stamp () in
  Atomic.incr snapshots_taken;
  (slot, s)

let release_slot slot = Atomic.set slots.(slot) (-1)

(* The active snapshot for this domain; [None] — the default — is the
   hot-path case every [Tuple.get] hits. *)
let current_key : int option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let current_snapshot () = Domain.DLS.get current_key

(* The write epoch read just before the active snapshot was acquired. *)
let epoch_key : int Domain.DLS.key = Domain.DLS.new_key (fun () -> -1)

let current_epoch () = Domain.DLS.get epoch_key

(* Install an already-acquired snapshot timestamp and its epoch in this
   domain's DLS without taking a registry slot, run [f], restore.  For
   pool workers executing one chunk of a coordinator's batched parallel
   scan: the coordinator acquired [s] and holds its registry slot for
   the whole parallel section (it awaits every worker future before
   releasing), so the GC horizon cannot pass [s] while a worker runs
   under it. *)
let with_installed_snapshot s ~epoch f =
  let outer = Domain.DLS.get current_key
  and outer_epoch = Domain.DLS.get epoch_key in
  Domain.DLS.set current_key (Some s);
  Domain.DLS.set epoch_key epoch;
  Fun.protect
    ~finally:(fun () ->
      Domain.DLS.set current_key outer;
      Domain.DLS.set epoch_key outer_epoch)
    f

(* Run [f] under a freshly acquired snapshot (or plainly when MVCC is
   off).  [f] receives the snapshot timestamp (-1 when off).  The epoch
   is read before the slot is acquired: a write that publishes in
   between then makes live-index reads fall back, never the reverse. *)
let with_snapshot f =
  if not (enabled ()) then f (-1)
  else begin
    let epoch = Atomic.get write_epoch in
    let slot, s = acquire_slot () in
    Domain.DLS.get versions_walked_key := 0;
    Fun.protect
      ~finally:(fun () -> release_slot slot)
      (fun () -> with_installed_snapshot s ~epoch (fun () -> f s))
  end

(* Run [traverse] over live index structures if they hold exactly the
   state at this domain's snapshot, keeping writers out until it
   returns; [None] when a write finished since the snapshot's epoch or is
   in progress.  [traverse] must only collect: it runs while every writer
   waits, so it may neither write nor run a caller's callback. *)
let exclusive_read traverse =
  Atomic.incr readers;
  if Atomic.get writers = 0 && Atomic.get write_epoch = current_epoch ()
  then begin
    let r = Fun.protect ~finally:(fun () -> Atomic.decr readers) traverse in
    Atomic.incr fast_reads;
    Some r
  end
  else begin
    Atomic.decr readers;
    Atomic.incr fallback_reads;
    None
  end

(* --- write-side hooks --------------------------------------------------- *)

(* A relation's membership view: every tuple a snapshot scan may need to
   consider, including tuples already physically deleted whose versions
   old snapshots can still see.  [size] is the (approximate) entry count
   including such dead entries — the sweep trigger compares it against
   the relation's live count. *)
type view = {
  tuples : Value.tuple list Atomic.t;
  size : int Atomic.t;
}

let make_view () = { tuples = Atomic.make []; size = Atomic.make 0 }

let view_size view = Atomic.get view.size

(* Pending intents of the current deferred write scope, newest first.
   [P_insert]/[P_update] record pushed (still unstamped) versions;
   [P_delete] records the head version whose [v_end] publish will stamp. *)
type pending_op =
  | P_insert of { view : view; t : Value.tuple; pushed : Value.version }
  | P_update of {
      t : Value.tuple;
      pushed : Value.version;
      superseded : Value.version;
    }
  | P_delete of { view : view; t : Value.tuple; head : Value.version }

type scope = { mutable ops : pending_op list }

let scope_key : scope option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

(* While set, hooks maintain view membership only — used when [Txn]
   physically unwinds a failed commit whose version intents were already
   rolled back. *)
let suppress_key : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let view_add view (t : Value.tuple) =
  let rec go () =
    let cur = Atomic.get view.tuples in
    if not (Atomic.compare_and_set view.tuples cur (t :: cur)) then go ()
  in
  go ();
  Atomic.incr view.size

let view_remove view (t : Value.tuple) =
  let rec go () =
    let cur = Atomic.get view.tuples in
    let next = List.filter (fun (u : Value.tuple) -> u != t) cur in
    if not (Atomic.compare_and_set view.tuples cur next) then go ()
    else if List.length next < List.length cur then Atomic.decr view.size
  in
  go ()

let push_version (t : Value.tuple) v =
  t.Value.vers.Value.vs <- v :: t.Value.vers.Value.vs;
  Atomic.incr versions_created

(* Synthesize a committed base version for a tuple about to receive its
   first versioned mutation: pre-change fields, visible since the dawn of
   time — exactly what the empty-chain rule already granted it. *)
let ensure_base (t : Value.tuple) ~pre_fields =
  if t.Value.vers.Value.vs = [] then
    push_version t
      { Value.v_fields = pre_fields; v_begin = 0; v_end = unstamped }

let fresh_version fields ~v_begin =
  { Value.v_fields = fields; v_begin; v_end = unstamped }

(* A tombstone marks a lazily deleted tuple awaiting GC sweep: invisible
   to every snapshot, and non-empty so the empty-chain rule cannot
   resurrect it. *)
let tombstone () = { Value.v_fields = [||]; v_begin = unstamped; v_end = 0 }

let live_fields (t : Value.tuple) = Array.copy t.Value.fields

(* Immediate mode stamps at a timestamp of its own per operation
   ({!stamp_with}) so that an already registered snapshot orders strictly
   before the change. *)

let in_scope () = Domain.DLS.get scope_key <> None

(* Whether version records must be materialized right now: always inside
   a deferred scope (a concurrent snapshot may start at any moment);
   outside one, only when a snapshot is actually live or the tuple is
   already versioned (lazy immediate mode). *)

let on_insert view (t : Value.tuple) =
  if enabled () then
    if Domain.DLS.get suppress_key then view_add view t
    else
      match Domain.DLS.get scope_key with
      | Some scope ->
          let pushed = fresh_version (live_fields t) ~v_begin:unstamped in
          push_version t pushed;
          view_add view t;
          scope.ops <- P_insert { view; t; pushed } :: scope.ops
      | None ->
          (* Lazy: an empty chain is visible to later snapshots exactly
             like a version stamped at commit would be; snapshots that
             are already live cannot race single-threaded immediate
             writers (unsupported without a scope). *)
          if live_snapshots () > 0 then
            stamp_with (fun ts ->
                push_version t (fresh_version (live_fields t) ~v_begin:ts));
          view_add view t

(* Called after the live fields changed; {!prepare_update} ran before. *)
let on_update (t : Value.tuple) =
  if enabled () && not (Domain.DLS.get suppress_key) then
    match Domain.DLS.get scope_key with
    | Some scope -> (
        match t.Value.vers.Value.vs with
        | superseded :: _ ->
            let pushed = fresh_version (live_fields t) ~v_begin:unstamped in
            push_version t pushed;
            scope.ops <- P_update { t; pushed; superseded } :: scope.ops
        | [] ->
            (* unreachable after {!prepare_update}; fall back to a bare
               current version *)
            let pushed = fresh_version (live_fields t) ~v_begin:unstamped in
            push_version t pushed;
            scope.ops <-
              P_update { t; pushed; superseded = pushed } :: scope.ops)
    | None ->
        if live_snapshots () > 0 then
          stamp_with (fun ts ->
              (match t.Value.vers.Value.vs with
              | head :: _ -> head.Value.v_end <- ts
              | [] -> ());
              push_version t (fresh_version (live_fields t) ~v_begin:ts))
        else if t.Value.vers.Value.vs <> [] then
          (* no live snapshot can need history: collapse to one version *)
          stamp_with (fun ts ->
              t.Value.vers.Value.vs <-
                [ fresh_version (live_fields t) ~v_begin:ts ])

let on_delete view (t : Value.tuple) =
  if enabled () then
    if Domain.DLS.get suppress_key then view_remove view t
    else
      match Domain.DLS.get scope_key with
      | Some scope ->
          ensure_base t ~pre_fields:(live_fields t);
          (match t.Value.vers.Value.vs with
          | head :: _ -> scope.ops <- P_delete { view; t; head } :: scope.ops
          | [] -> assert false (* ensure_base just pushed *))
      | None ->
          if live_snapshots () > 0 then begin
            ensure_base t ~pre_fields:(live_fields t);
            stamp_with (fun ts ->
                match t.Value.vers.Value.vs with
                | head :: _ -> head.Value.v_end <- ts
                | [] -> ())
          end
          else
            (* lazy: tombstone now (O(1)), swept from the view by GC *)
            t.Value.vers.Value.vs <- [ tombstone () ]

(* Called before an update changes the live fields: a tuple's first
   versioned mutation gets its base version — the unchanged fields —
   now, since a snapshot reads an empty chain through the live fields,
   which are about to hold uncommitted values.  The lock-only path (and
   lazy immediate mode) never pays the copy. *)
let prepare_update (t : Value.tuple) =
  if
    enabled ()
    && (not (Domain.DLS.get suppress_key))
    && t.Value.vers.Value.vs = []
    && (in_scope () || live_snapshots () > 0)
  then ensure_base t ~pre_fields:(live_fields t)

(* --- deferred publication ---------------------------------------------- *)

(* Stamp every pending intent with one reserved timestamp, then bump the
   clock.  The bump is an SC atomic store: a snapshot acquired at
   [s >= ts] reads the clock after the bump, hence after the stamps. *)
let publish scope =
  match scope.ops with
  | [] -> ()
  | ops ->
      stamp_with @@ fun ts ->
      List.iter
        (fun op ->
          match op with
          | P_insert { pushed; _ } -> pushed.Value.v_begin <- ts
          | P_update { pushed; superseded; _ } ->
              (* a superseded version pushed earlier in this same scope
                 ends up with [v_begin = v_end = ts]: an empty interval,
                 so intermediate states of one statement never show *)
              pushed.Value.v_begin <- ts;
              superseded.Value.v_end <- ts
          | P_delete { head; _ } -> head.Value.v_end <- ts)
        ops;
      scope.ops <- []

(* Erase every pending intent (a failed commit): pushed versions pop,
   the view forgets uncommitted inserts, and a deleted tuple's history
   is abandoned — the physical unwind that follows (under {!suppressed})
   re-inserts the row as a fresh, empty-chain (visible-to-all) record. *)
let rollback scope =
  List.iter
    (fun op ->
      match op with
      | P_insert { view; t; pushed } ->
          view_remove view t;
          (match t.Value.vers.Value.vs with
          | head :: rest when head == pushed -> t.Value.vers.Value.vs <- rest
          | _ -> ())
      | P_update { t; pushed; superseded = _ } -> (
          (* [superseded.v_end] was never stamped (publish did not run),
             so there is nothing to restore on it *)
          pushed.Value.v_end <- 0 (* dead, in case it is not the head *);
          match t.Value.vers.Value.vs with
          | head :: rest when head == pushed -> t.Value.vers.Value.vs <- rest
          | _ -> ())
      | P_delete { view; t; head } ->
          head.Value.v_end <- unstamped;
          view_remove view t;
          t.Value.vers.Value.vs <- [])
    scope.ops;
  scope.ops <- []

(* Run [f] as one deferred write scope: its mutations stamp atomically
   at scope exit.  The scope holds the write mark from its start until
   after {!publish}: between two operations of one scope the index
   already lacks what a live snapshot still sees.  With MVCC off the
   hooks record nothing, so only the mark remains. *)
let with_write f =
  if in_scope () then f ()
  else
    marked (fun () ->
        let scope = { ops = [] } in
        Domain.DLS.set scope_key (Some scope);
        Fun.protect
          ~finally:(fun () ->
            Domain.DLS.set scope_key None;
            publish scope)
          f)

(* Hold the write mark around one index-mutating operation, unless the
   enclosing write scope already holds it. *)
let writing f = if in_scope () then f () else marked f

(* Roll back the current scope's intents (called by [Txn] before it
   physically unwinds a failed commit). *)
let rollback_pending () =
  match Domain.DLS.get scope_key with
  | Some scope -> rollback scope
  | None -> ()

(* Run [f] with version hooks reduced to view maintenance. *)
let suppressed f =
  let was = Domain.DLS.get suppress_key in
  Domain.DLS.set suppress_key true;
  Fun.protect
    ~finally:(fun () -> Domain.DLS.set suppress_key was)
    f

(* --- read-side resolution ---------------------------------------------- *)

(* The newest version begun at or before [s], walking the (newest-first)
   chain.  Chains are short — GC prunes below the horizon — so the walk
   is a few pointer chases. *)
let version_at (t : Value.tuple) s =
  let walked = Domain.DLS.get versions_walked_key in
  let rec go = function
    | [] -> None
    | v :: rest ->
        incr walked;
        if v.Value.v_begin <= s then Some v else go rest
  in
  go t.Value.vers.Value.vs

(* Field array to read under the active snapshot, or [None] to read the
   live fields (no snapshot, or the tuple is unversioned).  Exposed for
   {!Tuple.get}; the per-version visibility filter for scans is
   {!visible_at}. *)
let snapshot_fields (t : Value.tuple) =
  match Domain.DLS.get current_key with
  | None -> None
  | Some s -> (
      match t.Value.vers.Value.vs with
      | [] -> None
      | _ -> (
          match version_at t s with
          | Some v -> Some v.Value.v_fields
          | None -> None (* inserted after [s]: fall back to live *)))

(* Like {!snapshot_fields} but with the snapshot supplied by the caller:
   scan loops capture the domain-local snapshot once and resolve every
   tuple against it, instead of paying a DLS read per field access. *)
let fields_at s (t : Value.tuple) =
  match t.Value.vers.Value.vs with
  | [] -> t.Value.fields
  | _ -> (
      match version_at t s with
      | Some v -> v.Value.v_fields
      | None -> t.Value.fields)

let visible_at s (t : Value.tuple) =
  match t.Value.vers.Value.vs with
  | [] -> true (* predates versioning *)
  | _ -> (
      match version_at t s with
      | Some v -> v.Value.v_end > s
      | None -> false (* inserted after the snapshot *))

(* Whether [t] (resolved) is visible at [s] with fields that satisfy
   [keep]: a view scan's filter, in one walk of the chain. *)
let visible_where s keep (t : Value.tuple) =
  match t.Value.vers.Value.vs with
  | [] -> keep t.Value.fields
  | _ -> (
      match version_at t s with
      | Some v -> v.Value.v_end > s && keep v.Value.v_fields
      | None -> false)

(* --- garbage collection ------------------------------------------------- *)

(* Prune one relation view down to [horizon]: versions dead at the
   horizon ([v_end <= h]) are unreachable by every live and future
   snapshot; a tuple whose newest version is dead is dropped from the
   view outright.  Must run serialized with the writer (the server runs
   it on the dispatcher domain); concurrent readers are safe because
   pruning only republishes fresh list spines — never mutates a version
   a reader can hold.  Returns the number of version records reclaimed. *)
let gc_view view ~horizon:h =
  let reclaimed = ref 0 and swept = ref 0 and longest = ref 0 in
  (* [keep_tuple] must be safe to re-run if the CAS below retries: it
     never destroys the information its own decision depends on.  A
     swept tuple keeps its (dead) chain — dangling [Ref]s may still
     resolve old fields through it, and the OCaml GC reclaims it with
     the tuple once unreachable. *)
  let keep_tuple (t : Value.tuple) =
    match t.Value.vers.Value.vs with
    | [] -> true
    | head :: _ when head.Value.v_end <= h ->
        (* dead at the horizon: no live or future snapshot sees it *)
        reclaimed := !reclaimed + List.length t.Value.vers.Value.vs;
        incr swept;
        false
    | vs ->
        let rec prune = function
          | [] -> []
          | v :: rest ->
              if v.Value.v_end <= h then begin
                (* invisible at the horizon — and every older version
                   ends at or before this one's beginning *)
                reclaimed := !reclaimed + 1 + List.length rest;
                []
              end
              else v :: prune rest
        in
        let pruned = prune vs in
        longest := max !longest (List.length pruned);
        if List.length pruned <> List.length vs then
          t.Value.vers.Value.vs <- pruned;
        true
  in
  let rec swap () =
    reclaimed := 0;
    swept := 0;
    longest := 0;
    let cur = Atomic.get view.tuples in
    let next = List.filter keep_tuple cur in
    if not (Atomic.compare_and_set view.tuples cur next) then swap ()
    else Atomic.set view.size (List.length next)
  in
  swap ();
  Atomic.incr gc_runs;
  if !swept > 0 then ignore (Atomic.fetch_and_add tuples_swept !swept);
  (let rec raise_max () =
     let cur = Atomic.get max_chain in
     if !longest > cur && not (Atomic.compare_and_set max_chain cur !longest)
     then raise_max ()
   in
   raise_max ());
  (let n = !reclaimed in
   if n > 0 then ignore (Atomic.fetch_and_add versions_reclaimed n);
   n)

(* --- stats -------------------------------------------------------------- *)

type stats = {
  st_enabled : bool;
  st_commit_ts : int;
  st_snapshots_taken : int;
  st_live_snapshots : int;
  st_oldest_snapshot_age : int;  (** in commits; 0 when none live *)
  st_gc_runs : int;
  st_versions_created : int;
  st_versions_reclaimed : int;
  st_tuples_swept : int;
  st_max_chain : int;
  st_fast_reads : int;
  st_fallback_reads : int;
}

let stats () =
  let ts = now () in
  {
    st_enabled = enabled ();
    st_commit_ts = ts;
    st_snapshots_taken = Atomic.get snapshots_taken;
    st_live_snapshots = live_snapshots ();
    st_oldest_snapshot_age =
      (match oldest_snapshot () with None -> 0 | Some o -> ts - o);
    st_gc_runs = Atomic.get gc_runs;
    st_versions_created = Atomic.get versions_created;
    st_versions_reclaimed = Atomic.get versions_reclaimed;
    st_tuples_swept = Atomic.get tuples_swept;
    st_max_chain = Atomic.get max_chain;
    st_fast_reads = Atomic.get fast_reads;
    st_fallback_reads = Atomic.get fallback_reads;
  }
