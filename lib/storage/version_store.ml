(** MVCC versioning: the global commit clock, per-tuple version chains,
    statement snapshots, the storage-side write/read hooks, and the GC.

    The paper's §2.4 partition locks make every reader block behind any
    writer.  This module gives read-only statements a consistent
    {e snapshot} instead: each committed mutation stamps immutable
    version records ({!Value.version}) onto the affected tuples' chains,
    and a reader at snapshot [s] resolves every field access against the
    version visible at [s], never taking a lock.

    Visibility: version [v] is visible at [s] iff
    [v.v_begin <= s < v.v_end]; [max_int] means "not yet committed" in
    [v_begin] and "still current" in [v_end].  A tuple with an {e empty}
    chain (never versioned, written with MVCC off, or collapsed by the
    GC) is visible to every snapshot through its live fields.

    Writes record into a deferred {e write scope} ({!with_write}, which
    [Txn.commit] opens; a lone [Relation] operation opens its own when a
    snapshot is live or the tuple is versioned, and otherwise records
    nothing).  Pushed versions carry [v_begin = max_int]; at scope end
    {!publish} stamps them all with one reserved timestamp and only then
    moves the commit clock to it ({!stamp_with}), so a snapshot at
    [s >= ts] sees every stamp and one at [s < ts] none.

    The registry vs. the GC: {!acquire_slot} publishes its slot and then
    re-validates that the clock did not move; the GC reads the clock
    {e before} scanning slots, so its horizon is at most every live
    snapshot.

    Snapshot reads vs. writers and the GC: the state at [s] is the live
    index corrected by the relation's {e versioned tuples} ({!versioned}).
    While no write mark is held, a tuple reachable from an index is in
    its relation's list exactly when its chain is non-empty, and a
    deleted tuple a live snapshot may see is listed too.  Every index
    mutation, list change and change of a chain's emptiness holds a mark
    in {!writers} for one operation ({!writing}); the GC holds one for a
    pass.  Between two operations of a scope every tuple it touched is
    listed with versions no earlier snapshot sees, so the index plus the
    lists still read as the state before the scope.  A marker waits
    until no traversal counted in {!readers} is in flight;
    {!exclusive_read} counts itself a reader and only then checks for a
    mark, waiting it out if one is held.  All are SC atomics, so the
    index pass and the list capture of one read see one state.  After
    the drain a reader resolves chains that writers may be changing: it
    loads a tuple's chain once per resolution, and the live field array
    before the chain, while a writer pushes a base version before it
    replaces (never mutates) the live array. *)

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

(* Recovery replays a crashed instance's log outside any write scope
   and then raises the clock to the log's highest LSN so that
   post-recovery snapshots order after everything replayed.  Monotonic-only: the clock
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

(* Snapshot read entries, and those of them that first waited out a held
   write mark. *)
let snapshot_reads = Atomic.make 0
let waited_reads = Atomic.make 0

(* Versioned tuples over every relation's list, and the horizon the
   latest GC pass pruned to. *)
let versioned_tuples = Atomic.make 0
let last_horizon = Atomic.make 0

(* Listed tuples the GC passes have visited, in total. *)
let gc_visited = Atomic.make 0

(* --- write marks and reader drain ---------------------------------------- *)

(* See the snapshot-read safety argument in the header.  [waiting]
   counts the readers that found a mark held and wait it out. *)
let writers : int Atomic.t = Atomic.make 0
let readers : int Atomic.t = Atomic.make 0
let waiting : int Atomic.t = Atomic.make 0

(* Hold the write mark around [f] — one index-mutating operation, a GC
   pass, or a failed commit's unwind: no snapshot read's traversal
   overlaps it.  The in-flight traversals it waits out only collect
   tuples and never wait on a writer.  The last mark out waits until
   the readers it held up are in, so a bulk write's back-to-back
   operations cannot starve them; a reader then waits out at most one
   operation. *)
let writing f =
  Atomic.incr writers;
  await (fun () -> Atomic.get readers = 0);
  Fun.protect
    ~finally:(fun () ->
      if Atomic.fetch_and_add writers (-1) = 1 then
        await (fun () -> Atomic.get waiting = 0 || Atomic.get writers > 0))
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

(* Install snapshot [s] in this domain's DLS without taking a registry
   slot, run [f], restore.  For pool workers executing one chunk of a
   coordinator's parallel snapshot scan: the coordinator acquired [s]
   and holds its registry slot for the whole parallel section (it awaits
   every worker future before releasing), so the GC horizon cannot pass
   [s] while a worker runs under it. *)
let with_installed_snapshot s f =
  let outer = Domain.DLS.get current_key in
  Domain.DLS.set current_key (Some s);
  Fun.protect ~finally:(fun () -> Domain.DLS.set current_key outer) f

(* Run [f] under a freshly acquired snapshot (or plainly when MVCC is
   off).  [f] receives the snapshot timestamp (-1 when off). *)
let with_snapshot f =
  if not (enabled ()) then f (-1)
  else begin
    let slot, s = acquire_slot () in
    Domain.DLS.get versions_walked_key := 0;
    Fun.protect
      ~finally:(fun () -> release_slot slot)
      (fun () -> with_installed_snapshot s (fun () -> f s))
  end

(* --- versioned tuples and the write-side hooks ----------------------------- *)

(* A relation's versioned tuples: those with a non-empty chain, including
   deleted tuples that a live snapshot may still see.  Only changed
   under a write mark, and only read by a snapshot read under the drain
   ({!exclusive_read}), so plain fields suffice. *)
type versioned = {
  mutable tuples : Value.tuple list;
  mutable size : int;
  mutable after_gc : int;  (** [size] after the latest GC pass *)
}

let make_versioned () = { tuples = []; size = 0; after_gc = 0 }

(* Pending intents of the current deferred write scope, newest first.
   [P_insert]/[P_update] record pushed (still unstamped) versions;
   [P_delete] records the head version whose [v_end] publish will stamp. *)
type pending_op =
  | P_insert of { vl : versioned; pushed : Value.version }
  | P_update of {
      vl : versioned;
      t : Value.tuple;
      pushed : Value.version;
      superseded : Value.version;
    }
  | P_delete of { vl : versioned; head : Value.version }

type scope = { mutable ops : pending_op list }

let scope_key : scope option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let in_scope () = Domain.DLS.get scope_key <> None

(* While set, hooks record nothing — used when [Txn] physically unwinds
   a failed commit whose version intents were already rolled back. *)
let suppress_key : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

(* Every writer of a list or of a chain's emptiness holds the mark. *)
let set_tuples vl tuples size =
  ignore (Atomic.fetch_and_add versioned_tuples (size - vl.size));
  vl.tuples <- tuples;
  vl.size <- size

let push_version vl (t : Value.tuple) v =
  if t.Value.vers.Value.vs = [] then set_tuples vl (t :: vl.tuples) (vl.size + 1);
  t.Value.vers.Value.vs <- v :: t.Value.vers.Value.vs;
  Atomic.incr versions_created

(* Synthesize a committed base version for a tuple about to receive its
   first versioned mutation: pre-change fields, visible since the dawn of
   time — exactly what the empty-chain rule already granted it. *)
let ensure_base vl (t : Value.tuple) =
  if t.Value.vers.Value.vs = [] then
    push_version vl t
      { Value.v_fields = Array.copy t.Value.fields; v_begin = 0; v_end = unstamped }

(* The live fields as a version no snapshot sees until publish. *)
let pending (t : Value.tuple) =
  { Value.v_fields = Array.copy t.Value.fields; v_begin = unstamped; v_end = unstamped }

(* The write scope a hook records into: none with MVCC off, during a
   failed commit's unwind, or outside a scope — lazy mode, where an
   unversioned tuple reads the same through the live index at every
   later snapshot ({!mutating} opens a scope whenever that would not
   hold). *)
let recording () =
  if enabled () && not (Domain.DLS.get suppress_key) then
    Domain.DLS.get scope_key
  else None

let on_insert vl (t : Value.tuple) =
  match recording () with
  | None -> ()
  | Some scope ->
      let pushed = pending t in
      push_version vl t pushed;
      scope.ops <- P_insert { vl; pushed } :: scope.ops

(* Called before an update changes the live fields: a tuple's first
   versioned mutation gets its base version — the unchanged fields —
   now, since a snapshot reads an empty chain through the live fields,
   which are about to hold uncommitted values.  The lock-only path (and
   lazy mode) never pays the copy. *)
let prepare_update vl (t : Value.tuple) =
  if recording () <> None then ensure_base vl t

(* Called after the live fields changed; {!prepare_update} ran before. *)
let on_update vl (t : Value.tuple) =
  match recording () with
  | None -> ()
  | Some scope ->
      let superseded = List.hd t.Value.vers.Value.vs in
      let pushed = pending t in
      push_version vl t pushed;
      scope.ops <- P_update { vl; t; pushed; superseded } :: scope.ops

(* Called after the tuple left every index. *)
let on_delete vl (t : Value.tuple) =
  match recording () with
  | None -> ()
  | Some scope ->
      ensure_base vl t;
      let head = List.hd t.Value.vers.Value.vs in
      scope.ops <- P_delete { vl; head } :: scope.ops

(* --- garbage collection ------------------------------------------------- *)

let rec resolve (t : Value.tuple) =
  match t.Value.forward with None -> t | Some f -> resolve f

(* Prune one relation's versioned tuples down to [horizon], in O(d) for d
   listed tuples.  Versions dead at the horizon ([v_end <= h]) are
   unreachable by every live and future snapshot; a tuple whose newest
   version is dead is swept from the list.  A chain whose only version
   began at or below the horizon, is still current and holds the live
   fields collapses to empty and leaves the list: every live and future
   snapshot sees exactly the live tuple.  The caller holds the write
   mark, so no snapshot read captures the list between its index pass
   and its list pass; readers resolving chains outside the drain stay
   safe because pruning only republishes fresh list spines and
   collapsing only drops a version equal to the live state.  Must run
   serialized with the writer.  Returns the number of version records
   reclaimed. *)
let prune vl ~horizon:h =
  ignore (Atomic.fetch_and_add gc_visited vl.size);
  let reclaimed = ref 0 and swept = ref 0 and longest = ref 0 and kept = ref 0 in
  (* A swept tuple keeps its (dead) chain — dangling [Ref]s may still
     resolve old fields through it, and the OCaml GC reclaims it with
     the tuple once unreachable. *)
  let keep (t : Value.tuple) =
    match t.Value.vers.Value.vs with
    | [] -> false
    | head :: _ as vs when head.Value.v_end <= h ->
        (* dead at the horizon: no live or future snapshot sees it *)
        reclaimed := !reclaimed + List.length vs;
        incr swept;
        false
    | vs -> (
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
        match prune vs with
        | [ v ]
          when v.Value.v_begin <= h && v.Value.v_end = unstamped
               && Array.for_all2 ( == ) v.Value.v_fields (resolve t).Value.fields
          ->
            incr reclaimed;
            t.Value.vers.Value.vs <- [];
            false
        | pruned ->
            let n = List.length pruned in
            longest := max !longest n;
            if n <> List.length vs then t.Value.vers.Value.vs <- pruned;
            incr kept;
            true)
  in
  let tuples = List.filter keep vl.tuples in
  set_tuples vl tuples !kept;
  vl.after_gc <- !kept;
  Atomic.set last_horizon h;
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

(* The epoch GC's pass over one relation ([Mvcc.gc]; the server runs it
   on the dispatcher domain, serialized with the writer). *)
let gc_versioned vl ~horizon = writing (fun () -> prune vl ~horizon)

(* A write scope prunes each list it grew to more than twice its size
   after the previous pass (plus a floor) once it published: d stays
   bounded where no epoch GC runs (embedded use), and each pass is paid
   for by the insertions since the last, so writes stay O(1)
   amortized. *)
let prune_grown ops =
  let grown vl = vl.size > (2 * vl.after_gc) + 64 in
  List.iter
    (fun op ->
      match op with
      | P_insert { vl; _ } | P_update { vl; _ } | P_delete { vl; _ } ->
          if grown vl then ignore (gc_versioned vl ~horizon:(horizon ())))
    ops

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

(* Erase every pending intent (a failed commit).  A reader past its
   drain may still resolve the chains, so none may turn visible, and
   none may lose history: an insert's version stays on its chain, dead,
   until the GC sweeps the unwound tuple; an update's pushed version
   dies and pops, leaving what it superseded (whose [v_end] publish never
   stamped); a delete's head was never stamped either, and the physical
   unwind puts the same record back ([Relation.undelete]). *)
let rollback scope =
  List.iter
    (fun op ->
      match op with
      | P_insert { pushed; _ } -> pushed.Value.v_end <- 0
      | P_update { t; pushed; _ } -> (
          pushed.Value.v_end <- 0;
          match t.Value.vers.Value.vs with
          | head :: rest when head == pushed -> t.Value.vers.Value.vs <- rest
          | _ -> ())
      | P_delete _ -> ())
    scope.ops;
  scope.ops <- []

(* Run [f] as one deferred write scope: its mutations stamp atomically
   at scope exit.  The scope holds no mark of its own: each of its
   operations holds one ({!writing}), and between two of them every
   tuple the scope touched is versioned and listed, with versions that
   no snapshot taken before the publish can see — so the live index and
   the lists still read as the state before the scope.  With MVCC off
   the hooks record nothing. *)
let with_write f =
  if in_scope () then f ()
  else begin
    let scope = { ops = [] } in
    Domain.DLS.set scope_key (Some scope);
    Fun.protect
      ~finally:(fun () ->
        Domain.DLS.set scope_key None;
        let ops = scope.ops in
        publish scope;
        prune_grown ops)
      f
  end

(* One index-mutating operation of [Relation], under the write mark.
   Outside a write scope it runs in a scope of its own when the change
   can matter to a snapshot — one is live, or the tuple is [versioned]
   already — and lazily (recording nothing) otherwise.  A snapshot
   acquired while a lazy operation runs is not supported: writes that
   race snapshots belong in a scope. *)
let mutating ~versioned f =
  if enabled () && (not (in_scope ())) && (versioned || live_snapshots () > 0)
  then with_write (fun () -> writing f)
  else writing f

(* A failed commit: under one mark, roll back the current scope's
   intents and run [unwind], the physical undo, with the hooks off.  No
   snapshot read may see the rolled-back chains before the undo, nor
   the reverse. *)
let rollback_pending unwind =
  writing (fun () ->
      Option.iter rollback (Domain.DLS.get scope_key);
      let was = Domain.DLS.get suppress_key in
      Domain.DLS.set suppress_key true;
      Fun.protect
        ~finally:(fun () -> Domain.DLS.set suppress_key was)
        unwind)

(* --- snapshot reads -------------------------------------------------------- *)

(* Run [traverse] over the live index structures of a relation with
   list [vl] while no write mark is held, keeping marks out until it
   returns, and hand back its result with the list as it stood.  A held
   mark is waited out: one write operation holds it for microseconds.
   [traverse] runs with no snapshot installed, so index comparisons read
   the live fields the index is ordered by.  It must only collect: it
   runs while every writer waits, so it may neither write nor run a
   caller's callback. *)
let exclusive_read vl traverse =
  Atomic.incr snapshot_reads;
  Atomic.incr readers;
  if Atomic.get writers > 0 then begin
    (* Counted in [waiting] until counted in [readers] again with no
       mark held, so that the releasing writer lets it in first. *)
    Atomic.incr waited_reads;
    Atomic.incr waiting;
    let rec retry () =
      Atomic.decr readers;
      await (fun () -> Atomic.get writers = 0);
      Atomic.incr readers;
      if Atomic.get writers > 0 then retry ()
    in
    retry ();
    Atomic.decr waiting
  end;
  let outer = Domain.DLS.get current_key in
  Domain.DLS.set current_key None;
  let leave () =
    Domain.DLS.set current_key outer;
    Atomic.decr readers
  in
  match traverse () with
  | r ->
      let tuples = vl.tuples in
      leave ();
      (r, tuples)
  | exception e ->
      leave ();
      raise e

(* --- read-side resolution ---------------------------------------------- *)

(* Walks of the newest-first chain [vs] for the newest version begun at
   or before [s], counting each version passed in [walked].  Chains are
   short — GC prunes below the horizon — so a walk is a few pointer
   chases.  Callers load the chain once and pass it: a second load may
   find it collapsed or pruned.  Top-level and option-free, so a walk
   allocates nothing. *)
let rec fields_in walked s live = function
  | [] -> live (* inserted after [s] *)
  | v :: rest ->
      incr walked;
      if v.Value.v_begin <= s then v.Value.v_fields else fields_in walked s live rest

let rec visible_in walked s keep = function
  | [] -> false (* inserted after [s] *)
  | v :: rest ->
      incr walked;
      if v.Value.v_begin <= s then v.Value.v_end > s && keep v.Value.v_fields
      else visible_in walked s keep rest

(* The field array [t] (resolved) has at snapshot [s].  The live array
   is loaded before the chain: a writer pushes a tuple's base version
   before it replaces the live array (copy-on-write, [Tuple.update]), so
   a chain found empty after the load means the loaded array is what
   every live snapshot sees.  Scan loops capture the domain-local
   snapshot once and call this per tuple. *)
let fields_at s (t : Value.tuple) =
  let live = t.Value.fields in
  match t.Value.vers.Value.vs with
  | [] -> live
  | vs -> fields_in (Domain.DLS.get versions_walked_key) s live vs

(* The field array to read under the active snapshot, if any: what
   [Tuple.get] indexes. *)
let current_fields (t : Value.tuple) =
  match Domain.DLS.get current_key with
  | None -> t.Value.fields
  | Some s -> fields_at s t

(* The tuples of [tuples] visible at [s] whose fields there satisfy
   [keep]: a snapshot read's pass over its relation's versioned tuples. *)
let visible_of s keep tuples =
  let walked = Domain.DLS.get versions_walked_key in
  List.filter
    (fun t ->
      let t = resolve t in
      let live = t.Value.fields in
      match t.Value.vers.Value.vs with
      | [] -> keep live
      | vs -> visible_in walked s keep vs)
    tuples

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
  st_versioned_tuples : int;  (** over every relation's list *)
  st_horizon_lag : int;  (** commits since the latest GC pass's horizon *)
  st_gc_visited : int;
  st_snapshot_reads : int;
  st_waited_reads : int;
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
    st_versioned_tuples = Atomic.get versioned_tuples;
    st_horizon_lag = max 0 (ts - Atomic.get last_horizon);
    st_gc_visited = Atomic.get gc_visited;
    st_snapshot_reads = Atomic.get snapshot_reads;
    st_waited_reads = Atomic.get waited_reads;
  }
