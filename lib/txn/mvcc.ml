(** MVCC policy layer: the transaction-side face of
    {!Mmdb_storage.Version_store}.

    The storage module owns the mechanism — the commit clock, version
    chains, snapshot registry and per-relation GC.  This module packages it
    for the layers above: statement-scoped snapshots for anything
    [Ast.is_read_only], and an epoch GC pass over a whole set of
    relations.  Writes publish through the deferred write scope that
    {!Txn.commit} opens.

    Interaction with the §2.4 lock manager: MVCC changes nothing about
    writer/writer conflicts — writers still serialize through partition
    locks (and through the server's single-writer dispatcher).  What it
    removes is the reader/writer conflict: a read-only statement under a
    snapshot takes no locks at all, so the lock-only ablation
    ([MMDB_MVCC=0]) reproduces the paper's original blocking behavior
    while the default path does not. *)

open Mmdb_storage

let with_snapshot = Version_store.with_snapshot
(** Run a read-only statement under a freshly acquired snapshot.  The
    callback receives the snapshot timestamp (-1 when MVCC is off). *)

let versions_walked = Version_store.versions_walked

(* One epoch GC pass: compute the horizon once — the oldest timestamp
   any live (or future) snapshot can hold — and prune every relation's
   versioned tuples down to it, in O(d) for d versioned tuples.  Must
   run where writes are serialized (the server calls it from the
   dispatcher domain after write statements).  Returns the number of
   version records reclaimed. *)
let gc rels =
  if not (Version_store.enabled ()) then 0
  else begin
    let horizon = Version_store.horizon () in
    List.fold_left
      (fun n rel -> n + Relation.gc rel ~horizon)
      0 rels
  end
