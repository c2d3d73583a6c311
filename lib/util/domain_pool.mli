(** A fixed pool of worker domains for parallel query execution.

    Once data is memory-resident, query cost is CPU cost (the paper's
    central premise) — so the multi-core continuation of the paper's
    operator study is to split operator input into chunks and run the
    chunks on a fixed set of OCaml 5 domains.

    Concurrency contract:
    - a pool of size 1 spawns no domains and runs tasks inline at
      submission: the {e sequential fallback}, bit-identical to the
      single-core code paths (set [MMDB_DOMAINS=1] to force it);
    - nested parallelism degrades to sequential: submitting from inside
      a worker runs the task inline, so the server's reader fan-out can
      never deadlock against operator-level parallelism;
    - tasks must not share mutable state with concurrently running
      tasks (operators write into per-task locals and concatenate). *)

type t

type 'a future

val default_size : unit -> int
(** Pool parallelism from the [MMDB_DOMAINS] environment variable when
    set (clamped to [1, 64]), else [Domain.recommended_domain_count]
    (clamped to [1, 16]).  [MMDB_DOMAINS=1] forces the sequential
    fallback everywhere. *)

val create : ?on_start:(unit -> unit) -> ?size:int -> unit -> t
(** [create ?size ()] spawns [size] worker domains ([default_size]
    when omitted).  [size <= 1] spawns none.  Each worker runs
    [on_start] (default: nothing) before its first task. *)

val size : t -> int
(** Configured parallelism (1 = sequential fallback). *)

val in_worker : unit -> bool
(** True while executing on a pool worker domain (any pool). *)

val fan_out : t option -> n:int -> threshold:int -> t option
(** The operators' fan-out gate: [pool] when splitting [n] items across
    it pays — more than one worker, the caller not itself a worker, and
    [n >= threshold] — else [None] (run sequentially). *)

val submit : t -> (unit -> 'a) -> 'a future
(** Queue a task.  Runs inline (before returning) when the pool is
    sequential, stopped, or the caller is itself a pool worker. *)

val await : 'a future -> 'a
(** Block until the task finishes; re-raises the task's exception. *)

val chunks : n:int -> pieces:int -> (int * int) array
(** Split [\[0, n)] into at most [pieces] contiguous non-empty
    [(lo, hi)] ranges ([hi] exclusive) of near-equal length. *)

val parallel_map : t -> ('a -> 'b) -> 'a array -> 'b array
(** Chunked map: same elements, same order as [Array.map].  Falls back
    to [Array.map] when the pool is sequential, the input is tiny, or
    the caller is a pool worker.  All chunks complete before any chunk's
    exception is re-raised. *)

val parallel_iter : t -> ('a -> unit) -> 'a array -> unit

val stop : t -> unit
(** Drain queued tasks, then stop and join the workers. *)

val global : unit -> t
(** The process-wide shared pool, created at [default_size] on first use
    — once, even when several domains ask at the same time.  Used by the
    query operators unless an explicit pool is passed. *)
