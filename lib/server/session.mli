(** Per-connection session state.

    Owned by the connection's handler thread; [last_activity], [busy]
    and [kick] are also read by the idle reaper, which only ever
    escalates to [Unix.shutdown] on the socket — the handler thread
    remains the one that tears the session down.

    ['a] is the executor's reply type: the handler parks its in-flight
    promise in [pending] so CANCEL and a simulated crash can see it. *)

open Mmdb_lang

type kick =
  | Not_kicked
  | Idle_kick  (** the reaper shut the socket down *)
  | Shutdown_kick  (** server shutdown shut the socket down *)
  | Crash_kick  (** simulated kill-9: cut abruptly, no farewell frames *)

type 'a t = {
  sid : int;
  fd : Unix.file_descr;
  wake_r : Unix.file_descr;  (** executor-completion pipe, read end *)
  wake_w : Unix.file_descr;
  mutable last_activity : float;
  mutable interp : Interp.session option;  (** created on the executor *)
  prepared : (int, Ast.stmt * int * string) Hashtbl.t;
      (** id -> stmt, n_params, source SQL (kept for workload capture) *)
  mutable next_prepared : int;
  mutable pending : 'a Exec_queue.promise option;
  mutable busy : bool;
      (* a request is being handled, executor job or not (with one
         domain an MVCC read runs inline, before [pending] is set): the
         idle reaper spares the session *)
  mutable orphans : 'a Exec_queue.promise list;
      (** timed-out jobs that may still be running; teardown waits these
          out before {!close_fds} (MVCC Read jobs bypass the executor
          FIFO, so the cleanup Write is not a barrier for them) *)
  mutable kick : kick;
  mutable last_kind : string;
      (** statement kind of the request being handled; read by the
          handler right after dispatch to bucket the request latency *)
  mutable last_snap : int;
      (** MVCC snapshot timestamp of the latest Read statement, -1 when
          none; surfaced in the slow-query log *)
}

val create : sid:int -> fd:Unix.file_descr -> 'a t
val touch : 'a t -> unit
val idle_for : 'a t -> now:float -> float

val register_prepared : 'a t -> Ast.stmt -> n_params:int -> sql:string -> int * int
(** Returns [(id, n_params)] for the freshly registered statement;
    [sql] is the source text, retained for workload capture. *)

val find_prepared : 'a t -> int -> (Ast.stmt * int * string) option

val close_fds : 'a t -> unit
(** Close the socket and the wake pipe.  Only call after the session's
    last executor job has resolved — an abandoned job completing later
    would otherwise poke a recycled descriptor. *)
