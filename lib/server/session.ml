(* Per-connection session state.

   Owned by the connection's handler thread; [last_activity], [busy]
   and [kick] are also read (racily but harmlessly) by the idle reaper,
   which only ever escalates to [Unix.shutdown] on the socket — the
   handler thread remains the one that tears the session down.

   ['a] is the executor's reply type (the handler parks its in-flight
   promise in [pending] so CANCEL and a simulated crash can see it). *)

open Mmdb_lang

type kick =
  | Not_kicked
  | Idle_kick
  | Shutdown_kick
  | Crash_kick  (** simulated kill-9: cut abruptly, no farewell frames *)

type 'a t = {
  sid : int;
  fd : Unix.file_descr;
  wake_r : Unix.file_descr;  (* executor-completion pipe, read end *)
  wake_w : Unix.file_descr;
  mutable last_activity : float;
  mutable interp : Interp.session option;  (* created on the executor *)
  prepared : (int, Ast.stmt * int * string) Hashtbl.t;
      (* id -> stmt, n_params, source SQL (kept for workload capture) *)
  mutable next_prepared : int;
  mutable pending : 'a Exec_queue.promise option;
  mutable busy : bool;
      (* a request is being handled, executor job or not (with one
         domain an MVCC read runs inline, before [pending] is set): the
         idle reaper spares the session *)
  mutable orphans : 'a Exec_queue.promise list;
      (* timed-out (abandoned) jobs that may still be running.  MVCC
         Read jobs bypass the executor FIFO, so the cleanup Write is no
         longer a barrier for them: teardown must wait these out
         explicitly before closing the wake pipe they would poke. *)
  mutable kick : kick;
  mutable last_kind : string;
      (* statement kind of the request being handled; read by the
         handler right after [handle_request] to bucket the latency *)
  mutable last_snap : int;
      (* MVCC snapshot timestamp of the latest Read statement, -1 when
         none; surfaced in the slow-query log *)
}

let create ~sid ~fd =
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  {
    sid;
    fd;
    wake_r;
    wake_w;
    last_activity = Unix.gettimeofday ();
    interp = None;
    prepared = Hashtbl.create 8;
    next_prepared = 1;
    pending = None;
    busy = false;
    orphans = [];
    kick = Not_kicked;
    last_kind = "other";
    last_snap = -1;
  }

let touch t = t.last_activity <- Unix.gettimeofday ()
let idle_for t ~now = now -. t.last_activity

let register_prepared t stmt ~n_params ~sql =
  let id = t.next_prepared in
  t.next_prepared <- id + 1;
  Hashtbl.replace t.prepared id (stmt, n_params, sql);
  (id, n_params)

let find_prepared t id = Hashtbl.find_opt t.prepared id

(* Close every fd the session owns.  Only call after the session's last
   executor job has resolved: an abandoned job completing later would
   otherwise poke a recycled descriptor. *)
let close_fds t =
  List.iter
    (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
    [ t.fd; t.wake_r; t.wake_w ]
