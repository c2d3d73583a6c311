(* The single-writer/parallel-reader serialization point.

   INVARIANT: the storage layer (Db / Relation / Txn and everything under
   them) is NOT thread-safe for writes.  After [create], every touch of
   the shared database must happen inside a job submitted here.  [Write]
   jobs (the default) run one at a time, in submission order, on one
   dedicated dispatcher domain — exactly the old single-executor model.
   [Read] jobs (statements classified read-only by the server) fan out
   across a pool of reader domains; the dispatcher guarantees that

   - no Write runs while any Read is in flight, and
   - no Read starts before an earlier-queued Write has finished

   (jobs leave the FIFO in submission order, and a Write waits for the
   reader count to drain before running), so writes still observe and
   produce a serial history while read-only queries of different sessions
   overlap each other.  FIFO dispatch also means a stream of reads can
   never starve a queued write.

   Timeouts never interrupt a running job (OCaml offers no safe
   preemption of a mutating storage operation); instead the waiter gives
   up ([await] returns [`Timeout]), marks the promise abandoned, and the
   executor either skips the job (not started yet) or discards its result
   (already running).  Because a session's jobs leave the queue in
   submission order and its cleanup job is a Write (a barrier), the final
   rollback is guaranteed to run after everything the session ever
   submitted has finished.

   Completion is signalled two ways: a condition variable (for untimed
   waits) and an optional notify pipe, because OCaml's [Condition] has no
   timed wait — timed waiters [select] on the pipe instead. *)

open Mmdb_util

type kind = Read | Write

type 'a outcome = Value of 'a | Raised of exn

type 'a promise = {
  pm : Mutex.t;
  pc : Condition.t;
  mutable result : 'a outcome option;
  mutable abandoned : bool;
  notify : Unix.file_descr option;  (* write end of the waiter's pipe *)
}

type t = {
  m : Mutex.t;
  c : Condition.t;  (* "a job was queued / stop was requested" *)
  rc : Condition.t;  (* "a reader finished" *)
  jobs : (kind * (unit -> unit)) Queue.t;
  pool : Domain_pool.t;  (* reader domains *)
  n_readers : int;
  mvcc : bool;  (* Read jobs bypass the FIFO: see [submit] *)
  mutable active_readers : int;
  mutable bypass_readers : int;  (* MVCC reads in flight or pool-queued *)
  mutable stopped : bool;
  mutable runner : unit Domain.t option;
}

let readers t = t.n_readers

(* Queued-but-undispatched jobs — the overload signal the server's shed
   watermark compares against.  In-flight jobs are not counted: depth
   measures waiting work, which is what grows without bound when arrival
   outpaces service.  MVCC bypass reads waiting for a free reader domain
   (those beyond the pool's width) are exactly such waiting work. *)
let depth t =
  Mutex.lock t.m;
  let d = Queue.length t.jobs + max 0 (t.bypass_readers - t.n_readers) in
  Mutex.unlock t.m;
  d

(* The dispatcher: pops jobs in FIFO order.  A Write is a barrier — it
   waits for in-flight readers to drain, then runs on this domain.  A
   Read is handed to the reader pool and the dispatcher moves on (with a
   1-reader pool the hand-off runs inline here, reproducing the serial
   executor exactly). *)
let run_loop t =
  let rec loop () =
    Mutex.lock t.m;
    while Queue.is_empty t.jobs && not t.stopped do
      Condition.wait t.c t.m
    done;
    if Queue.is_empty t.jobs then begin
      (* stopped and drained: let in-flight readers finish first *)
      while t.active_readers > 0 || t.bypass_readers > 0 do
        Condition.wait t.rc t.m
      done;
      Mutex.unlock t.m
    end
    else begin
      let kind, job = Queue.pop t.jobs in
      match kind with
      | Write ->
          while t.active_readers > 0 do
            Condition.wait t.rc t.m
          done;
          Mutex.unlock t.m;
          job ();
          loop ()
      | Read ->
          t.active_readers <- t.active_readers + 1;
          Mutex.unlock t.m;
          ignore
            (Domain_pool.submit t.pool (fun () ->
                 Fun.protect
                   ~finally:(fun () ->
                     Mutex.lock t.m;
                     t.active_readers <- t.active_readers - 1;
                     Condition.broadcast t.rc;
                     Mutex.unlock t.m)
                   job));
          loop ()
    end
  in
  loop ()

(* Executor domains allocate at the served request rate (a point read
   is about 15 KB), and every minor collection stops all domains: with
   more domains than cores, each stop can wait out a descheduled one.
   Twice the default minor heap halves how often that happens; snapshot
   readers' p99 under a bulk writer (bench [server]'s mvcc phase) drops
   from 1.5-5 ms to about 1 ms on a 2-core host. *)
let size_minor_heap () =
  let gc = Gc.get () in
  if gc.Gc.minor_heap_size < 512 * 1024 then
    Gc.set { gc with Gc.minor_heap_size = 512 * 1024 }

let create ?readers ?(mvcc = false) () =
  let n_readers =
    match readers with
    | Some n -> max 1 n
    | None -> Domain_pool.default_size ()
  in
  let t =
    {
      m = Mutex.create ();
      c = Condition.create ();
      rc = Condition.create ();
      jobs = Queue.create ();
      pool = Domain_pool.create ~on_start:size_minor_heap ~size:n_readers ();
      n_readers;
      mvcc;
      active_readers = 0;
      bypass_readers = 0;
      stopped = false;
      runner = None;
    }
  in
  t.runner <-
    Some
      (Domain.spawn (fun () ->
           size_minor_heap ();
           run_loop t));
  t

let poke p =
  match p.notify with
  | None -> ()
  | Some fd -> ( try ignore (Unix.write_substring fd "!" 0 1) with _ -> ())

let submit t ?notify ?(kind = Write) f =
  let p =
    {
      pm = Mutex.create ();
      pc = Condition.create ();
      result = None;
      abandoned = false;
      notify;
    }
  in
  let submitted = Unix.gettimeofday () in
  let job () =
    Mutex.lock p.pm;
    let skip = p.abandoned in
    Mutex.unlock p.pm;
    if not skip then begin
      (* Hand the queue wait to a trace the job body may start: the wait
         happened before any collector could be installed, so it is
         stashed domain-locally and drained by [Trace.run]. *)
      Trace.offer_wait ~name:"queue.wait" (Unix.gettimeofday () -. submitted);
      let r = try Value (f ()) with e -> Raised e in
      Mutex.lock p.pm;
      p.result <- Some r;
      Condition.broadcast p.pc;
      Mutex.unlock p.pm;
      poke p
    end
    else begin
      (* resolve skipped jobs so untimed waiters cannot hang *)
      Mutex.lock p.pm;
      p.result <- Some (Raised (Failure "abandoned before execution"));
      Condition.broadcast p.pc;
      Mutex.unlock p.pm;
      poke p
    end
  in
  Mutex.lock t.m;
  if t.stopped then begin
    Mutex.unlock t.m;
    Mutex.lock p.pm;
    p.result <- Some (Raised (Failure "executor stopped"));
    Mutex.unlock p.pm
  end
  else if t.mvcc && kind = Read then begin
    (* MVCC: the read runs under its own snapshot, so it needs neither
       the FIFO's ordering against writes nor the Write barrier — hand
       it straight to the reader pool.  The dispatcher would otherwise
       be the stall: Write jobs run ON its domain, so a long writer
       would leave queued reads waiting exactly as locks would.
       [bypass_readers] keeps stop/teardown honest: the dispatcher
       drains it (via [rc]) before the pool is joined. *)
    t.bypass_readers <- t.bypass_readers + 1;
    Mutex.unlock t.m;
    ignore
      (Domain_pool.submit t.pool (fun () ->
           Fun.protect
             ~finally:(fun () ->
               Mutex.lock t.m;
               t.bypass_readers <- t.bypass_readers - 1;
               Condition.broadcast t.rc;
               Mutex.unlock t.m)
             job))
  end
  else begin
    Queue.push (kind, job) t.jobs;
    Condition.signal t.c;
    Mutex.unlock t.m
  end;
  p

let peek p =
  Mutex.lock p.pm;
  let r = p.result in
  Mutex.unlock p.pm;
  match r with
  | None -> None
  | Some (Value v) -> Some (Ok v)
  | Some (Raised e) -> Some (Error e)

let abandon p =
  Mutex.lock p.pm;
  p.abandoned <- true;
  Mutex.unlock p.pm

(* Block until the job resolves (no timeout). *)
let wait p =
  Mutex.lock p.pm;
  while p.result = None do
    Condition.wait p.pc p.pm
  done;
  let r = p.result in
  Mutex.unlock p.pm;
  match r with
  | Some (Value v) -> Ok v
  | Some (Raised e) -> Error e
  | None -> assert false

(* Wait with a deadline, selecting on [wakeup] (the read end of the pipe
   whose write end was passed as [?notify] to {!submit}).  Spurious bytes
   from earlier abandoned jobs on the same pipe are drained and ignored. *)
let await p ~wakeup ~deadline =
  let drain_buf = Bytes.create 16 in
  let rec go () =
    match peek p with
    | Some r -> `Done r
    | None ->
        let now = Unix.gettimeofday () in
        if now >= deadline then `Timeout
        else begin
          let span = Float.min 0.25 (deadline -. now) in
          (match Unix.select [ wakeup ] [] [] span with
          | [ _ ], _, _ -> (
              try ignore (Unix.read wakeup drain_buf 0 16) with _ -> ())
          | _ -> ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
          go ()
        end
  in
  go ()

(* Drain the queue (the dispatcher also waits out in-flight readers),
   then stop and join the dispatcher domain and the reader pool. *)
let stop t =
  Mutex.lock t.m;
  t.stopped <- true;
  Condition.broadcast t.c;
  Mutex.unlock t.m;
  (match t.runner with
  | None -> ()
  | Some d ->
      t.runner <- None;
      Domain.join d);
  Domain_pool.stop t.pool
