(* A fixed pool of worker domains for intra-query parallelism.

   The paper's cost model is CPU-bound once data is memory-resident, so
   the only way to go faster on modern hardware is to use more cores.
   This pool is the substrate: operators split their input into chunks,
   each chunk runs on a worker domain, and the results are concatenated.

   Design rules:

   - A pool of [size] N runs at most N tasks concurrently; [size 1]
     spawns NO domains and runs every task inline at submission, which
     is the sequential fallback (bit-identical to the pre-parallel
     code paths — MMDB_DOMAINS=1 forces it globally).
   - Nesting is forbidden by construction: a task running on a worker
     that itself calls [parallel_map]/[submit] degrades to inline
     sequential execution ([in_worker] is a domain-local flag).  This
     makes it impossible for the server's reader fan-out (which runs
     query jobs on pool workers) to deadlock against operator-level
     parallelism competing for the same workers.
   - Tasks must not touch mutable state shared with other concurrent
     tasks; the operators uphold this by writing into per-task local
     temporary lists that the caller concatenates. *)

type 'a outcome = Value of 'a | Raised of exn

type 'a future = {
  fm : Mutex.t;
  fc : Condition.t;
  mutable state : 'a outcome option;
}

type t = {
  m : Mutex.t;
  c : Condition.t;
  tasks : (unit -> unit) Queue.t;
  mutable stopped : bool;
  mutable workers : unit Domain.t array;
  size : int;
}

(* Domain-local marker: true while executing on a pool worker. *)
let in_worker_key = Domain.DLS.new_key (fun () -> false)
let in_worker () = Domain.DLS.get in_worker_key

let size t = t.size

let fan_out pool ~n ~threshold =
  match pool with
  | Some p when p.size > 1 && (not (in_worker ())) && n >= threshold -> pool
  | _ -> None

let clamp lo hi v = max lo (min hi v)

(* MMDB_DOMAINS overrides the hardware-derived default; 1 forces the
   sequential fallback everywhere. *)
let default_size () =
  match Sys.getenv_opt "MMDB_DOMAINS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n -> clamp 1 64 n
      | None -> clamp 1 16 (Domain.recommended_domain_count ()))
  | None -> clamp 1 16 (Domain.recommended_domain_count ())

let worker_loop t =
  Domain.DLS.set in_worker_key true;
  let rec loop () =
    Mutex.lock t.m;
    while Queue.is_empty t.tasks && not t.stopped do
      Condition.wait t.c t.m
    done;
    if Queue.is_empty t.tasks then Mutex.unlock t.m (* stopped and drained *)
    else begin
      let task = Queue.pop t.tasks in
      Mutex.unlock t.m;
      task ();
      loop ()
    end
  in
  loop ()

let create ?(on_start = ignore) ?size () =
  let size = match size with Some s -> max 1 s | None -> default_size () in
  let t =
    {
      m = Mutex.create ();
      c = Condition.create ();
      tasks = Queue.create ();
      stopped = false;
      workers = [||];
      size;
    }
  in
  if size > 1 then
    t.workers <- Array.init size (fun _ ->
        Domain.spawn (fun () ->
            on_start ();
            worker_loop t));
  t

let resolve fut outcome =
  Mutex.lock fut.fm;
  fut.state <- Some outcome;
  Condition.broadcast fut.fc;
  Mutex.unlock fut.fm

let submit t f =
  let fut = { fm = Mutex.create (); fc = Condition.create (); state = None } in
  let task () = resolve fut (try Value (f ()) with e -> Raised e) in
  (* No workers (size 1), worker context (no nesting), or a stopped pool:
     run inline so a future always resolves. *)
  let inline () =
    task ();
    fut
  in
  if Array.length t.workers = 0 || in_worker () then inline ()
  else begin
    Mutex.lock t.m;
    if t.stopped then begin
      Mutex.unlock t.m;
      inline ()
    end
    else begin
      Queue.push task t.tasks;
      Condition.signal t.c;
      Mutex.unlock t.m;
      fut
    end
  end

let await fut =
  Mutex.lock fut.fm;
  while fut.state = None do
    Condition.wait fut.fc fut.fm
  done;
  let s = fut.state in
  Mutex.unlock fut.fm;
  match s with
  | Some (Value v) -> v
  | Some (Raised e) -> raise e
  | None -> assert false

(* Split [0, n) into at most [pieces] contiguous, non-empty ranges. *)
let chunks ~n ~pieces =
  if n <= 0 then [||]
  else begin
    let pieces = clamp 1 n pieces in
    let per = n / pieces and extra = n mod pieces in
    Array.init pieces (fun i ->
        let lo = (i * per) + min i extra in
        let hi = lo + per + if i < extra then 1 else 0 in
        (lo, hi))
  end

(* Map [arr.(lo) .. arr.(hi - 1)] as a list of arrays of at most 256
   slots.  [Array.init] over more than 256 slots runs a minor collection
   first when its first value is in the minor heap, which stops every
   domain; short arrays are allocated in the minor heap and
   [Array.concat] copies them without one. *)
let map_range f arr lo hi =
  let rec pieces lo acc =
    if lo >= hi then List.rev acc
    else
      let len = min 256 (hi - lo) in
      pieces (lo + len) (Array.init len (fun k -> f arr.(lo + k)) :: acc)
  in
  pieces lo []

(* Chunked parallel map: split [arr] into about [4 * size] ranges for
   load balance, map each range on a worker, await all, then stitch the
   results back together in order.  Every chunk completes before the
   first failure (if any) is re-raised, so in-place work never races
   with the caller's unwinding. *)
let parallel_map t f arr =
  let n = Array.length arr in
  if n = 0 then [||]
  else if t.size <= 1 || n = 1 || in_worker () then Array.map f arr
  else begin
    let ranges = chunks ~n ~pieces:(4 * t.size) in
    let futures =
      Array.map
        (fun (lo, hi) -> submit t (fun () -> map_range f arr lo hi))
        ranges
    in
    let outcomes =
      Array.map
        (fun fut -> try Value (await fut) with e -> Raised e)
        futures
    in
    let parts =
      Array.map
        (function Value v -> v | Raised e -> raise e)
        outcomes
    in
    Array.concat (List.concat (Array.to_list parts))
  end

let parallel_iter t f arr = ignore (parallel_map t (fun x -> f x; ()) arr)

let stop t =
  Mutex.lock t.m;
  t.stopped <- true;
  Condition.broadcast t.c;
  Mutex.unlock t.m;
  Array.iter Domain.join t.workers

(* The process-wide shared pool, sized by MMDB_DOMAINS (or the hardware
   default).  Created on first use; never stopped — its idle workers
   block on a condition variable and cost nothing.  Creation is under a
   mutex: domains that ask at once must all get the one pool (forcing a
   [lazy] from two domains at once raises [CamlinternalLazy.Undefined]). *)
let global_pool = Atomic.make None
let global_lock = Mutex.create ()

let global () =
  match Atomic.get global_pool with
  | Some p -> p
  | None ->
      Mutex.protect global_lock (fun () ->
          match Atomic.get global_pool with
          | Some p -> p
          | None ->
              let p = create ~size:(default_size ()) () in
              Atomic.set global_pool (Some p);
              p)
