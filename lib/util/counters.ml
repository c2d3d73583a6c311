type snapshot = {
  comparisons : int;
  data_moves : int;
  hash_calls : int;
  node_allocs : int;
  ptr_derefs : int;
}

let zero =
  { comparisons = 0; data_moves = 0; hash_calls = 0; node_allocs = 0;
    ptr_derefs = 0 }

let add a b =
  {
    comparisons = a.comparisons + b.comparisons;
    data_moves = a.data_moves + b.data_moves;
    hash_calls = a.hash_calls + b.hash_calls;
    node_allocs = a.node_allocs + b.node_allocs;
    ptr_derefs = a.ptr_derefs + b.ptr_derefs;
  }

let diff a b =
  {
    comparisons = a.comparisons - b.comparisons;
    data_moves = a.data_moves - b.data_moves;
    hash_calls = a.hash_calls - b.hash_calls;
    node_allocs = a.node_allocs - b.node_allocs;
    ptr_derefs = a.ptr_derefs - b.ptr_derefs;
  }

let enabled = ref true

(* Each domain bumps a private cell (no sharing, no contention on the
   operator hot paths); [snapshot] merges every domain's cell.  Cells are
   registered on first use from a domain; the registry is only touched at
   registration/reset/snapshot time and is mutex-guarded.

   Merge visibility: callers take snapshots from the coordinating domain
   after awaiting the futures of the work they want counted, and the
   future's mutex establishes the necessary happens-before edge for the
   workers' plain-field bumps.

   A cell is a [tally]: the hot kernels count into a tally of their own,
   a plain record with no domain-local lookup per operation, and
   [publish] adds it into the running domain's cell once per call. *)
type tally = {
  mutable t_comparisons : int;
  mutable t_data_moves : int;
  mutable t_hash_calls : int;
  mutable t_node_allocs : int;
  mutable t_ptr_derefs : int;
}

let tally () =
  { t_comparisons = 0; t_data_moves = 0; t_hash_calls = 0; t_node_allocs = 0;
    t_ptr_derefs = 0 }

let registry_m = Mutex.create ()
let registry : tally list ref = ref []

let cell_key =
  Domain.DLS.new_key (fun () ->
      let c = tally () in
      Mutex.lock registry_m;
      registry := c :: !registry;
      Mutex.unlock registry_m;
      c)

let cell () = Domain.DLS.get cell_key

let zero_cell c =
  c.t_comparisons <- 0;
  c.t_data_moves <- 0;
  c.t_hash_calls <- 0;
  c.t_node_allocs <- 0;
  c.t_ptr_derefs <- 0

let reset () =
  Mutex.lock registry_m;
  List.iter zero_cell !registry;
  Mutex.unlock registry_m

let snapshot_of c =
  {
    comparisons = c.t_comparisons;
    data_moves = c.t_data_moves;
    hash_calls = c.t_hash_calls;
    node_allocs = c.t_node_allocs;
    ptr_derefs = c.t_ptr_derefs;
  }

let snapshot () =
  Mutex.lock registry_m;
  let s = List.fold_left (fun acc c -> add acc (snapshot_of c)) zero !registry in
  Mutex.unlock registry_m;
  s

let local_snapshot () = snapshot_of (cell ())

let absorb s =
  let c = cell () in
  c.t_comparisons <- c.t_comparisons + s.comparisons;
  c.t_data_moves <- c.t_data_moves + s.data_moves;
  c.t_hash_calls <- c.t_hash_calls + s.hash_calls;
  c.t_node_allocs <- c.t_node_allocs + s.node_allocs;
  c.t_ptr_derefs <- c.t_ptr_derefs + s.ptr_derefs

(* One kernel call's counts, added into the running domain's cell. *)
let publish t =
  if !enabled then begin
    let c = cell () in
    c.t_comparisons <- c.t_comparisons + t.t_comparisons;
    c.t_data_moves <- c.t_data_moves + t.t_data_moves;
    c.t_hash_calls <- c.t_hash_calls + t.t_hash_calls;
    c.t_node_allocs <- c.t_node_allocs + t.t_node_allocs;
    c.t_ptr_derefs <- c.t_ptr_derefs + t.t_ptr_derefs
  end

let counting f =
  let t = tally () in
  Fun.protect ~finally:(fun () -> publish t) (fun () -> f t)

let bump_comparisons ?(n = 1) () =
  if !enabled then begin
    let c = cell () in
    c.t_comparisons <- c.t_comparisons + n
  end

let bump_data_moves ?(n = 1) () =
  if !enabled then begin
    let c = cell () in
    c.t_data_moves <- c.t_data_moves + n
  end

let bump_hash_calls ?(n = 1) () =
  if !enabled then begin
    let c = cell () in
    c.t_hash_calls <- c.t_hash_calls + n
  end

let bump_node_allocs ?(n = 1) () =
  if !enabled then begin
    let c = cell () in
    c.t_node_allocs <- c.t_node_allocs + n
  end

let bump_ptr_derefs ?(n = 1) () =
  if !enabled then begin
    let c = cell () in
    c.t_ptr_derefs <- c.t_ptr_derefs + n
  end

let counting_cmp cmp a b =
  bump_comparisons ();
  cmp a b

let with_counters f =
  let before = snapshot () in
  let result = f () in
  let after = snapshot () in
  (result, diff after before)

let pp ppf s =
  Format.fprintf ppf
    "@[<h>cmp=%d moves=%d hash=%d allocs=%d derefs=%d@]" s.comparisons
    s.data_moves s.hash_calls s.node_allocs s.ptr_derefs
