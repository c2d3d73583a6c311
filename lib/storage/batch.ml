(** Fixed-size execution batches: the unit of the vectorized operator
    paths.

    A batch is a short vector of tuple pointers plus a parallel slice of
    extracted values for one {e hot} column (the scan predicate column,
    a join key).  Producers ({!Relation.iter_batches}) fill both arrays
    in one tight pass — resolving MVCC versions and the forwarding chain
    once per tuple at fill time — so consuming kernels run monomorphic
    loops over the contiguous key slice instead of dereferencing a tuple
    pointer (and re-reading the domain-local snapshot state) per field
    access.

    Key extraction is {e uncounted}: the consuming kernel accounts the
    paper's §3.1 logical operations itself, per logical operation, so
    every batch size counts exactly the same totals.
    See DESIGN.md "Batched execution".

    Batch size is the only execution-mode parameter.  [MMDB_BATCH]:
    [0] means batch size 1, the paper's tuple-at-a-time ablation (the
    kernels then count exactly what the batched runs count); [1] or
    unset means the default size; any larger integer is the size. *)

let default_size = 256

let parse_env = function
  | Some ("0" | "false" | "off" | "no") -> 1
  | Some s -> (
      match int_of_string_opt s with Some n when n > 1 -> n | _ -> default_size)
  | None -> default_size

let state = ref (parse_env (Sys.getenv_opt "MMDB_BATCH"))

let size () = !state
let enabled () = !state > 1
let set_size n = state := max 1 n

(* --- observability ------------------------------------------------------ *)

(* Process-global production counters for STATS: how many batches the
   scan entry points produced and how many rows rode in them. *)
let batches_produced = Atomic.make 0
let rows_batched = Atomic.make 0

let note_batch ~rows =
  Atomic.incr batches_produced;
  ignore (Atomic.fetch_and_add rows_batched rows)

type stats = { st_enabled : bool; st_size : int; st_batches : int; st_rows : int }

let stats () =
  {
    st_enabled = enabled ();
    st_size = size ();
    st_batches = Atomic.get batches_produced;
    st_rows = Atomic.get rows_batched;
  }

(* --- the batch itself --------------------------------------------------- *)

type t = {
  tuples : Tuple.t array;  (** valid in [0, n) *)
  keys : Value.t array;  (** hot-column values, parallel to [tuples] *)
  mutable n : int;
}

let create ?size:(cap = size ()) () =
  let cap = max 1 cap in
  {
    tuples = Array.make cap Tuple.filler;
    keys = Array.make cap Value.Null;
    n = 0;
  }

let clear b = b.n <- 0
