(** Partitions: the unit of recovery (§2.1).

    A partition is "larger than a typical disk page, probably on the order
    of one or two disk tracks".  Tuples are grouped in partitions for space
    management and recovery, but once placed a tuple never moves — the rare
    exception being growth of a variable-length field past the partition's
    heap capacity, which moves the tuple and leaves a forwarding address in
    its old position (footnote 1).

    A partition owns two budgets: a fixed number of tuple slots, and a heap
    byte budget for variable-length (string) fields.  The slot array may be
    compacted on deletion — only the tuple records themselves (what a tuple
    pointer names) are immobile. *)

type t = {
  pid : int;
  slot_capacity : int;
  heap_capacity : int;
  mutable slots : Tuple.t array;
  mutable count : int;
  mutable heap_used : int;
  mutable dirty : bool;  (** modified since last propagation to disk copy *)
}

(* Defaults sized like a disk track's worth of 100-byte tuples. *)
let default_slot_capacity = 512
let default_heap_capacity = 16 * 1024

let create ?(slot_capacity = default_slot_capacity)
    ?(heap_capacity = default_heap_capacity) ~pid () =
  if slot_capacity < 1 then invalid_arg "Partition.create: slot_capacity";
  if heap_capacity < 0 then invalid_arg "Partition.create: heap_capacity";
  {
    pid;
    slot_capacity;
    heap_capacity;
    slots = [||];
    count = 0;
    heap_used = 0;
    dirty = false;
  }

let pid t = t.pid
let count t = t.count
let slot_capacity t = t.slot_capacity
let heap_used t = t.heap_used
let heap_capacity t = t.heap_capacity
let is_dirty t = t.dirty
let set_dirty t d = t.dirty <- d

let is_full t = t.count >= t.slot_capacity

let heap_fits t bytes = t.heap_used + bytes <= t.heap_capacity

type add_result = Added | Slots_full | Heap_full

let add t (tuple : Tuple.t) =
  if is_full t then Slots_full
  else begin
    let heap = Tuple.heap_bytes tuple in
    if not (heap_fits t heap) then Heap_full
    else begin
      if t.count >= Array.length t.slots then begin
        let grown =
          let cap = min t.slot_capacity (2 * max 8 (Array.length t.slots)) in
          Array.make (max 16 cap) Tuple.filler
        in
        Array.blit t.slots 0 grown 0 t.count;
        t.slots <- grown
      end;
      t.slots.(t.count) <- tuple;
      t.count <- t.count + 1;
      t.heap_used <- t.heap_used + heap;
      tuple.Value.pid <- t.pid;
      t.dirty <- true;
      Added
    end
  end

(* Remove a tuple from the slot array (swap with last slot; the tuple
   record itself does not move). *)
let remove t (tuple : Tuple.t) =
  let rec find i = if i >= t.count then None else if t.slots.(i) == tuple then Some i else find (i + 1) in
  match find 0 with
  | None -> false
  | Some i ->
      t.slots.(i) <- t.slots.(t.count - 1);
      t.count <- t.count - 1;
      t.heap_used <- t.heap_used - Tuple.heap_bytes tuple;
      t.dirty <- true;
      true

(* Adjust heap accounting when a variable-length field changes size.
   Returns false if the partition cannot absorb the growth (the caller must
   then move the tuple elsewhere and leave a forwarding address). *)
let adjust_heap t ~delta =
  if delta <= 0 then begin
    t.heap_used <- t.heap_used + delta;
    t.dirty <- true;
    true
  end
  else if heap_fits t delta then begin
    t.heap_used <- t.heap_used + delta;
    t.dirty <- true;
    true
  end
  else false

let iter t f =
  for i = 0 to t.count - 1 do
    f t.slots.(i)
  done

let to_list t =
  let acc = ref [] in
  iter t (fun tuple -> acc := tuple :: !acc);
  List.rev !acc

let validate t =
  if t.count > t.slot_capacity then Error "slot overflow"
  else if t.heap_used > t.heap_capacity then Error "heap overflow"
  else begin
    let heap = ref 0 in
    iter t (fun tuple -> heap := !heap + Tuple.heap_bytes tuple);
    if !heap <> t.heap_used then Error "heap accounting drift" else Ok ()
  end
