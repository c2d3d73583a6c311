(** The array index of [AHK85]: a single sorted array of tuple pointers.

    Cheapest possible storage (a bare array of 4-byte pointers) and a decent
    binary search, but every insert or delete moves half of the array on
    average — the paper measures its update performance as two orders of
    magnitude worse than the other structures (Graph 2), making it a
    read-only / build-then-scan structure in practice (it is what Sort Merge
    join builds and sorts). *)

open Mmdb_util

type 'a t = {
  cmp : 'a -> 'a -> int;
  duplicates : bool;
  mutable data : 'a array;
  mutable count : int;
}

let name = "Array"
let kind = Index_intf.Ordered
let default_node_size = 1

let create ?node_size:_ ?(duplicates = false) ?expected:_ ~cmp ~hash:_ () =
  { cmp; duplicates; data = [||]; count = 0 }

let size t = t.count

let ensure_capacity t =
  let cap = Array.length t.data in
  if t.count >= cap then begin
    (* doubling by copy: see [Index_intf.slots] *)
    t.data <- Array.append t.data t.data
  end

let insert t x =
  if t.count = 0 then begin
    t.data <- Array.make 16 x;
    t.count <- 1;
    Counters.bump_data_moves ();
    true
  end
  else
    match Index_intf.binary_search ~cmp:t.cmp t.data ~count:t.count x with
    | Found _ when not t.duplicates -> false
    | Found i | Insert_at i ->
        ensure_capacity t;
        let tail = t.count - i in
        Array.blit t.data i t.data (i + 1) tail;
        Counters.bump_data_moves ~n:(tail + 1) ();
        t.data.(i) <- x;
        t.count <- t.count + 1;
        true

let find_index t x =
  match Index_intf.binary_search ~cmp:t.cmp t.data ~count:t.count x with
  | Found i -> Some i
  | Insert_at _ -> None

let delete t x =
  match find_index t x with
  | None -> false
  | Some i ->
      let tail = t.count - i - 1 in
      Array.blit t.data (i + 1) t.data i tail;
      Counters.bump_data_moves ~n:tail ();
      t.count <- t.count - 1;
      true

let search t x =
  match find_index t x with Some i -> Some t.data.(i) | None -> None

let iter_matches t x f =
  let lo = Index_intf.lower_bound ~cmp:t.cmp t.data ~count:t.count x in
  let hi = Index_intf.upper_bound ~cmp:t.cmp t.data ~count:t.count x in
  for i = lo to hi - 1 do
    f t.data.(i)
  done

let iter t f =
  for i = 0 to t.count - 1 do
    f t.data.(i)
  done

let to_seq t =
  let rec from i () =
    if i >= t.count then Seq.Nil else Seq.Cons (t.data.(i), from (i + 1))
  in
  from 0

let iter_from t lo f =
  let start = Index_intf.lower_bound ~cmp:t.cmp t.data ~count:t.count lo in
  for i = start to t.count - 1 do
    f t.data.(i)
  done

let range t ~lo ~hi f =
  let start = Index_intf.lower_bound ~cmp:t.cmp t.data ~count:t.count lo in
  let stop = Index_intf.upper_bound ~cmp:t.cmp t.data ~count:t.count hi in
  for i = start to stop - 1 do
    f t.data.(i)
  done

(* The paper's accounting: the array is the storage baseline, just one
   4-byte tuple pointer per element. *)
let storage_bytes t = 4 * t.count

let validate t =
  let ok = ref (Ok ()) in
  for i = 1 to t.count - 1 do
    if !ok = Ok () && t.cmp t.data.(i - 1) t.data.(i) > 0 then
      ok := Error (Printf.sprintf "array not sorted at index %d" i)
  done;
  if !ok = Ok () && t.count > Array.length t.data then
    ok := Error "count exceeds capacity";
  !ok
