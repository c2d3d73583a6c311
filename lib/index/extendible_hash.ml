(** Extendible Hashing [FNP79]: a doubling directory over splittable buckets.

    Search is one hash plus one directory probe plus a scan of a single
    bucket, and the structure adapts to growth by splitting buckets and, when
    a bucket's local depth reaches the global depth, doubling the directory.
    The paper finds its weakness is storage: with small bucket sizes the
    directory doubles repeatedly (a few crowded buckets force global
    doubling), which is the "poor" storage rating of Table 1. *)

open Mmdb_util

type 'a bucket = {
  mutable ldepth : int;
  mutable elems : 'a array;
  mutable count : int;
}

type 'a t = {
  cmp : 'a -> 'a -> int;
  hash : 'a -> int;
  duplicates : bool;
  bucket_size : int;
  mutable gdepth : int;
  mutable dir : 'a bucket array;
  mutable count : int;
  mutable buckets : int; (* distinct buckets (dir entries alias) *)
}

let name = "Extendible Hash"
let kind = Index_intf.Hash
let default_node_size = 16

(* [elems] is the bucket's storage, taken over as is; its contents are
   stale until [count] covers them. *)
let mk_bucket ?(ldepth = 0) elems =
  Counters.bump_node_allocs ();
  { ldepth; elems; count = 0 }

let create ?(node_size = default_node_size) ?(duplicates = false) ?expected:_
    ~cmp ~hash () =
  if node_size < 1 then invalid_arg "Extendible_hash.create: node_size < 1";
  {
    cmp;
    hash;
    duplicates;
    bucket_size = node_size;
    gdepth = 0;
    dir = [||]; (* allocated lazily on first insert, needs a witness *)
    count = 0;
    buckets = 0;
  }

let size t = t.count

let hash_of t x =
  Counters.bump_hash_calls ();
  t.hash x land max_int

let dir_slot t h = h land ((1 lsl t.gdepth) - 1)

let bucket_for t h = t.dir.(dir_slot t h)

let scan_bucket t x (b : 'a bucket) =
  let rec go i =
    if i >= b.count then None
    else if Counters.counting_cmp t.cmp x b.elems.(i) = 0 then Some i
    else go (i + 1)
  in
  go 0

(* Split bucket [b]: allocate a sibling with local depth [ldepth + 1],
   redistribute by the newly significant hash bit, and repoint the directory
   entries that referenced [b]. *)
let split_bucket t (b : 'a bucket) =
  let old_depth = b.ldepth in
  if old_depth = t.gdepth then begin
    (* Double the directory first. *)
    let old = t.dir in
    t.gdepth <- t.gdepth + 1;
    t.dir <- Array.append old old
  end;
  let sibling = mk_bucket ~ldepth:(old_depth + 1) (Array.copy b.elems) in
  t.buckets <- t.buckets + 1;
  b.ldepth <- old_depth + 1;
  let bit = 1 lsl old_depth in
  let kept = ref 0 in
  for i = 0 to b.count - 1 do
    let h = hash_of t b.elems.(i) in
    if h land bit <> 0 then begin
      sibling.elems.(sibling.count) <- b.elems.(i);
      sibling.count <- sibling.count + 1;
      Counters.bump_data_moves ()
    end
    else begin
      b.elems.(!kept) <- b.elems.(i);
      incr kept
    end
  done;
  b.count <- !kept;
  (* Repoint directory entries: those whose slot has the new bit set and
     which previously aliased [b]. *)
  for s = 0 to Array.length t.dir - 1 do
    if t.dir.(s) == b && s land bit <> 0 then t.dir.(s) <- sibling
  done

let grow_bucket (b : 'a bucket) =
  (* Degenerate case: every element in the bucket shares the same hash bits
     (e.g. heavy duplicates), so splitting cannot make progress; extend the
     bucket in place instead of doubling the directory forever. *)
  Counters.bump_data_moves ~n:b.count ();
  b.elems <- Array.append b.elems b.elems

let rec insert t x =
  if t.gdepth = 0 && t.buckets = 0 then begin
    t.dir <- [| mk_bucket (Index_intf.slots t.bucket_size x) |];
    t.buckets <- 1
  end;
  let h = hash_of t x in
  let b = bucket_for t h in
  if (not t.duplicates) && scan_bucket t x b <> None then false
  else if b.count < Array.length b.elems then begin
    b.elems.(b.count) <- x;
    b.count <- b.count + 1;
    Counters.bump_data_moves ();
    t.count <- t.count + 1;
    true
  end
  else begin
    (* Full: split (or grow, if splitting cannot separate the elements). *)
    let mask = (1 lsl (b.ldepth + 1)) - 1 in
    let all_same =
      let h0 = hash_of t b.elems.(0) land mask in
      let rec same i =
        i >= b.count || (hash_of t b.elems.(i) land mask = h0 && same (i + 1))
      in
      same 1 && h land mask = h0
    in
    if all_same then grow_bucket b else split_bucket t b;
    insert t x
  end

let delete t x =
  if t.buckets = 0 then false
  else begin
    let h = hash_of t x in
    let b = bucket_for t h in
    match scan_bucket t x b with
    | None -> false
    | Some i ->
        b.elems.(i) <- b.elems.(b.count - 1);
        Counters.bump_data_moves ();
        b.count <- b.count - 1;
        t.count <- t.count - 1;
        true
  end

let search t x =
  if t.buckets = 0 then None
  else begin
    let h = hash_of t x in
    let b = bucket_for t h in
    match scan_bucket t x b with Some i -> Some b.elems.(i) | None -> None
  end

let iter_matches t x f =
  if t.buckets > 0 then begin
    let h = hash_of t x in
    let b = bucket_for t h in
    for i = 0 to b.count - 1 do
      if Counters.counting_cmp t.cmp x b.elems.(i) = 0 then f b.elems.(i)
    done
  end

(* Directory entries alias buckets.  A bucket of local depth l is referenced
   by every slot congruent to its bit pattern mod 2^l; the canonical slot is
   the one below 2^l, so each bucket is visited exactly once in O(|dir|). *)
let iter_buckets t f =
  Array.iteri
    (fun s b -> if s = s land ((1 lsl b.ldepth) - 1) then f b)
    t.dir

let distinct_buckets t =
  let acc = ref [] in
  iter_buckets t (fun b -> acc := b :: !acc);
  List.rev !acc

let iter t f =
  List.iter
    (fun (b : _ bucket) ->
      for i = 0 to b.count - 1 do
        f b.elems.(i)
      done)
    (distinct_buckets t)

let to_seq t =
  let buckets = distinct_buckets t in
  let rec from_buckets (bs : _ bucket list) i () =
    match bs with
    | [] -> Seq.Nil
    | b :: rest ->
        if i < b.count then Seq.Cons (b.elems.(i), from_buckets bs (i + 1))
        else from_buckets rest 0 ()
  in
  from_buckets buckets 0

let range _ ~lo:_ ~hi:_ _ =
  raise (Index_intf.Unsupported "Extendible Hash: no range scans")

let iter_from _ _ _ =
  raise (Index_intf.Unsupported "Extendible Hash: no ordered scans")

let storage_bytes t =
  let bucket_bytes =
    List.fold_left
      (fun acc (b : _ bucket) -> acc + (4 * Array.length b.elems) + 8)
      0 (distinct_buckets t)
  in
  (4 * Array.length t.dir) + bucket_bytes

let validate t =
  if t.buckets = 0 then if t.count = 0 then Ok () else Error "count nonzero"
  else begin
    let exception Bad of string in
    try
      if Array.length t.dir <> 1 lsl t.gdepth then raise (Bad "directory size");
      let total = ref 0 in
      List.iter
        (fun (b : _ bucket) ->
          if b.ldepth > t.gdepth then raise (Bad "local depth > global");
          total := !total + b.count;
          (* Every element must agree with its bucket on ldepth bits. *)
          for i = 0 to b.count - 1 do
            let h = t.hash b.elems.(i) land max_int in
            let slot = h land ((1 lsl t.gdepth) - 1) in
            if t.dir.(slot) != b then raise (Bad "element in wrong bucket")
          done)
        (distinct_buckets t);
      (* Each bucket must be referenced by exactly 2^(g-l) directory slots. *)
      List.iter
        (fun (b : _ bucket) ->
          let refs = Array.fold_left (fun acc e -> if e == b then acc + 1 else acc) 0 t.dir in
          if refs <> 1 lsl (t.gdepth - b.ldepth) then
            raise (Bad "wrong directory fan-in for bucket"))
        (distinct_buckets t);
      if !total <> t.count then raise (Bad "count mismatch");
      Ok ()
    with Bad msg -> Error msg
  end
