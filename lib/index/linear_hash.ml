(** Linear Hashing [Lit80]: split-pointer growth, no directory doubling.

    Buckets are split one at a time in a fixed order as the file grows;
    addressing uses two hash levels around the split pointer.  Following the
    paper's configuration, splitting and contracting are driven by {e
    storage utilisation} (data items stored / primary slots allocated),
    controlled against a single target.  That is precisely why the paper
    found this structure "just too slow to use in main memory": holding
    utilisation at the target means nearly every update to a
    constant-sized population crosses the threshold and triggers a bucket
    split or contraction — "a significant amount of data reorganization
    even though the number of elements was relatively constant" (§3.2.2).
    The Graph 2 query-mix bench reproduces exactly this behaviour. *)

open Mmdb_util

type 'a bucket = {
  mutable elems : 'a array; (* primary page, capacity node_size *)
  mutable count : int;
  mutable overflow : 'a list; (* overflow chain, one item per cell *)
  mutable ov_len : int;
}

type 'a t = {
  cmp : 'a -> 'a -> int;
  hash : 'a -> int;
  duplicates : bool;
  node_size : int;
  base : int; (* N0: buckets at level 0 *)
  target_util : float; (* utilisation the file is held at *)
  mutable buckets : 'a bucket array;
  mutable nbuckets : int;
  mutable level : int;
  mutable next : int; (* split pointer *)
  mutable count : int;
}

let name = "Linear Hash"
let kind = Index_intf.Hash
let default_node_size = 8

(* [elems] is the bucket's primary page, taken over as is; its contents
   are stale until [count] covers them. *)
let mk_bucket elems =
  Counters.bump_node_allocs ();
  { elems; count = 0; overflow = []; ov_len = 0 }

let create ?(node_size = default_node_size) ?(duplicates = false) ?expected:_
    ~cmp ~hash () =
  if node_size < 1 then invalid_arg "Linear_hash.create: node_size < 1";
  {
    cmp;
    hash;
    duplicates;
    node_size;
    base = 4;
    target_util = 0.80;
    buckets = [||];
    nbuckets = 0;
    level = 0;
    next = 0;
    count = 0;
  }

let size t = t.count

let hash_of t x =
  Counters.bump_hash_calls ();
  t.hash x land max_int

(* Two-level addressing around the split pointer. *)
let addr t h =
  let m = t.base lsl t.level in
  let a = h mod m in
  if a < t.next then h mod (m lsl 1) else a

let utilisation t =
  if t.nbuckets = 0 then 0.0
  else
    float_of_int t.count /. float_of_int (t.nbuckets * t.node_size)

let push_item t (b : 'a bucket) x =
  if b.count < t.node_size then begin
    b.elems.(b.count) <- x;
    b.count <- b.count + 1
  end
  else begin
    b.overflow <- x :: b.overflow;
    b.ov_len <- b.ov_len + 1;
    Counters.bump_node_allocs ()
  end;
  Counters.bump_data_moves ()

let bucket_items (b : 'a bucket) =
  let primary = Array.to_list (Array.sub b.elems 0 b.count) in
  primary @ b.overflow

(* Split the bucket at the split pointer into itself and a new bucket at
   index [nbuckets]; advance the pointer / level. *)
let split t =
  (* Ensure capacity in the bucket directory (doubling by copy: see
     [Index_intf.slots]). *)
  if t.nbuckets >= Array.length t.buckets then
    t.buckets <- Array.append t.buckets t.buckets;
  let fresh = mk_bucket (Array.copy t.buckets.(0).elems) in
  t.buckets.(t.nbuckets) <- fresh;
  t.nbuckets <- t.nbuckets + 1;
  let old = t.buckets.(t.next) in
  let items = bucket_items old in
  old.count <- 0;
  old.overflow <- [];
  old.ov_len <- 0;
  let m2 = (t.base lsl t.level) lsl 1 in
  let target_new = t.nbuckets - 1 in
  List.iter
    (fun x ->
      let h = hash_of t x in
      let a = h mod m2 in
      if a = target_new then push_item t fresh x else push_item t old x)
    items;
  t.next <- t.next + 1;
  if t.next = t.base lsl t.level then begin
    t.level <- t.level + 1;
    t.next <- 0
  end

(* Inverse of [split]: pull the last bucket's items back into its partner. *)
let contract t =
  if t.nbuckets > t.base then begin
    if t.next = 0 then begin
      t.level <- t.level - 1;
      t.next <- t.base lsl t.level
    end;
    t.next <- t.next - 1;
    let last = t.buckets.(t.nbuckets - 1) in
    t.nbuckets <- t.nbuckets - 1;
    let partner = t.buckets.(t.next) in
    List.iter (fun x -> push_item t partner x) (bucket_items last)
  end

(* One resize step per operation: chasing the single utilisation target is
   the paper's configuration, and is what makes Linear Hashing reorganise
   constantly under a mixed workload with stable cardinality. *)
let maybe_resize t =
  if utilisation t > t.target_util then split t
  else if t.nbuckets > t.base && utilisation t < t.target_util then contract t

let ensure_init t witness =
  if t.nbuckets = 0 then begin
    t.buckets <-
      Array.init t.base (fun _ ->
          mk_bucket (Index_intf.slots t.node_size witness));
    t.nbuckets <- t.base
  end

let find_bucket t x =
  let h = hash_of t x in
  t.buckets.(addr t h)

let scan_primary t (b : 'a bucket) x =
  let rec go i =
    if i >= b.count then None
    else if Counters.counting_cmp t.cmp x b.elems.(i) = 0 then Some i
    else go (i + 1)
  in
  go 0

let in_overflow t (b : 'a bucket) x =
  List.exists (fun y -> Counters.counting_cmp t.cmp x y = 0) b.overflow

let insert t x =
  ensure_init t x;
  let b = find_bucket t x in
  if (not t.duplicates) && (scan_primary t b x <> None || in_overflow t b x)
  then false
  else begin
    push_item t b x;
    t.count <- t.count + 1;
    maybe_resize t;
    true
  end

let delete t x =
  if t.nbuckets = 0 then false
  else begin
    let b = find_bucket t x in
    let removed =
      match scan_primary t b x with
      | Some i ->
          (* Backfill the primary page from its own tail, then from the
             overflow chain. *)
          b.elems.(i) <- b.elems.(b.count - 1);
          Counters.bump_data_moves ();
          b.count <- b.count - 1;
          (match b.overflow with
          | y :: rest ->
              b.elems.(b.count) <- y;
              b.count <- b.count + 1;
              b.overflow <- rest;
              b.ov_len <- b.ov_len - 1;
              Counters.bump_data_moves ()
          | [] -> ());
          true
      | None ->
          if in_overflow t b x then begin
            let found = ref false in
            b.overflow <-
              List.filter
                (fun y ->
                  if (not !found) && t.cmp x y = 0 then begin
                    found := true;
                    false
                  end
                  else true)
                b.overflow;
            b.ov_len <- b.ov_len - 1;
            true
          end
          else false
    in
    if removed then begin
      t.count <- t.count - 1;
      maybe_resize t
    end;
    removed
  end

let search t x =
  if t.nbuckets = 0 then None
  else begin
    let b = find_bucket t x in
    match scan_primary t b x with
    | Some i -> Some b.elems.(i)
    | None ->
        List.find_opt (fun y -> Counters.counting_cmp t.cmp x y = 0) b.overflow
  end

let iter_matches t x f =
  if t.nbuckets > 0 then begin
    let b = find_bucket t x in
    for i = 0 to b.count - 1 do
      if Counters.counting_cmp t.cmp x b.elems.(i) = 0 then f b.elems.(i)
    done;
    List.iter
      (fun y -> if Counters.counting_cmp t.cmp x y = 0 then f y)
      b.overflow
  end

let iter t f =
  for i = 0 to t.nbuckets - 1 do
    let b = t.buckets.(i) in
    for j = 0 to b.count - 1 do
      f b.elems.(j)
    done;
    List.iter f b.overflow
  done

let to_seq t =
  let rec from_bucket i pending () =
    match pending with
    | x :: rest -> Seq.Cons (x, from_bucket i rest)
    | [] ->
        if i >= t.nbuckets then Seq.Nil
        else from_bucket (i + 1) (bucket_items t.buckets.(i)) ()
  in
  from_bucket 0 []

let range _ ~lo:_ ~hi:_ _ =
  raise (Index_intf.Unsupported "Linear Hash: no range scans")

let iter_from _ _ _ =
  raise (Index_intf.Unsupported "Linear Hash: no ordered scans")

let storage_bytes t =
  let overflow_cells = Array.fold_left (fun acc b -> acc + b.ov_len) 0
      (Array.sub t.buckets 0 t.nbuckets)
  in
  (t.nbuckets * ((4 * t.node_size) + 8)) + (overflow_cells * 8)

let validate t =
  if t.nbuckets = 0 then if t.count = 0 then Ok () else Error "count nonzero"
  else begin
    let exception Bad of string in
    try
      let total = ref 0 in
      for i = 0 to t.nbuckets - 1 do
        let b = t.buckets.(i) in
        if b.ov_len <> List.length b.overflow then raise (Bad "ov_len stale");
        if b.ov_len > 0 && b.count < t.node_size then
          raise (Bad "overflow despite free primary slots");
        List.iter
          (fun x ->
            let h = t.hash x land max_int in
            if addr t h <> i then raise (Bad "item in wrong bucket"))
          (bucket_items b);
        total := !total + b.count + b.ov_len
      done;
      if !total <> t.count then raise (Bad "count mismatch");
      if t.next >= t.base lsl t.level then raise (Bad "split pointer range");
      Ok ()
    with Bad msg -> Error msg
  end
