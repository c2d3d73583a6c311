(* Seeded input generation.  Every workload input is a function of the
   seed alone, and the answers the output checks expect are computed
   here from the generated arrays, independently of the database under
   test. *)

open Mmdb_util
open Mmdb_storage
open Mmdb_core

(* Zipf(s) over ranks [0, n): normalized cumulative weights. *)
let zipf_cdf ~n ~s =
  let c = Array.make n 0.0 in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. (1.0 /. Float.pow (float_of_int (i + 1)) s);
    c.(i) <- !acc
  done;
  let total = !acc in
  Array.map (fun x -> x /. total) c

(* A rank drawn from [zipf_cdf] by binary search. *)
let zipf_draw rng cdf =
  let u = Rng.float rng 1.0 in
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo

(* An all-int table whose first column is the primary key. *)
let create_table db ~name ~cols ~rows =
  let schema = Schema.make ~name (List.map (fun c -> Schema.col c) cols) in
  match
    Db.create_relation ~expected:rows db ~schema ~primary_key:(List.hd cols)
  with
  | Ok _ -> ()
  | Error m -> failwith ("create " ^ name ^ ": " ^ m)

let insert_row db ~rel values =
  match Db.insert db ~rel values with
  | Ok _ -> ()
  | Error m -> failwith ("insert into " ^ rel ^ ": " ^ m)

(* --- kv ------------------------------------------------------------------- *)

let kv_rows = 10_000

(* The value stored under key [k]: reads check V = kv_value K. *)
let kv_value k = ((k * 7919) + 13) mod 1_000_003

(* KV(K int PRIMARY KEY, V int) holding keys [0, rows). *)
let kv_db ~rows =
  let db = Db.create () in
  create_table db ~name:"KV" ~cols:[ "K"; "V" ] ~rows;
  for k = 0 to rows - 1 do
    insert_row db ~rel:"KV" [| Value.Int k; Value.Int (kv_value k) |]
  done;
  db

(* --- olap ----------------------------------------------------------------- *)

(* 100k rather than 300k fact rows: at 300k, separate runs of one seed
   differed by 30% in sort-merge time; see NOTES.md. *)
let fact_rows = 100_000
let dim_rows = 30_000
let groups = 100

(* The dimension payload stored under key [k]. *)
let dim_w k = ((k * 31) + 7) mod 10_007

(* A dimension table [name](K, W) holding keys [0, rows). *)
let add_dim db ~name ~rows =
  create_table db ~name ~cols:[ "K"; "W" ] ~rows;
  for k = 0 to rows - 1 do
    insert_row db ~rel:name [| Value.Int k; Value.Int (dim_w k) |]
  done

type olap = {
  n_fact : int;
  n_dim : int;
  f : int array;  (* A.F of fact row i (A.K = i): a B key, Zipf-skewed *)
  g : int array;  (* A.G of fact row i, uniform over [0, groups) *)
  group_count : int array;
  group_sum_f : int array;
  group_sum_k : int array;
  join_w_sum : int;  (* sum of B.W over A join B *)
  distinct_groups : int;
}

let olap_data ~seed ~n_fact ~n_dim =
  let rng = Rng.create ~seed () in
  (* the Zipf head lands on random dimension keys, not on the smallest *)
  let perm = Array.init n_dim Fun.id in
  Rng.shuffle rng perm;
  let cdf = zipf_cdf ~n:n_dim ~s:0.99 in
  let f = Array.init n_fact (fun _ -> perm.(zipf_draw rng cdf)) in
  let g = Array.init n_fact (fun _ -> Rng.int rng groups) in
  let group_count = Array.make groups 0 in
  let group_sum_f = Array.make groups 0 in
  let group_sum_k = Array.make groups 0 in
  let join_w_sum = ref 0 in
  for i = 0 to n_fact - 1 do
    let gi = g.(i) in
    group_count.(gi) <- group_count.(gi) + 1;
    group_sum_f.(gi) <- group_sum_f.(gi) + f.(i);
    group_sum_k.(gi) <- group_sum_k.(gi) + i;
    join_w_sum := !join_w_sum + dim_w f.(i)
  done;
  {
    n_fact;
    n_dim;
    f;
    g;
    group_count;
    group_sum_f;
    group_sum_k;
    join_w_sum = !join_w_sum;
    distinct_groups =
      Array.fold_left (fun n c -> if c > 0 then n + 1 else n) 0 group_count;
  }

(* Fact A(K, F, G) and dimension B(K, W), both keyed on K. *)
let olap_db d =
  let db = Db.create () in
  add_dim db ~name:"B" ~rows:d.n_dim;
  create_table db ~name:"A" ~cols:[ "K"; "F"; "G" ] ~rows:d.n_fact;
  for i = 0 to d.n_fact - 1 do
    insert_row db ~rel:"A" [| Value.Int i; Value.Int d.f.(i); Value.Int d.g.(i) |]
  done;
  db
