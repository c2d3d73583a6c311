(** Grouping and aggregation over temporary lists.

    An extension beyond the paper, built directly on its §3.4 observation:
    hash-based duplicate elimination "is the dominant algorithm for
    processing projections in main memory".  Grouping is the same hash
    table — but instead of discarding a row whose key is already present,
    the row is folded into the group's aggregate state.  The applications
    motivating the paper's introduction (performance monitoring,
    program-information queries) live on such summaries.

    Results are materialized rows (group keys followed by aggregate
    values): unlike selections and joins, aggregation cannot be
    represented as tuple pointers plus a descriptor. *)

open Mmdb_storage

type spec =
  | Count  (** COUNT over whole rows *)
  | Sum of string  (** SUM(label); ints stay ints, floats stay floats *)
  | Avg of string  (** AVG(label); always a float *)
  | Min of string
  | Max of string

let spec_header = function
  | Count -> "count(*)"
  | Sum l -> Printf.sprintf "sum(%s)" l
  | Avg l -> Printf.sprintf "avg(%s)" l
  | Min l -> Printf.sprintf "min(%s)" l
  | Max l -> Printf.sprintf "max(%s)" l

(* Mutable per-group accumulator. *)
type state = {
  mutable count : int;
  mutable int_sum : int;
  mutable float_sum : float;
  mutable saw_float : bool;
  mutable min_v : Value.t option;
  mutable max_v : Value.t option;
}

let fresh_state () =
  {
    count = 0;
    int_sum = 0;
    float_sum = 0.0;
    saw_float = false;
    min_v = None;
    max_v = None;
  }

let accumulate st (v : Value.t) =
  st.count <- st.count + 1;
  (match v with
  | Value.Int n -> st.int_sum <- st.int_sum + n
  | Value.Float f ->
      st.saw_float <- true;
      st.float_sum <- st.float_sum +. f
  | _ -> ());
  (match st.min_v with
  | None -> st.min_v <- Some v
  | Some m -> if Value.compare v m < 0 then st.min_v <- Some v);
  match st.max_v with
  | None -> st.max_v <- Some v
  | Some m -> if Value.compare v m > 0 then st.max_v <- Some v

let numeric_sum st =
  if st.saw_float then Value.Float (st.float_sum +. float_of_int st.int_sum)
  else Value.Int st.int_sum

let finish spec st =
  match spec with
  | Count -> Value.Int st.count
  | Sum _ -> numeric_sum st
  | Avg _ ->
      if st.count = 0 then Value.Null
      else
        let total =
          st.float_sum +. float_of_int st.int_sum
        in
        Value.Float (total /. float_of_int st.count)
  | Min _ -> Option.value ~default:Value.Null st.min_v
  | Max _ -> Option.value ~default:Value.Null st.max_v

type result = { header : string list; rows : Value.t array list }

(* Group keys may contain tuple pointers; structural equality could chase
   reference cycles, so the table hashes and compares through Value's
   identity-aware operations. *)
module Key = struct
  type t = Value.t list

  let equal a b = List.compare Value.compare a b = 0
  let hash k = List.fold_left (fun acc v -> (acc * 31) + Value.hash v) 17 k
end

module Key_table = Hashtbl.Make (Key)

(* [group tl ~by ~aggs] groups the entries of [tl] on the listed descriptor
   fields and computes each aggregate within the groups.  An empty [by]
   produces a single whole-input group (classic aggregate query); an empty
   input with grouping keys yields no rows, and without keys yields one
   all-empty row, SQL style.

   @raise Invalid_argument on unknown field labels. *)
let group tl ~by ~aggs =
  Mmdb_util.Trace.with_span "aggregate" @@ fun () ->
  if Mmdb_util.Trace.active () then begin
    Mmdb_util.Trace.add_attr "rows_in" (string_of_int (Temp_list.length tl));
    if by <> [] then
      Mmdb_util.Trace.add_attr "by" (String.concat "," by)
  end;
  let desc = Temp_list.descriptor tl in
  let field_index label =
    match Descriptor.field_index desc label with
    | Some i -> i
    | None -> invalid_arg (Printf.sprintf "Aggregate.group: no field %S" label)
  in
  let key_fields = List.map field_index by in
  let agg_fields =
    List.map
      (fun spec ->
        match spec with
        | Count -> (spec, None)
        | Sum l | Avg l | Min l | Max l -> (spec, Some (field_index l)))
      aggs
  in
  (* group key -> (key values, one state per aggregate), insertion-ordered *)
  let table : (Value.t array * state list) Key_table.t = Key_table.create 64 in
  let order = ref [] in
  (* Fields are read through one reader taken here, uncounted; the
     dereferences are charged once below, one per field read per row,
     and the hash calls one per group. *)
  let read = Temp_list.field_reader tl in
  Temp_list.iter tl (fun entry ->
      let key_values = List.map (fun i -> read entry i) key_fields in
      let _, states =
        match Key_table.find_opt table key_values with
        | Some v -> v
        | None ->
            let v =
              (Array.of_list key_values, List.map (fun _ -> fresh_state ()) agg_fields)
            in
            Key_table.replace table key_values v;
            order := key_values :: !order;
            v
      in
      List.iter2
        (fun (_, field) st ->
          match field with
          | None -> accumulate st (Value.Int 1) (* COUNT: any value works *)
          | Some i -> accumulate st (read entry i))
        agg_fields states);
  let reads_per_row =
    List.length key_fields
    + List.length (List.filter (fun (_, field) -> field <> None) agg_fields)
  in
  Mmdb_util.Counters.bump_ptr_derefs ~n:(reads_per_row * Temp_list.length tl) ();
  Mmdb_util.Counters.bump_hash_calls ~n:(Key_table.length table) ();
  let header = by @ List.map spec_header aggs in
  let finished_rows =
    List.rev_map
      (fun key ->
        let keys, states = Key_table.find table key in
        Array.append keys
          (Array.of_list (List.map2 (fun (spec, _) st -> finish spec st) agg_fields states)))
      !order
  in
  let rows =
    if by = [] && finished_rows = [] then
      (* aggregate over an empty input: one row of empty aggregates *)
      [ Array.of_list (List.map (fun (spec, _) -> finish spec (fresh_state ())) agg_fields) ]
    else finished_rows
  in
  if Mmdb_util.Trace.active () then
    Mmdb_util.Trace.add_attr "groups" (string_of_int (List.length rows));
  { header; rows }

let pp ppf r =
  Fmt.pf ppf "@[<v>%a@," (Fmt.list ~sep:(Fmt.any " | ") Fmt.string) r.header;
  List.iter
    (fun row ->
      Fmt.pf ppf "%a@,"
        (Fmt.array ~sep:(Fmt.any " | ") Value.pp)
        row)
    r.rows;
  Fmt.pf ppf "(%d groups)@]" (List.length r.rows)
