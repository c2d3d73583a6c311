(* In-memory span recorder for the traced run.

   A span is one call into a layer's public function, made by the
   benchmark itself: name, start, end, parent span and request id.
   Nothing inside lib/ is instrumented; the spans wrap the calls the
   benchmark makes.  Spans are kept in memory and written out as JSONL
   when the run ends.

   A span's self time is its duration minus the part of its interval
   that its child spans cover (children may overlap each other, so the
   covered part is the measure of the union of their clipped
   intervals). *)

type span = {
  id : int;
  name : string;
  parent : int;  (* -1 for a root span *)
  req : int;  (* request id; spans of one request share it *)
  t0 : float;
  t1 : float;
}

type t = {
  m : Mutex.t;
  mutable spans : span list;
  mutable next_id : int;
  mutable next_req : int;
}

(* Monotonic seconds with nanosecond resolution: the benchmark's clock. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let create () = { m = Mutex.create (); spans = []; next_id = 0; next_req = 0 }

let locked tr f =
  Mutex.lock tr.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock tr.m) f

let fresh_id tr =
  locked tr (fun () ->
      let id = tr.next_id in
      tr.next_id <- id + 1;
      id)

(* A fresh request id. *)
let next_req tr =
  locked tr (fun () ->
      let r = tr.next_req in
      tr.next_req <- r + 1;
      r)

let add tr sp = locked tr (fun () -> tr.spans <- sp :: tr.spans)

(* Record a span whose interval the caller measured. *)
let record tr ?(parent = -1) ~req name ~t0 ~t1 =
  let id = fresh_id tr in
  add tr { id; name; parent; req; t0; t1 };
  id

(* Run [f id] inside a span; [f] receives the span's id so nested calls
   can name it as their parent.  The span is recorded even when [f]
   raises. *)
let with_span tr ?(parent = -1) ~req name f =
  let id = fresh_id tr in
  let t0 = now () in
  Fun.protect
    ~finally:(fun () -> add tr { id; name; parent; req; t0; t1 = now () })
    (fun () -> f id)

let spans tr = locked tr (fun () -> List.rev tr.spans)
let duration sp = sp.t1 -. sp.t0

(* Measure of the union of [intervals] clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
  in
  let rec go acc cur = function
    | [] -> ( match cur with None -> acc | Some (a, b) -> acc +. (b -. a))
    | (a, b) :: rest -> (
        match cur with
        | None -> go acc (Some (a, b)) rest
        | Some (ca, cb) ->
            if a <= cb then go acc (Some (ca, Float.max cb b)) rest
            else go (acc +. (cb -. ca)) (Some (a, b)) rest)
  in
  go 0.0 None (List.sort compare clipped)

(* Self time of every span in [all], keyed by span id. *)
let self_times (all : span list) =
  let children = Hashtbl.create 64 in
  List.iter
    (fun sp ->
      if sp.parent >= 0 then
        Hashtbl.replace children sp.parent
          ((sp.t0, sp.t1)
          :: Option.value ~default:[] (Hashtbl.find_opt children sp.parent)))
    all;
  let self = Hashtbl.create 64 in
  List.iter
    (fun sp ->
      let kids = Option.value ~default:[] (Hashtbl.find_opt children sp.id) in
      Hashtbl.replace self sp.id
        (duration sp -. covered ~lo:sp.t0 ~hi:sp.t1 kids))
    all;
  self

(* Durations (seconds) of the spans called [name]; with [~parent], only
   those whose parent span is called [parent]. *)
let durations ?parent tr name =
  let all = spans tr in
  let names = Hashtbl.create 64 in
  List.iter (fun sp -> Hashtbl.replace names sp.id sp.name) all;
  List.filter_map
    (fun sp ->
      if
        sp.name = name
        && (match parent with
           | None -> true
           | Some p -> Hashtbl.find_opt names sp.parent = Some p)
      then Some (duration sp)
      else None)
    all

(* [(name, spans, total self seconds)] per span name, sorted by name. *)
let self_by_name tr =
  let all = spans tr in
  let self = self_times all in
  let acc = Hashtbl.create 16 in
  List.iter
    (fun sp ->
      let n, tot =
        Option.value ~default:(0, 0.0) (Hashtbl.find_opt acc sp.name)
      in
      Hashtbl.replace acc sp.name (n + 1, tot +. Hashtbl.find self sp.id))
    all;
  List.sort compare
    (Hashtbl.fold (fun name (n, tot) l -> (name, n, tot) :: l) acc [])

let write_jsonl tr path =
  let oc = open_out path in
  List.iter
    (fun sp ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"parent\":%d,\"req\":%d,\"start\":%.9f,\"end\":%.9f}\n"
        sp.id sp.name sp.parent sp.req sp.t0 sp.t1)
    (spans tr);
  close_out oc
