(* Bechamel micro-benchmarks: per-operation costs of the headline index
   operations (one Test.make per operation).  These complement the sweep
   experiments with statistically sound per-op estimates. *)

open Bechamel
open Toolkit

let n = 30_000

let prepared_keys () =
  let rng = Mmdb_util.Rng.create ~seed:42 () in
  let keys = Array.init n (fun i -> (i * 7) + 1) in
  Mmdb_util.Rng.shuffle rng keys;
  keys

let make_ttree keys =
  let t = Mmdb_index.Ttree.create ~cmp:compare ~hash:Hashtbl.hash () in
  Array.iter (fun k -> ignore (Mmdb_index.Ttree.insert t k)) keys;
  t

let make_avl keys =
  let t = Mmdb_index.Avl_tree.create ~cmp:compare ~hash:Hashtbl.hash () in
  Array.iter (fun k -> ignore (Mmdb_index.Avl_tree.insert t k)) keys;
  t

let make_chained keys =
  let t =
    Mmdb_index.Chained_hash.create ~expected:n ~cmp:compare ~hash:Hashtbl.hash
      ()
  in
  Array.iter (fun k -> ignore (Mmdb_index.Chained_hash.insert t k)) keys;
  t

let make_mlh keys =
  let t =
    Mmdb_index.Mod_linear_hash.create ~cmp:compare ~hash:Hashtbl.hash ()
  in
  Array.iter (fun k -> ignore (Mmdb_index.Mod_linear_hash.insert t k)) keys;
  t

(* Whole-operator probes for the batch ablation: one staged run = one
   full scan/join at a reduced cardinality, with the batch size set
   inside the staged closure (a ref write, noise-level next to the µs
   operator body). *)
let scan_n = 6_000
let join_n = 2_000

let batch_ops () =
  let rng = Mmdb_util.Rng.create ~seed:77 () in
  let col k = Array.init k (fun _ -> Mmdb_util.Rng.int rng 1_000_000_000) in
  let rel_scan = Mmdb_core.Workload.load ~name:"MicroScan" (col scan_n) in
  let rel_o = Mmdb_core.Workload.load ~name:"MicroJoinO" (col join_n) in
  let rel_i = Mmdb_core.Workload.load ~name:"MicroJoinI" (col join_n) in
  let scan ~size () =
    Mmdb_storage.Batch.set_size size;
    ignore
      (Mmdb_core.Select.run rel_scan ~path:Mmdb_core.Select.Sequential_scan
         ~predicates:
           [
             Mmdb_core.Select.Between
               ( Mmdb_core.Workload.jcol,
                 Mmdb_storage.Value.Int 0,
                 Mmdb_storage.Value.Int 100_000_000 );
           ])
  in
  let join ~size () =
    Mmdb_storage.Batch.set_size size;
    ignore
      (Mmdb_core.Join.hash_join
         ~outer:{ Mmdb_core.Join.rel = rel_o; col = Mmdb_core.Workload.jcol }
         ~inner:{ Mmdb_core.Join.rel = rel_i; col = Mmdb_core.Workload.jcol }
         ())
  in
  [
    Test.make ~name:"scan-select batch 1 (6k)" (Staged.stage (scan ~size:1));
    Test.make ~name:"scan-select batch 256 (6k)" (Staged.stage (scan ~size:256));
    Test.make ~name:"hash join batch 1 (2k)" (Staged.stage (join ~size:1));
    Test.make ~name:"hash join batch 256 (2k)" (Staged.stage (join ~size:256));
  ]

let tests () =
  let keys = prepared_keys () in
  let ttree = make_ttree keys in
  let avl = make_avl keys in
  let chained = make_chained keys in
  let mlh = make_mlh keys in
  let cursor = ref 0 in
  let next () =
    let k = keys.(!cursor) in
    cursor := (!cursor + 1) mod n;
    k
  in
  batch_ops ()
  @ [
    Test.make ~name:"T Tree search (30k)"
      (Staged.stage (fun () -> ignore (Mmdb_index.Ttree.search ttree (next ()))));
    Test.make ~name:"AVL search (30k)"
      (Staged.stage (fun () -> ignore (Mmdb_index.Avl_tree.search avl (next ()))));
    Test.make ~name:"Chained Bucket search (30k)"
      (Staged.stage (fun () ->
           ignore (Mmdb_index.Chained_hash.search chained (next ()))));
    Test.make ~name:"Mod Linear Hash search (30k)"
      (Staged.stage (fun () ->
           ignore (Mmdb_index.Mod_linear_hash.search mlh (next ()))));
    Test.make ~name:"T Tree delete+insert (30k)"
      (Staged.stage (fun () ->
           let k = next () in
           ignore (Mmdb_index.Ttree.delete ttree k);
           ignore (Mmdb_index.Ttree.insert ttree k)));
  ]

let run bcfg =
  Bench_util.header "Micro — Bechamel per-operation estimates (ns/op)";
  let was = !Mmdb_util.Counters.enabled in
  Mmdb_util.Counters.enabled := false;
  (* the batch-ablation probes flip the global knob per staged run *)
  let batch0 = Mmdb_storage.Batch.size () in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  let grouped = Test.make_grouped ~name:"micro" ~fmt:"%s %s" (tests ()) in
  let raw = Benchmark.all cfg instances grouped in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw) instances
  in
  let merged = Analyze.merge ols instances results in
  Hashtbl.iter
    (fun _measure by_test ->
      let rows =
        Hashtbl.fold
          (fun name ols_result acc ->
            let est =
              match Analyze.OLS.estimates ols_result with
              | Some (e :: _) -> Some e
              | _ -> None
            in
            (name, est) :: acc)
          by_test []
        |> List.sort compare
      in
      List.iter
        (fun (name, est) ->
          match est with
          | Some e ->
              Bench_util.emit bcfg ~exp:"micro"
                [ ("op", `Str name); ("ns_per_op", `Float e) ]
          | None -> ())
        rows;
      Bench_util.table ~columns:[ "operation"; "ns/op" ]
        (List.map
           (fun (name, est) ->
             [
               name;
               (match est with
               | Some e -> Printf.sprintf "%.1f" e
               | None -> "n/a");
             ])
           rows))
    merged;
  Mmdb_storage.Batch.set_size batch0;
  Mmdb_util.Counters.enabled := was
