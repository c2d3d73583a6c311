(** All eight index structures of the paper's study (§3.2.2), packed as
    first-class modules so tests and benchmarks can sweep over them. *)

open Index_intf

let all : packed list =
  [
    Pack (module Array_index);
    Pack (module Avl_tree);
    Pack (module Btree);
    Pack (module Ttree);
    Pack (module Chained_hash);
    Pack (module Extendible_hash);
    Pack (module Linear_hash);
    Pack (module Mod_linear_hash);
  ]

let ordered =
  List.filter (fun (Pack (module I)) -> I.kind = Ordered) all

let hashed = List.filter (fun (Pack (module I)) -> I.kind = Hash) all

(* Structures outside the paper's eight, kept out of [all] so the paper's
   sweeps stay faithful: the B+ Tree exists to re-measure footnote 3. *)
let extras : packed list = [ Pack (module Btree_plus) ]

let by_name name =
  List.find_opt (fun (Pack (module I)) -> I.name = name) (all @ extras)
