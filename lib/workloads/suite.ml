module Ast = Sepsat_suf.Ast

type family =
  | Pipeline
  | Load_store
  | Ooo_invariant
  | Cache
  | Trans_valid
  | Device_driver
  | Batch

let family_name = function
  | Pipeline -> "pipeline"
  | Load_store -> "load-store"
  | Ooo_invariant -> "ooo-invariant"
  | Cache -> "cache"
  | Trans_valid -> "trans-valid"
  | Device_driver -> "device-driver"
  | Batch -> "batch"

type benchmark = {
  name : string;
  family : family;
  invariant_checking : bool;
  build : ?bug:bool -> Ast.ctx -> Ast.formula;
}

let pipeline i n =
  {
    name = Printf.sprintf "pipe.%d" i;
    family = Pipeline;
    invariant_checking = false;
    build =
      (fun ?bug ctx -> Pipeline.formula ?bug ctx ~n_instructions:n ~seed:(31 * i));
  }

let load_store i n =
  {
    name = Printf.sprintf "lsu.%d" i;
    family = Load_store;
    invariant_checking = false;
    build = (fun ?bug ctx -> Load_store.formula ?bug ctx ~n_ops:n);
  }

let cache i n =
  {
    name = Printf.sprintf "cache.%d" i;
    family = Cache;
    invariant_checking = false;
    build = (fun ?bug ctx -> Cache.formula ?bug ctx ~n_caches:n);
  }

let trans_valid i n =
  {
    name = Printf.sprintf "tv.%d" i;
    family = Trans_valid;
    invariant_checking = false;
    build =
      (fun ?bug ctx -> Trans_valid.formula ?bug ctx ~n_blocks:n ~seed:(17 * i));
  }

let device_driver i n =
  {
    name = Printf.sprintf "drv.%d" i;
    family = Device_driver;
    invariant_checking = false;
    build =
      (fun ?bug ctx -> Device_driver.formula ?bug ctx ~n_steps:n ~seed:(13 * i));
  }

let ooo i n =
  {
    name = Printf.sprintf "ooo.%d" i;
    family = Ooo_invariant;
    invariant_checking = true;
    build = (fun ?bug ctx -> Ooo_invariant.formula ?bug ctx ~n_entries:n);
  }

let non_invariant =
  List.concat
    [
      (* 10 pipeline bundles of growing width *)
      List.mapi pipeline [ 2; 3; 4; 5; 6; 8; 10; 12; 14; 15 ];
      (* 8 load-store queues *)
      List.mapi load_store [ 3; 5; 8; 12; 16; 22; 26; 30 ];
      (* 8 coherence protocols *)
      List.mapi cache [ 3; 4; 5; 6; 8; 10; 12; 14 ];
      (* 7 translation-validation runs *)
      List.mapi trans_valid [ 3; 6; 10; 15; 21; 28; 36 ];
      (* 6 device-driver paths *)
      List.mapi device_driver [ 6; 10; 16; 24; 34; 46 ];
    ]

let invariant_checking =
  List.mapi ooo [ 12; 14; 16; 18; 20; 22; 24; 26; 28; 30 ]

let benchmarks = non_invariant @ invariant_checking

(* Multi-unit instances beyond the paper's 49: [benchmarks] keeps the
   paper's population, [find] sees these too. *)
let batch_entry i (u, m) =
  {
    name = Printf.sprintf "batch.%d" i;
    family = Batch;
    invariant_checking = false;
    build = (fun ?bug ctx -> Batch.formula ?bug ctx ~n_units:u ~n_ops:m);
  }

let batch =
  List.mapi batch_entry [ (4, 16); (8, 16); (10, 18); (12, 20); (20, 20) ]

let sample16 =
  let pick names = List.filter (fun b -> List.mem b.name names) benchmarks in
  pick
    [
      "pipe.0"; "pipe.1"; "pipe.2";
      "lsu.0"; "lsu.1";
      "cache.2"; "cache.4"; "cache.6";
      "tv.0"; "tv.1"; "tv.2"; "tv.3"; "tv.4";
      "drv.1"; "drv.3";
      "ooo.0";
    ]

let find name = List.find_opt (fun b -> b.name = name) (benchmarks @ batch)
