(* Tests for structure-parallel solving (lib/core/parallel, lib/sep/component):
   the component split's independence, COMPONENTS agreement with the
   sequential pipeline on random formulas and on the suite, merged
   countermodels that certify, the UNSAT short-circuit, and graceful
   degeneration on formulas that refuse to split. *)

module Ast = Sepsat_suf.Ast
module Elim = Sepsat_suf.Elim
module Component = Sepsat_sep.Component
module Verdict = Sepsat_sep.Verdict
module Deadline = Sepsat_util.Deadline
module Decide = Sepsat.Decide
module Witness = Sepsat.Witness
module Certify = Sepsat_check.Certify
module Suite = Sepsat_workloads.Suite
module Random_formula = Sepsat_workloads.Random_formula

let deadline () = Deadline.after_wall 60.

let verdict_label = function
  | Verdict.Valid -> "valid"
  | Verdict.Invalid _ -> "invalid"
  | Verdict.Unknown why -> "unknown: " ^ why

let bench name =
  match Suite.find name with
  | Some b -> b
  | None -> Alcotest.fail (name ^ " missing")

let decide_bench ?bug ?(certify = false) method_ name =
  let ctx = Ast.create_ctx () in
  let formula = (bench name).Suite.build ?bug ctx in
  (formula, Decide.decide ~method_ ~deadline:(deadline ()) ~certify ctx formula)

(* -- The split itself ------------------------------------------------------ *)

let split_of name =
  let ctx = Ast.create_ctx () in
  let f = (bench name).Suite.build ctx in
  let elim = Elim.eliminate ctx f in
  Component.split ctx ~p_consts:elim.Elim.p_consts elim.Elim.formula

let test_split_batch_independent () =
  let split = split_of "batch.0" in
  Alcotest.(check int) "four units, four components" 4
    (List.length split.Component.components);
  (* components share no classes *)
  let all_ids =
    List.concat_map
      (fun (c : Component.component) -> c.Component.class_ids)
      split.Component.components
  in
  Alcotest.(check int) "class sets disjoint"
    (List.length all_ids)
    (List.length (List.sort_uniq compare all_ids));
  (* every conjunct of the negation landed somewhere *)
  let placed =
    List.fold_left
      (fun acc (c : Component.component) -> acc + c.Component.n_conjuncts)
      0 split.Component.components
  in
  Alcotest.(check int) "no conjunct dropped" split.Component.n_conjuncts placed

let test_split_connected_is_single () =
  List.iter
    (fun name ->
      let split = split_of name in
      Alcotest.(check int)
        (name ^ ": connected suite formula stays whole")
        1
        (List.length split.Component.components))
    [ "lsu.0"; "cache.2"; "pipe.1" ]

(* -- COMPONENTS ------------------------------------------------------------ *)

let test_components_agreement () =
  List.iter
    (fun name ->
      let _, mono = decide_bench Decide.Hybrid_default name in
      let _, comp = decide_bench Decide.Components name in
      Alcotest.(check string) (name ^ ": components vs hybrid")
        (verdict_label mono.Decide.verdict)
        (verdict_label comp.Decide.verdict))
    [ "pipe.2"; "cache.3"; "tv.1"; "batch.0"; "batch.2" ]

let test_components_merged_witness () =
  (* A healthy batch is invalid; the countermodel merges every unit's
     scenario and must falsify the whole formula under Certify. *)
  let f, r = decide_bench Decide.Components "batch.0" in
  match r.Decide.verdict with
  | Verdict.Invalid _ -> (
    Alcotest.(check bool) "witness surfaced" true (r.Decide.witness <> None);
    match Certify.check f r with
    | Ok (Certify.Invalid_witnessed w) ->
      Alcotest.(check bool) "merged witness falsifies" true
        (Witness.falsifies w f)
    | Ok o -> Alcotest.failf "expected witnessed invalid, got %a" Certify.pp_outcome o
    | Error e -> Alcotest.failf "certification error: %a" Certify.pp_error e)
  | v -> Alcotest.failf "expected invalid, got %s" (verdict_label v)

let test_components_shortcircuit () =
  (* The bug variant blocks one unit: a single UNSAT component decides the
     whole batch, and its DRUP proof certifies the verdict. *)
  let f, r = decide_bench ~bug:true ~certify:true Decide.Components "batch.0" in
  (match r.Decide.verdict with
  | Verdict.Valid -> ()
  | v -> Alcotest.failf "expected valid, got %s" (verdict_label v));
  Alcotest.(check (option bool)) "winning proof replayed" (Some true)
    r.Decide.certified;
  match Certify.check ~expect_proof:true f r with
  | Ok Certify.Valid_certified -> ()
  | Ok o -> Alcotest.failf "expected certified valid, got %a" Certify.pp_outcome o
  | Error e -> Alcotest.failf "certification error: %a" Certify.pp_error e

let test_components_degenerate () =
  (* Single-component formulas take the unchanged sequential path: eager
     encode stats are present and the phase profile is the eager one plus
     the split probe. *)
  let _, r = decide_bench ~certify:true Decide.Components "lsu.0" in
  Alcotest.(check string) "still valid" "valid" (verdict_label r.Decide.verdict);
  Alcotest.(check bool) "eager encode stats" true (r.Decide.encode_stats <> None);
  Alcotest.(check bool) "split phase recorded" true
    (List.mem_assoc "split" r.Decide.phase_times);
  Alcotest.(check bool) "eager sat phase" true
    (List.mem_assoc "sat" r.Decide.phase_times);
  (* ... while a real split reports the pooled solve phase instead *)
  let _, r' = decide_bench Decide.Components "batch.0" in
  Alcotest.(check bool) "pooled: no eager stats" true
    (r'.Decide.encode_stats = None);
  Alcotest.(check bool) "pooled solve phase" true
    (List.mem_assoc "solve" r'.Decide.phase_times)

(* -- Random cross-check ---------------------------------------------------- *)

let prop_parallel_agreement =
  QCheck2.Test.make
    ~name:"COMPONENTS matches the sequential verdict" ~count:200
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let ctx = Ast.create_ctx () in
      let f = Random_formula.generate Random_formula.small ctx ~seed in
      let verdict m =
        let r = Decide.decide ~method_:m ~deadline:(deadline ()) ctx f in
        match r.Decide.verdict with
        | Verdict.Unknown why ->
          Alcotest.failf "%a unknown (%s) on %s" Decide.pp_method m why
            (Ast.to_string f)
        | v -> verdict_label v
      in
      verdict Decide.Hybrid_default = verdict Decide.Components)

let () =
  Alcotest.run "parallel"
    [
      ( "split",
        [
          Alcotest.test_case "batch splits independent" `Quick
            test_split_batch_independent;
          Alcotest.test_case "connected stays single" `Quick
            test_split_connected_is_single;
        ] );
      ( "components",
        [
          Alcotest.test_case "agreement" `Slow test_components_agreement;
          Alcotest.test_case "merged witness" `Quick
            test_components_merged_witness;
          Alcotest.test_case "unsat short-circuit" `Quick
            test_components_shortcircuit;
          Alcotest.test_case "degeneration" `Quick test_components_degenerate;
        ] );
      ( "property",
        [ QCheck_alcotest.to_alcotest prop_parallel_agreement ] );
    ]
