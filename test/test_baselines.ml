(* Tests for the SVC-style and lazy (CVC-style) baseline procedures. *)

module Ast = Sepsat_suf.Ast
module Parse = Sepsat_suf.Parse
module Elim = Sepsat_suf.Elim
module Svc = Sepsat_baselines.Svc
module Lazy_smt = Sepsat_baselines.Lazy_smt
module Verdict = Sepsat_sep.Verdict
module Brute = Sepsat_sep.Brute
module Interp = Sepsat_suf.Interp
module Deadline = Sepsat_util.Deadline

let sep_formula ctx text =
  (Elim.eliminate ctx (Parse.formula ctx text)).Elim.formula

let cases_valid =
  [
    "(= x x)";
    "(< x (succ x))";
    "(or (< x y) (>= x y))";
    "(=> (and (< x y) (< y z)) (< x z))";
    "(=> (and (= a b) (= b c)) (= a c))";
    "(=> (= a b) (= (f a) (f b)))";
    "(not (and (>= x y) (and (>= y z) (>= z (succ x)))))";
    "(or b (not b))";
    "(=> (and (P u) (= u v)) (P v))";
  ]

let cases_invalid =
  [
    "(= x y)";
    "(< x y)";
    "(=> (= (f a) (f b)) (= a b))";
    "(=> (< x z) (< x y))";
    "(and b (not c))";
    "(= (+ x 1) (+ y 1))";
  ]

let check_procedure name decide =
  List.iter
    (fun text ->
      let ctx = Ast.create_ctx () in
      let verdict, _ = decide ctx (sep_formula ctx text) in
      match verdict with
      | Verdict.Valid -> ()
      | Verdict.Invalid _ | Verdict.Unknown _ ->
        Alcotest.failf "%s: %s should be valid" name text)
    cases_valid;
  List.iter
    (fun text ->
      let ctx = Ast.create_ctx () in
      let f = sep_formula ctx text in
      let verdict, _ = decide ctx f in
      match verdict with
      | Verdict.Invalid assignment ->
        (* countermodel replay on the decided formula instance *)
        let i = Brute.interp_of_assignment assignment in
        if Interp.eval i f then
          Alcotest.failf "%s: countermodel of %s does not falsify" name text
      | Verdict.Valid | Verdict.Unknown _ ->
        Alcotest.failf "%s: %s should be invalid" name text)
    cases_invalid

let test_svc () = check_procedure "svc" (fun ctx f -> Svc.decide ctx f)

(* Each lazy check also runs with the SAT core's simplification on: a theory
   lemma added between solves must restore any predicate variable the
   simplifier eliminated. *)
let test_lazy () =
  List.iter
    (fun simplify ->
      check_procedure
        (Printf.sprintf "lazy simplify=%b" simplify)
        (fun ctx f -> Lazy_smt.decide ~simplify ctx f))
    [ false; true ]

let test_svc_stats () =
  let ctx = Ast.create_ctx () in
  let f = sep_formula ctx "(=> (and (< x y) (< y z)) (< x z))" in
  let _, stats = Svc.decide ctx f in
  Alcotest.(check bool) "splits counted" true (stats.Svc.splits > 0);
  Alcotest.(check bool) "theory checks counted" true (stats.Svc.theory_checks > 0)

let test_lazy_iterations () =
  (* transitivity needs at least one refinement round here *)
  List.iter
    (fun simplify ->
      let ctx = Ast.create_ctx () in
      let f = sep_formula ctx "(=> (and (< x y) (< y z)) (< x z))" in
      let verdict, stats = Lazy_smt.decide ~simplify ctx f in
      Alcotest.(check bool) "valid" true (verdict = Verdict.Valid);
      Alcotest.(check bool) "iterated" true (stats.Lazy_smt.iterations >= 2);
      Alcotest.(check bool) "conflict clauses added" true
        (stats.Lazy_smt.conflict_clauses >= 1))
    [ false; true ]

let test_svc_timeout () =
  let ctx = Ast.create_ctx () in
  let f =
    (Elim.eliminate ctx
       (Sepsat_workloads.Pipeline.formula ctx ~n_instructions:10 ~seed:1))
      .Elim.formula
  in
  match Svc.decide ~deadline:(Deadline.after 0.2) ctx f with
  | Verdict.Unknown _, _ -> ()
  | (Verdict.Valid | Verdict.Invalid _), _ ->
    (* finishing within the budget is fine too, but unexpected at size 10 *)
    Alcotest.fail "expected an SVC timeout on a large disjunctive formula"

let () =
  Alcotest.run "baselines"
    [
      ( "svc",
        [
          Alcotest.test_case "validity" `Quick test_svc;
          Alcotest.test_case "stats" `Quick test_svc_stats;
          Alcotest.test_case "timeout" `Quick test_svc_timeout;
        ] );
      ( "lazy",
        [
          Alcotest.test_case "validity" `Quick test_lazy;
          Alcotest.test_case "refinement iterations" `Quick test_lazy_iterations;
        ] );
    ]
