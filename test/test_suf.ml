(* Tests for the SUF front end: AST, parser, interpretation semantics,
   positive-equality analysis and function elimination. *)

module Ast = Sepsat_suf.Ast
module Parse = Sepsat_suf.Parse
module Interp = Sepsat_suf.Interp
module Polarity = Sepsat_suf.Polarity
module Elim = Sepsat_suf.Elim
module Sset = Sepsat_util.Sset
module Random_formula = Sepsat_workloads.Random_formula

let test_ast_smart_constructors () =
  let ctx = Ast.create_ctx () in
  let x = Ast.const ctx "x" in
  Alcotest.(check bool) "const shared" true (x == Ast.const ctx "x");
  Alcotest.(check bool) "eq refl" true (Ast.eq ctx x x == Ast.tru ctx);
  Alcotest.(check bool) "lt irrefl" true (Ast.lt ctx x x == Ast.fls ctx);
  Alcotest.(check bool) "succ pred cancel" true
    (Ast.succ ctx (Ast.pred ctx x) == x);
  Alcotest.(check bool) "pred succ cancel" true
    (Ast.pred ctx (Ast.succ ctx x) == x);
  Alcotest.(check bool) "plus 0" true (Ast.plus ctx x 0 == x);
  Alcotest.(check bool) "plus assoc" true
    (Ast.plus ctx (Ast.plus ctx x 2) (-2) == x);
  let y = Ast.const ctx "y" in
  Alcotest.(check bool) "eq symmetric sharing" true
    (Ast.eq ctx x y == Ast.eq ctx y x);
  let b = Ast.bconst ctx "b" in
  Alcotest.(check bool) "ite same branches" true (Ast.tite ctx b x x == x);
  Alcotest.(check bool) "fite const guard" true
    (Ast.fite ctx (Ast.tru ctx) b (Ast.fls ctx) == b)

let test_arity_discipline () =
  let ctx = Ast.create_ctx () in
  let x = Ast.const ctx "x" in
  ignore (Ast.app ctx "f" [ x ]);
  Alcotest.(check bool) "arity conflict" true
    (match Ast.app ctx "f" [ x; x ] with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "kind conflict" true
    (match Ast.papp ctx "f" [ x ] with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "const as predicate" true
    (match Ast.bconst ctx "x" with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_queries () =
  let ctx = Ast.create_ctx () in
  let f =
    Parse.formula ctx "(and (= (f x) (g x y)) (or (P (succ x)) (< y z)))"
  in
  Alcotest.(check (list (pair string int)))
    "functions"
    [ ("f", 1); ("g", 2); ("x", 0); ("y", 0); ("z", 0) ]
    (Ast.functions f);
  Alcotest.(check (list (pair string int)))
    "predicates" [ ("P", 1) ] (Ast.predicates f);
  Alcotest.(check int) "atoms" 2 (List.length (Ast.atoms f));
  Alcotest.(check bool) "has applications" true (Ast.has_applications f);
  let g = Parse.formula ctx "(= x y)" in
  Alcotest.(check bool) "no applications" false (Ast.has_applications g)

let test_fresh_name () =
  let ctx = Ast.create_ctx () in
  ignore (Ast.const ctx "v");
  let n1 = Ast.fresh_name ctx "v" in
  Alcotest.(check string) "suffixed" "v!1" n1;
  ignore (Ast.const ctx n1);
  Alcotest.(check string) "next" "v!2" (Ast.fresh_name ctx "v");
  Alcotest.(check string) "unused stem" "w" (Ast.fresh_name ctx "w")

let test_parse_errors () =
  let expect_error text =
    let ctx = Ast.create_ctx () in
    match Parse.formula ctx text with
    | exception Parse.Error _ -> true
    | _ -> false
  in
  List.iter
    (fun text ->
      Alcotest.(check bool)
        (Printf.sprintf "reject %S" text)
        true (expect_error text))
    [
      "";
      "(and x)";
      "(= x)";
      "(not)";
      "(< x y";
      "(= x y))";
      "(= x 3)";
      "(succ x)";
      "(= (and x y) z)";
      "(P)";
    ]

let test_parse_comments () =
  let ctx = Ast.create_ctx () in
  let f = Parse.formula ctx "; a comment\n(= x ; mid\n y)\n" in
  Alcotest.(check bool) "parsed" true
    (f == Ast.eq ctx (Ast.const ctx "x") (Ast.const ctx "y"))

let prop_roundtrip =
  QCheck2.Test.make ~name:"print/parse roundtrip (semantic)" ~count:200
    QCheck2.Gen.(pair (int_bound 100000) (int_bound 1000))
    (fun (seed, iseed) ->
      let ctx = Ast.create_ctx () in
      let f = Random_formula.generate Random_formula.default ctx ~seed in
      (* equality operands are canonicalized by node id, so the reparse may
         be syntactically reordered; it must stay semantically identical and
         size-preserving *)
      let ctx2 = Ast.create_ctx () in
      let g = Parse.formula ctx2 (Ast.to_string f) in
      let same_value k =
        let i = Interp.random ~seed:(iseed + k) ~range:5 in
        Interp.eval i f = Interp.eval i g
      in
      Ast.size f = Ast.size g
      && List.for_all same_value [ 0; 1; 2; 3; 4; 5; 6; 7 ])

(* Fuzz: the parser must either succeed or raise Parse.Error — never crash
   with anything else. *)
let prop_parser_fuzz =
  let gen =
    QCheck2.Gen.(
      string_size ~gen:(oneofl
        [ '('; ')'; ' '; '\n'; 'x'; 'y'; '='; '<'; '+'; '-'; '1'; 'f'; ';'; '>' ])
        (int_bound 60))
  in
  QCheck2.Test.make ~name:"parser fuzz: Parse.Error or success" ~count:500 gen
    (fun text ->
      let ctx = Ast.create_ctx () in
      match Parse.formula ctx text with
      | _ -> true
      | exception Parse.Error _ -> true
      | exception _ -> false)

let test_interp () =
  let ctx = Ast.create_ctx () in
  let x = Ast.const ctx "x" in
  let i = Interp.random ~seed:7 ~range:10 in
  Alcotest.(check bool)
    "x < succ x" true
    (Interp.eval i (Ast.lt ctx x (Ast.succ ctx x)));
  Alcotest.(check int) "succ"
    (Interp.eval_term i x + 1)
    (Interp.eval_term i (Ast.succ ctx x));
  Alcotest.(check int) "pred"
    (Interp.eval_term i x - 1)
    (Interp.eval_term i (Ast.pred ctx x));
  let j = Interp.override_const i "x" 42 in
  Alcotest.(check int) "override" 42 (Interp.eval_term j x);
  let fx = Ast.app ctx "f" [ x ] in
  Alcotest.(check int) "functional consistency" (Interp.eval_term j fx)
    (Interp.eval_term j fx)

let test_polarity_cases () =
  let check name text expected_p =
    let ctx = Ast.create_ctx () in
    let f = Parse.formula ctx text in
    let c = Polarity.classify f in
    Alcotest.(check (list string))
      name expected_p
      (Sset.elements c.Polarity.p_funcs)
  in
  check "positive equality" "(= (f x) (g y))" [ "f"; "g" ];
  check "negated equality" "(not (= (f x) y))" [];
  check "inequality" "(< (f x) y)" [];
  check "antecedent negative" "(=> (= a b) (= (f a) (f b)))" [ "f" ];
  check "ite guard" "(= (ite (= a b) x y) (f z))" [ "f"; "x"; "y" ];
  (* y is only compared positively, so it is p too *)
  check "nested application" "(= (f (g x)) y)" [ "f"; "y" ]

(* Key elimination property: extending an interpretation to the fresh
   constants by the definition order makes F_sep evaluate exactly like
   F_suf. *)
let extend_interp interp (defs : Elim.def list) =
  List.fold_left
    (fun interp (d : Elim.def) ->
      if d.Elim.is_predicate then begin
        let value =
          interp.Interp.pred d.Elim.symbol
            (List.map (Interp.eval_term interp) d.Elim.args)
        in
        {
          interp with
          Interp.pred =
            (fun name args ->
              if String.equal name d.Elim.fresh && args = [] then value
              else interp.Interp.pred name args);
        }
      end
      else begin
        let value =
          interp.Interp.func d.Elim.symbol
            (List.map (Interp.eval_term interp) d.Elim.args)
        in
        Interp.override_const interp d.Elim.fresh value
      end)
    interp defs

let prop_elim_semantics name eliminate =
  QCheck2.Test.make ~name ~count:150
    QCheck2.Gen.(pair (int_bound 100000) (int_bound 1000))
    (fun (seed, iseed) ->
      let ctx = Ast.create_ctx () in
      let f = Random_formula.generate Random_formula.default ctx ~seed in
      let result = eliminate ctx f in
      if Ast.has_applications result.Elim.formula then false
      else begin
        let interp = Interp.random ~seed:iseed ~range:6 in
        let extended = extend_interp interp result.Elim.defs in
        Interp.eval interp f = Interp.eval extended result.Elim.formula
      end)

let test_elim_p_consts () =
  let ctx = Ast.create_ctx () in
  let f = Parse.formula ctx "(= (f x) (g y))" in
  let r = Elim.eliminate ctx f in
  Alcotest.(check bool)
    "some p constant from f" true
    (Sset.exists (fun n -> n = "f" || String.length n > 1 && n.[0] = 'f')
       r.Elim.p_consts);
  Alcotest.(check bool) "x not p" false (Sset.mem "x" r.Elim.p_consts)

let test_elim_functional_consistency () =
  let ctx = Ast.create_ctx () in
  let f = Parse.formula ctx "(=> (= a b) (= (f a) (f b)))" in
  let r = Elim.eliminate ctx f in
  Alcotest.(check bool)
    "no applications" false
    (Ast.has_applications r.Elim.formula);
  Alcotest.(check bool) "valid via brute" true (Sepsat_sep.Brute.valid r.Elim.formula)

let test_ackermann_agreement () =
  List.iter
    (fun text ->
      let ctx1 = Ast.create_ctx () in
      let v1 =
        Sepsat_sep.Brute.valid
          (Elim.eliminate ctx1 (Parse.formula ctx1 text)).Elim.formula
      in
      let ctx2 = Ast.create_ctx () in
      let v2 =
        Sepsat_sep.Brute.valid
          (Elim.ackermannize ctx2 (Parse.formula ctx2 text)).Elim.formula
      in
      Alcotest.(check bool) text v1 v2)
    [
      "(=> (= a b) (= (f a) (f b)))";
      "(=> (= (f a) (f b)) (= a b))";
      "(= (f (f a)) (f a))";
      "(=> (and (= a b) (= b c)) (= (f a) (f c)))";
      "(=> (P a) (P a))";
      "(=> (and (= a b) (P a)) (P b))";
    ]

module Smtlib = Sepsat_suf.Smtlib
module Decide = Sepsat.Decide
module Verdict = Sepsat_sep.Verdict

(* SMT-LIB scripts: answer check-sat through the decision procedure. *)
let smt_answer text =
  let ctx = Ast.create_ctx () in
  match Smtlib.script ctx text with
  | script -> (
    let goal = Smtlib.goal ctx script in
    match (Decide.decide ctx goal).Decide.verdict with
    | Verdict.Valid -> "unsat"
    | Verdict.Invalid _ -> "sat"
    | Verdict.Unknown w -> "unknown: " ^ w)
  | exception Smtlib.Error _ -> "error"

let test_smtlib_scripts () =
  List.iter
    (fun (text, want) ->
      Alcotest.(check string) (String.sub text 0 (min 40 (String.length text)))
        want (smt_answer text))
    [
      ( "(set-logic QF_UFIDL)(declare-fun x () Int)(declare-fun y () Int)\n\
         (assert (< x y))(assert (< y x))(check-sat)",
        "unsat" );
      ( "(declare-const x Int)(declare-const y Int)\n\
         (assert (<= (- x y) 3))(assert (>= (- x y) 2))(check-sat)",
        "sat" );
      ( "(declare-fun f (Int) Int)(declare-const a Int)(declare-const b Int)\n\
         (assert (= a b))(assert (distinct (f a) (f b)))(check-sat)",
        "unsat" );
      ("(declare-const p Bool)(assert (= p (not p)))(check-sat)", "unsat");
      ( "(declare-const x Int)(assert (let ((z (+ x 1))) (< x z)))(check-sat)",
        "sat" );
      ( "(declare-fun P (Int) Bool)(declare-const u Int)(declare-const v Int)\n\
         (assert (P u))(assert (not (P v)))(assert (= u v))(check-sat)",
        "unsat" );
      ( "(declare-const a Int)(declare-const b Int)(declare-const c Int)\n\
         (assert (distinct a b c))(assert (< a b))(assert (< b c))(check-sat)",
        "sat" );
      ( "(declare-const x Int)(declare-const y Int)\n\
         (assert (xor (< x y) (<= x y)))(check-sat)",
        "sat" );
      ("(declare-const x Int)(assert (< x 3))(check-sat)", "error");
      ("(push 1)", "error");
      ("(define-fun f () Int 3)", "error");
      ("(declare-const x Real)", "error");
    ]

(* Nesting past [Sexp.max_depth] is refused by the reader, before the token
   list or the recursive descent grows with it, through both front ends. *)
module Sexp = Sepsat_suf.Sexp

let nested_not depth =
  String.concat "" (List.init (depth - 1) (fun _ -> "(not "))
  ^ "(= x x)"
  ^ String.make (depth - 1) ')'

let test_nesting_depth_bound () =
  let n = Sexp.max_depth in
  let too_deep = Printf.sprintf "nesting deeper than %d" n in
  let suf text =
    match Parse.formula (Ast.create_ctx ()) text with
    | _ -> "ok"
    | exception Parse.Error msg -> msg
  in
  let smt depth =
    let text =
      "(declare-const x Int)(assert " ^ nested_not (depth - 1) ^ ")(check-sat)"
    in
    match Smtlib.script (Ast.create_ctx ()) text with
    | _ -> "ok"
    | exception Smtlib.Error msg -> msg
  in
  Alcotest.(check string) "depth max_depth parses" "ok" (suf (nested_not n));
  Alcotest.(check string) "one level more is refused" too_deep
    (suf (nested_not (n + 1)));
  Alcotest.(check string) "the reader raises Sexp.Error" too_deep
    (match Sexp.parse_all (nested_not (n + 1)) with
    | _ -> "ok"
    | exception Sexp.Error msg -> msg);
  Alcotest.(check string) "3,000,000 open parens are refused" too_deep
    (suf (String.make 3_000_000 '('));
  Alcotest.(check string) "smt-lib at max_depth parses" "ok" (smt n);
  Alcotest.(check string) "smt-lib one level more is refused" too_deep
    (smt (n + 1))

let test_smtlib_structure () =
  let ctx = Ast.create_ctx () in
  let s =
    Smtlib.script ctx
      "(set-logic QF_IDL)(declare-const x Int)(assert (< x (+ x 1)))\n\
       (assert true)(check-sat)(exit)"
  in
  Alcotest.(check (option string)) "logic" (Some "QF_IDL") s.Smtlib.logic;
  Alcotest.(check int) "assertions" 2 (List.length s.Smtlib.assertions);
  Alcotest.(check bool) "check requested" true s.Smtlib.requested_check

(* print ∘ parse round trips: re-parsing a printed script into the same
   context yields the identical hash-consed formula, and printing again is a
   textual fixpoint. *)
let roundtrip_check name ctx f =
  let text = Smtlib.script_to_string [ f ] in
  match Smtlib.script ctx text with
  | exception Smtlib.Error msg ->
    Alcotest.failf "%s: printed script does not re-parse: %s" name msg
  | s -> (
    match s.Smtlib.assertions with
    | [ f' ] ->
      if not (f' == f) then
        Alcotest.failf "%s: reparse is not the identical formula" name;
      Alcotest.(check string)
        (name ^ " print fixpoint") text
        (Smtlib.script_to_string s.Smtlib.assertions)
    | other ->
      Alcotest.failf "%s: expected 1 assertion, got %d" name
        (List.length other))

let test_smtlib_roundtrip_suite () =
  List.iter
    (fun (b : Sepsat_workloads.Suite.benchmark) ->
      let ctx = Ast.create_ctx () in
      roundtrip_check b.Sepsat_workloads.Suite.name ctx
        (b.Sepsat_workloads.Suite.build ctx))
    Sepsat_workloads.Suite.benchmarks

let prop_smtlib_roundtrip_random =
  QCheck2.Test.make ~name:"smtlib roundtrip on random formulas" ~count:200
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let ctx = Ast.create_ctx () in
      let f = Random_formula.generate Random_formula.default ctx ~seed in
      roundtrip_check "random" ctx f;
      true)

(* ------------------------------------------------------------------ *)
(* Structural digests                                                  *)

let test_digest_distinguishes () =
  let ctx = Ast.create_ctx () in
  let f = Parse.formula ctx "(= (f x) (f y))" in
  let g = Parse.formula ctx "(= (f x) (f z))" in
  let h = Parse.formula ctx "(= (f y) (f x))" in
  Alcotest.(check bool)
    "distinct formulas, distinct digests" true
    (Ast.digest f <> Ast.digest g);
  (* eq is symmetric: hash-consing already identifies these, and the digest
     must agree with that identification *)
  Alcotest.(check string) "symmetric eq" (Ast.digest f) (Ast.digest h);
  Alcotest.(check bool) "hex, 32 chars" true (String.length (Ast.digest f) = 32)

(* The And/Or/Eq smart constructors canonicalize operands by hash-cons node
   id, which depends on construction order within a context. The digest must
   not: the same formula built in contexts with different allocation orders
   digests identically. *)
let test_digest_order_independent () =
  let text = "(and (or (P x) (= y z)) (= (f x) (succ y)))" in
  let ctx1 = Ast.create_ctx () in
  (* warm ctx2 so every shared node gets different ids than in ctx1 *)
  let ctx2 = Ast.create_ctx () in
  ignore (Parse.formula ctx2 "(= (g z) (succ (f (pred y))))");
  ignore (Parse.formula ctx2 "(or (P q) (Q x))");
  let f1 = Parse.formula ctx1 text in
  let f2 = Parse.formula ctx2 text in
  Alcotest.(check string) "same digest across contexts" (Ast.digest f1)
    (Ast.digest f2)

let prop_digest_roundtrip =
  QCheck2.Test.make
    ~name:"digest survives print/parse and smtlib round trips" ~count:200
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let ctx = Ast.create_ctx () in
      let f = Random_formula.generate Random_formula.default ctx ~seed in
      let d = Ast.digest f in
      (* native syntax into a fresh context *)
      let ctx2 = Ast.create_ctx () in
      let g = Parse.formula ctx2 (Ast.to_string f) in
      (* smtlib print/re-parse into yet another fresh context *)
      let text = Smtlib.script_to_string [ f ] in
      let ctx3 = Ast.create_ctx () in
      let s = Smtlib.script ctx3 text in
      let h =
        match s.Smtlib.assertions with [ h ] -> h | _ -> assert false
      in
      d = Ast.digest g && d = Ast.digest h)

let () =
  Alcotest.run "suf"
    [
      ( "ast",
        [
          Alcotest.test_case "smart constructors" `Quick
            test_ast_smart_constructors;
          Alcotest.test_case "arity discipline" `Quick test_arity_discipline;
          Alcotest.test_case "queries" `Quick test_queries;
          Alcotest.test_case "fresh names" `Quick test_fresh_name;
        ] );
      ( "parse",
        [
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "comments" `Quick test_parse_comments;
          QCheck_alcotest.to_alcotest prop_roundtrip;
          QCheck_alcotest.to_alcotest prop_parser_fuzz;
        ] );
      ("interp", [ Alcotest.test_case "basics" `Quick test_interp ]);
      ( "polarity",
        [ Alcotest.test_case "classification" `Quick test_polarity_cases ] );
      ( "smtlib",
        [
          Alcotest.test_case "scripts" `Quick test_smtlib_scripts;
          Alcotest.test_case "nesting depth bound" `Quick
            test_nesting_depth_bound;
          Alcotest.test_case "structure" `Quick test_smtlib_structure;
          Alcotest.test_case "suite round trip" `Quick
            test_smtlib_roundtrip_suite;
          QCheck_alcotest.to_alcotest prop_smtlib_roundtrip_random;
        ] );
      ( "digest",
        [
          Alcotest.test_case "distinguishes" `Quick test_digest_distinguishes;
          Alcotest.test_case "order independent" `Quick
            test_digest_order_independent;
          QCheck_alcotest.to_alcotest prop_digest_roundtrip;
        ] );
      ( "elim",
        [
          Alcotest.test_case "p constants" `Quick test_elim_p_consts;
          Alcotest.test_case "functional consistency" `Quick
            test_elim_functional_consistency;
          Alcotest.test_case "ackermann agreement" `Quick
            test_ackermann_agreement;
          QCheck_alcotest.to_alcotest
            (prop_elim_semantics "ITE elimination preserves evaluation"
               Elim.eliminate);
          QCheck_alcotest.to_alcotest
            (prop_elim_semantics "Ackermann elimination preserves evaluation"
               Elim.ackermannize);
        ] );
    ]
