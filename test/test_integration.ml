(* End-to-end cross-validation: the same validity question answered through
   six independent paths — SD, EIJ, HYBRID, SVC-style tableau, CVC-style
   lazy refinement, and a brute-force small-model oracle — plus countermodel
   replay at both the separation-logic and the first-order level. *)

module Ast = Sepsat_suf.Ast
module Parse = Sepsat_suf.Parse
module Interp = Sepsat_suf.Interp
module Elim = Sepsat_suf.Elim
module Decide = Sepsat.Decide
module Witness = Sepsat.Witness
module Verdict = Sepsat_sep.Verdict
module Brute = Sepsat_sep.Brute
module Deadline = Sepsat_util.Deadline
module Random_formula = Sepsat_workloads.Random_formula
module Suite = Sepsat_workloads.Suite

let all_methods =
  [
    Decide.Sd;
    Decide.Eij;
    Decide.Hybrid_default;
    Decide.Hybrid_at 0;
    Decide.Svc_baseline;
    Decide.Lazy_baseline;
  ]

let method_name m = Format.asprintf "%a" Decide.pp_method m

(* Interpretation with defaults: constants simplified out of the normalized
   formula may be missing from the assignment; they cannot influence its
   value. *)
let interp_with_defaults (a : Brute.assignment) =
  {
    Interp.func =
      (fun n args ->
        match (args, List.assoc_opt n a.Brute.ints) with
        | [], Some v -> v
        | [], None -> 0
        | _ -> invalid_arg "application in sep formula");
    Interp.pred =
      (fun n args ->
        match (args, List.assoc_opt n a.Brute.bools) with
        | [], Some b -> b
        | [], None -> false
        | _ -> invalid_arg "application in sep formula");
  }

(* Decide [f] with [m]; check countermodels falsify both F_sep and the
   original formula; return the verdict as a bool. *)
let decide_checked m ctx f =
  let r = Decide.decide ~method_:m ~deadline:(Deadline.after 30.) ctx f in
  match r.Decide.verdict with
  | Verdict.Valid -> true
  | Verdict.Invalid assignment ->
    let sep_value =
      Interp.eval (interp_with_defaults assignment) r.Decide.elim.Elim.formula
    in
    if sep_value then
      Alcotest.failf "%s: countermodel does not falsify F_sep of %s"
        (method_name m) (Ast.to_string f);
    let lifted =
      Witness.to_interp (Witness.of_assignment r.Decide.elim assignment)
    in
    if Interp.eval lifted f then
      Alcotest.failf "%s: lifted countermodel does not falsify %s"
        (method_name m) (Ast.to_string f);
    false
  | Verdict.Unknown why ->
    Alcotest.failf "%s: unknown (%s) on %s" (method_name m) why
      (Ast.to_string f)

(* (a) application-free random formulas against the brute oracle *)
let oracle_config =
  {
    Random_formula.small with
    Random_formula.allow_apps = false;
    n_consts = 3;
    max_depth = 4;
  }

let prop_against_oracle =
  QCheck2.Test.make ~name:"six procedures vs brute-force oracle" ~count:150
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let ctx = Ast.create_ctx () in
      let f = Random_formula.generate oracle_config ctx ~seed in
      let expected = Brute.valid f in
      List.for_all (fun m -> decide_checked m ctx f = expected) all_methods)

(* (b) with uninterpreted applications: mutual agreement of the six paths *)
let prop_mutual_agreement =
  QCheck2.Test.make ~name:"six procedures agree (with applications)" ~count:120
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let ctx = Ast.create_ctx () in
      let f = Random_formula.generate Random_formula.small ctx ~seed in
      let verdicts = List.map (fun m -> decide_checked m ctx f) all_methods in
      match verdicts with
      | [] -> false
      | v :: rest -> List.for_all (( = ) v) rest)

(* (c) equality-only fragment (the EUF sublogic) *)
let prop_euf_fragment =
  QCheck2.Test.make ~name:"EUF fragment agreement" ~count:100
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let ctx = Ast.create_ctx () in
      let f =
        Random_formula.generate
          { Random_formula.equality_only with n_consts = 3; max_depth = 3 }
          ctx ~seed
      in
      let verdicts = List.map (fun m -> decide_checked m ctx f) all_methods in
      match verdicts with
      | [] -> false
      | v :: rest -> List.for_all (( = ) v) rest)

(* (d) hybrid verdicts are threshold-invariant *)
let prop_threshold_invariance =
  QCheck2.Test.make ~name:"hybrid verdict is threshold-invariant" ~count:100
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let ctx = Ast.create_ctx () in
      let f = Random_formula.generate Random_formula.small ctx ~seed in
      let verdicts =
        List.map
          (fun t -> decide_checked (Decide.Hybrid_at t) ctx f)
          [ 0; 3; 50; max_int ]
      in
      match verdicts with
      | [] -> false
      | v :: rest -> List.for_all (( = ) v) rest)

(* (e) small suite representatives: valid as generated, invalid when bugged,
   under every method *)
let suite_cases =
  [ "pipe.1"; "lsu.1"; "cache.1"; "tv.1"; "drv.2"; "ooo.0" ]

let test_suite_validity () =
  List.iter
    (fun name ->
      match Suite.find name with
      | None -> Alcotest.failf "missing benchmark %s" name
      | Some b ->
        List.iter
          (fun m ->
            (* SVC cannot finish the hardware benchmarks: skip it there *)
            let skip =
              m = Decide.Svc_baseline
              && not (String.length name >= 3 && String.sub name 0 3 = "drv")
            in
            if not skip then begin
              let ctx = Ast.create_ctx () in
              let f = b.Suite.build ctx in
              if not (decide_checked m ctx f) then
                Alcotest.failf "%s should be valid under %s" name
                  (method_name m);
              let ctx2 = Ast.create_ctx () in
              let fb = b.Suite.build ~bug:true ctx2 in
              if decide_checked m ctx2 fb then
                Alcotest.failf "%s bug variant should be invalid under %s" name
                  (method_name m)
            end)
          [ Decide.Hybrid_default; Decide.Sd; Decide.Eij; Decide.Lazy_baseline;
            Decide.Svc_baseline ])
    suite_cases

(* certified Valid verdicts: the DRUP trace of the whole pipeline replays
   through the independent checker *)
let prop_certified_validity =
  QCheck2.Test.make ~name:"valid verdicts certify via DRUP" ~count:60
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let ctx = Ast.create_ctx () in
      let f = Random_formula.generate Random_formula.small ctx ~seed in
      let r =
        Decide.decide ~method_:Decide.Hybrid_default ~certify:true
          ~deadline:(Deadline.after 30.) ctx f
      in
      match (r.Decide.verdict, r.Decide.certified) with
      | Verdict.Valid, Some true -> true
      | Verdict.Valid, (Some false | None) -> false
      | Verdict.Invalid _, None -> true
      | Verdict.Invalid _, Some _ -> false
      | Verdict.Unknown _, _ -> false)

let test_certified_suite () =
  List.iter
    (fun name ->
      match Suite.find name with
      | None -> Alcotest.failf "missing %s" name
      | Some b ->
        let ctx = Ast.create_ctx () in
        let f = b.Suite.build ctx in
        let r =
          Decide.decide ~certify:true ~deadline:(Deadline.after 30.) ctx f
        in
        (match (r.Decide.verdict, r.Decide.certified) with
        | Verdict.Valid, Some true -> ()
        | _ -> Alcotest.failf "%s should be valid and certified" name))
    [ "pipe.1"; "lsu.1"; "cache.2"; "tv.1"; "drv.2" ]

(* (f) the textual pipeline: parse, decide, verify a known countermodel *)
let test_parse_decide () =
  let ctx = Ast.create_ctx () in
  let f =
    Parse.formula ctx
      "(=> (and (<= h t) (< (succ h) t)) (not (= (+ h 1) t)))"
  in
  let r = Decide.decide ctx f in
  (match r.Decide.verdict with
  | Verdict.Valid -> ()
  | Verdict.Invalid _ | Verdict.Unknown _ ->
    Alcotest.fail "queue-pointer fact should be valid");
  let g = Parse.formula ctx "(=> (<= h t) (not (= (+ h 1) t)))" in
  match (Decide.decide ctx g).Decide.verdict with
  | Verdict.Invalid _ -> ()
  | Verdict.Valid | Verdict.Unknown _ ->
    Alcotest.fail "weakened hypothesis should be falsifiable"

(* (g) hand-picked regressions across the full pipeline *)
let regression_cases =
  [
    (* validity, formula *)
    (true, "(= x x)");
    (false, "(= x y)");
    (true, "(=> (= a b) (= (f (g a)) (f (g b))))");
    (false, "(=> (= (f a) (f b)) (= a b))");
    (true, "(= (ite (< x y) x y) (ite (< y x) y x))");
    (true, "(=> (and (< x y) (< y z)) (< x (+ z 1)))");
    (false, "(=> (< x (+ y 5)) (< x y))");
    (true, "(=> (< (+ x 2) (+ y 2)) (< x y))");
    (true, "(iff (P x) (P x))");
    (false, "(iff (P x) (P y))");
    (true, "(=> (and (= x y) (P (f x))) (P (f y)))");
    (true, "(or (= x y) (or (< x y) (< y x)))");
    (false, "(or (= x y) (< x y))");
    (true, "(not (< x x))");
    (true, "(not (= (succ x) x))");
    (true, "(=> (= (succ x) y) (< x y))");
    (* positive-equality corner cases: p-terms under diverse interpretation *)
    (false, "(= (f a) (g a))");
    (true, "(not (= (f a) (+ (f a) 1)))");
    (false, "(< (f a) (g a))");
    (true, "(or (< (f a) (g a)) (or (= (f a) (g a)) (< (g a) (f a))))");
    (* predicate arguments normalize through succ/plus sugar *)
    (true, "(=> (P (+ x 1)) (P (succ x)))");
    (false, "(=> (P x) (P (+ x 1)))");
    (* purely propositional formulas take the degenerate path *)
    (true, "(iff (and b c) (and c b))");
    (false, "(=> (or b c) (and b c))");
  ]

let test_regressions () =
  List.iter
    (fun (expected, text) ->
      List.iter
        (fun m ->
          let ctx = Ast.create_ctx () in
          let f = Parse.formula ctx text in
          if decide_checked m ctx f <> expected then
            Alcotest.failf "%s: expected %b for %s" (method_name m) expected
              text)
        all_methods)
    regression_cases

(* Golden CNF shape: clause counts (Polarity and certified Full Tseitin),
   transitivity constraints, F_bool DAG size and, for the methods that run
   vertex elimination, the digest of the DIMACS text [sufdec cnf] prints, for
   a few small suite entries. The front end is deterministic, so any change
   to these numbers is a change to the CNF and must update this table
   knowingly. *)
let golden_cnf =
  [
    (* bench, method, cnf_clauses, certified cnf_clauses, trans, bool_size,
       DIMACS digest *)
    ("pipe.3", Decide.Sd, 8699, 11470, 0, 4297, None);
    ("pipe.3", Decide.Eij, 15129, 28139, 4366, 8647,
     Some "035bb388372bc9998bd4698c8496b43d");
    ("pipe.3", Decide.Hybrid_default, 7408, 15444, 2408, 4969,
     Some "76cf78702545202eca64ace20f8c1397");
    ("cache.5", Decide.Sd, 3286, 5137, 0, 2129, None);
    ("cache.5", Decide.Eij, 1957, 7016, 1518, 2257,
     Some "36a8d31d2b623feded8f8098fffe9451");
    ("cache.5", Decide.Hybrid_default, 1957, 7016, 1518, 2257,
     Some "36a8d31d2b623feded8f8098fffe9451");
    ("batch.0", Decide.Sd, 22683, 53230, 0, 19869, None);
    ("batch.0", Decide.Eij, 22428, 77143, 21142, 24253,
     Some "6d3c1858326761ac2c87e33a7a4671c6");
    ("batch.0", Decide.Hybrid_default, 22428, 77143, 21142, 24253,
     Some "6d3c1858326761ac2c87e33a7a4671c6");
    (* the largest elimination in the suite that completes *)
    ("ooo.0", Decide.Hybrid_default, 199676, 754357, 198771, 199969,
     Some "e3fea9ab69e0c9c531e53aee27f4b8b2");
  ]

let cnf_shape name method_ =
  let bench = Option.get (Suite.find name) in
  let run ~certify =
    let ctx = Ast.create_ctx () in
    Decide.decide ~method_ ~certify ctx (bench.Suite.build ctx)
  in
  let r = run ~certify:false and rc = run ~certify:true in
  let es = Option.get r.Decide.encode_stats in
  ( (r.Decide.cnf_clauses, rc.Decide.cnf_clauses),
    (es.Sepsat_encode.Hybrid.trans_constraints, es.Sepsat_encode.Hybrid.bool_size)
  )

let dimacs_digest name method_ =
  let bench = Option.get (Suite.find name) in
  let ctx = Ast.create_ctx () in
  let cnf = Decide.cnf ~method_ ctx (bench.Suite.build ctx) in
  Digest.to_hex
    (Digest.string (Format.asprintf "%a" Sepsat_sat.Dimacs.print cnf))

let check_digests () =
  List.iter
    (fun (name, m, _, _, _, _, digest) ->
      Option.iter
        (fun d ->
          Alcotest.(check string)
            (Printf.sprintf "%s %s: DIMACS digest" name (method_name m))
            d (dimacs_digest name m))
        digest)
    golden_cnf

let test_golden_cnf () =
  List.iter
    (fun (name, m, clauses, certified, trans, size, _) ->
      Alcotest.(check (pair (pair int int) (pair int int)))
        (Printf.sprintf "%s %s: clauses, certified clauses, trans, bool_size"
           name (method_name m))
        ((clauses, certified), (trans, size))
        (cnf_shape name m))
    golden_cnf;
  check_digests ()

(* The CNF must not depend on hash-table seeding (OCAMLRUNPARAM=R).
   Randomization is process-wide and irreversible, so this case runs last. *)
let test_golden_cnf_randomized () =
  Hashtbl.randomize ();
  check_digests ()

let () =
  Alcotest.run "integration"
    [
      ( "agreement",
        [
          QCheck_alcotest.to_alcotest prop_against_oracle;
          QCheck_alcotest.to_alcotest prop_mutual_agreement;
          QCheck_alcotest.to_alcotest prop_euf_fragment;
          QCheck_alcotest.to_alcotest prop_threshold_invariance;
        ] );
      ( "suite",
        [ Alcotest.test_case "validity and bugs" `Slow test_suite_validity ] );
      ( "certification",
        [
          QCheck_alcotest.to_alcotest prop_certified_validity;
          Alcotest.test_case "suite certifies" `Quick test_certified_suite;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "parse and decide" `Quick test_parse_decide;
          Alcotest.test_case "regressions" `Quick test_regressions;
          Alcotest.test_case "golden cnf shape" `Quick test_golden_cnf;
          Alcotest.test_case "golden cnf under randomized hashing" `Quick
            test_golden_cnf_randomized;
        ] );
    ]
