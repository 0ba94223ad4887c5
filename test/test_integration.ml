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

(* (h) the fill-checked HYBRID selector. Classes at or below SEP_THOLD keep
   the paper's choice; above it, only lsu.5-7 pass the fill check. *)
module Hybrid = Sepsat_encode.Hybrid
module Certify = Sepsat_check.Certify

let decisions_of build =
  let ctx = Ast.create_ctx () in
  let elim = Decide.eliminate ctx (build ctx) in
  snd (Hybrid.decisions ctx ~p_consts:elim.Elim.p_consts elim.Elim.formula)

let fill_wins = [ "lsu.5"; "lsu.6"; "lsu.7" ]

let test_selector_suite () =
  List.iter
    (fun (b : Suite.benchmark) ->
      List.iter
        (fun bug ->
          let name = if bug then b.Suite.name ^ "/bug" else b.Suite.name in
          let ds = decisions_of (fun ctx -> b.Suite.build ~bug ctx) in
          Array.iter
            (fun (d : Hybrid.decision) ->
              let where = Printf.sprintf "%s class %d" name d.Hybrid.class_id in
              if d.Hybrid.sep_cnt <= Hybrid.default_threshold then
                Alcotest.(check bool)
                  (where ^ ": paper's choice, unchecked") true
                  (d.Hybrid.choice = Hybrid.Use_eij
                  && d.Hybrid.fill = Hybrid.Unchecked)
              else if List.mem b.Suite.name fill_wins then
                Alcotest.(check bool)
                  (where ^ ": fill check passes") true
                  (d.Hybrid.choice = Hybrid.Use_eij
                  && match d.Hybrid.fill with Hybrid.Fill _ -> true | _ -> false)
              else
                Alcotest.(check bool) (where ^ ": stays SD") true
                  (d.Hybrid.choice = Hybrid.Use_sd))
            ds;
          let above =
            List.filter
              (fun (d : Hybrid.decision) ->
                d.Hybrid.sep_cnt > Hybrid.default_threshold)
              (Array.to_list ds)
          in
          let member prefix lo hi =
            List.exists
              (fun i -> b.Suite.name = Printf.sprintf "%s.%d" prefix i)
              (List.init (hi - lo + 1) (( + ) lo))
          in
          (* the cases the rule is about do reach the check *)
          if member "lsu" 5 7 || member "tv" 3 6 then
            Alcotest.(check bool) (name ^ ": a class above 700") true
              (above <> []);
          if member "pipe" 3 9 then
            Alcotest.(check bool) (name ^ ": third class above 700, SD") true
              (ds.(2).Hybrid.sep_cnt > Hybrid.default_threshold
              && ds.(2).Hybrid.choice = Hybrid.Use_sd))
        [ false; true ])
    (Suite.benchmarks @ Suite.batch)

(* The pipelines [sufdec gen --family pipeline] renders stay on SD. *)
let test_selector_pipelines () =
  let checked = ref 0 in
  for size = 3 to 10 do
    for seed = 1 to 4 do
      List.iter
        (fun bug ->
          let ds =
            decisions_of (fun ctx ->
                Sepsat_workloads.Pipeline.formula ~bug ctx ~n_instructions:size
                  ~seed)
          in
          Array.iter
            (fun (d : Hybrid.decision) ->
              if d.Hybrid.sep_cnt > Hybrid.default_threshold then begin
                incr checked;
                Alcotest.(check bool)
                  (Printf.sprintf "pipeline %d seed %d%s class %d stays SD" size
                     seed
                     (if bug then " bug" else "")
                     d.Hybrid.class_id)
                  true
                  (d.Hybrid.choice = Hybrid.Use_sd)
              end)
            ds)
        [ false; true ]
    done
  done;
  Alcotest.(check bool) "some pipeline classes reach the check" true
    (!checked > 0)

(* Decide's eager pipeline with a hybrid configuration given directly, DRUP
   proof included, as a [Decide.result] that {!Certify.check} accepts. *)
let decide_config config ctx f =
  let module F = Sepsat_prop.Formula in
  let module Tseitin = Sepsat_prop.Tseitin in
  let module Solver = Sepsat_sat.Solver in
  let elim = Decide.eliminate ctx f in
  let enc =
    Hybrid.encode ~config ctx ~p_consts:elim.Elim.p_consts elim.Elim.formula
  in
  let solver = Solver.create () in
  let proof = Solver.start_proof solver in
  let tseitin = Tseitin.create ~mode:Tseitin.Full solver in
  Tseitin.assert_root tseitin (F.not_ enc.Hybrid.prop_ctx enc.Hybrid.f_bool);
  let verdict =
    match Solver.solve solver with
    | Solver.Unsat -> Verdict.Valid
    | Solver.Unknown -> Verdict.Unknown "timeout"
    | Solver.Sat ->
      Verdict.Invalid
        (enc.Hybrid.decode (fun i ->
             match Tseitin.find_var tseitin i with
             | Some lit -> Solver.value solver lit
             | None -> false))
  in
  {
    Decide.verdict;
    certified =
      (match verdict with
      | Verdict.Valid -> Some (Sepsat_sat.Drup_check.certified proof)
      | Verdict.Invalid _ | Verdict.Unknown _ -> None);
    witness = None;
    elim;
    translate_time = 0.;
    sat_time = 0.;
    total_time = 0.;
    phase_times = [];
    cnf_clauses = Tseitin.clauses_added tseitin;
    sat_stats = None;
    encode_stats = Some enc.Hybrid.stats;
  }

(* Random formulas never reach SepCnt 700, so the checked rule runs at a low
   threshold here: nearly every class goes through the replay, and either
   outcome must decide as SD and EIJ do, with certified answers. *)
let low_threshold t = { Hybrid.default with Hybrid.threshold = t }

let prop_fill_checked =
  QCheck2.Test.make ~name:"fill-checked rule agrees with SD and EIJ, certified"
    ~count:150
    QCheck2.Gen.(pair (int_bound 1_000_000) (int_bound 4))
    (fun (seed, t) ->
      let ctx = Ast.create_ctx () in
      let f = Random_formula.generate Random_formula.small ctx ~seed in
      let r = decide_config (low_threshold t) ctx f in
      let expected = decide_checked Decide.Sd ctx f in
      decide_checked Decide.Eij ctx f = expected
      && (match r.Decide.verdict with
         | Verdict.Valid -> expected
         | Verdict.Invalid _ -> not expected
         | Verdict.Unknown _ -> false)
      &&
      match Certify.check ~expect_proof:true f r with
      | Ok _ -> true
      | Error e -> QCheck2.Test.fail_reportf "%a" Certify.pp_error e)

(* ... and the random formulas exercise both outcomes of the check. *)
let test_fill_checked_outcomes () =
  let passed = ref 0 and failed = ref 0 in
  for seed = 0 to 199 do
    let ds =
      let ctx = Ast.create_ctx () in
      let f = Random_formula.generate Random_formula.small ctx ~seed in
      let elim = Decide.eliminate ctx f in
      snd
        (Hybrid.decisions ~config:(low_threshold 1) ctx
           ~p_consts:elim.Elim.p_consts elim.Elim.formula)
    in
    Array.iter
      (fun (d : Hybrid.decision) ->
        match d.Hybrid.fill with
        | Hybrid.Fill _ -> incr passed
        | Hybrid.Over_cap -> incr failed
        | Hybrid.Unchecked -> ())
      ds
  done;
  Alcotest.(check bool) "some classes pass the check" true (!passed > 0);
  Alcotest.(check bool) "some classes fail it" true (!failed > 0)

(* Golden CNF shape: clause counts (Polarity and certified Full Tseitin),
   transitivity constraints, F_bool DAG size and, for the methods that run
   vertex elimination, the digest of the DIMACS text [sufdec cnf] prints, for
   a few small suite entries. The front end is deterministic, so any change
   to these numbers is a change to the CNF and must update this table
   knowingly. *)
let golden_cnf =
  [
    (* bench, method, cnf_clauses, certified cnf_clauses (None: not
       checked), trans, bool_size, DIMACS digest *)
    ("pipe.3", Decide.Sd, 8699, Some 11470, 0, 4297, None);
    ("pipe.3", Decide.Eij, 15129, Some 28139, 4366, 8647,
     Some "035bb388372bc9998bd4698c8496b43d");
    ("pipe.3", Decide.Hybrid_default, 7408, Some 15444, 2408, 4969,
     Some "76cf78702545202eca64ace20f8c1397");
    ("cache.5", Decide.Sd, 3286, Some 5137, 0, 2129, None);
    ("cache.5", Decide.Eij, 1957, Some 7016, 1518, 2257,
     Some "36a8d31d2b623feded8f8098fffe9451");
    ("cache.5", Decide.Hybrid_default, 1957, Some 7016, 1518, 2257,
     Some "36a8d31d2b623feded8f8098fffe9451");
    ("batch.0", Decide.Sd, 22683, Some 53230, 0, 19869, None);
    ("batch.0", Decide.Eij, 22428, Some 77143, 21142, 24253,
     Some "6d3c1858326761ac2c87e33a7a4671c6");
    ("batch.0", Decide.Hybrid_default, 22428, Some 77143, 21142, 24253,
     Some "6d3c1858326761ac2c87e33a7a4671c6");
    (* lsu.5's one class (SepCnt 782) passes the fill check and goes to
       EIJ; the paper's rule sends it to SD *)
    ("lsu.5", Decide.Hybrid_default, 10320, Some 33144, 9288, 11867,
     Some "d6e6fad4187ee27e749f6eba7ac44b0b");
    (* certifying this SD run replays a DRUP proof for ~3-4 s (release) *)
    ("lsu.5", Decide.Hybrid_at 700, 17657, None, 0, 14095,
     Some "061a8b5633e3c2ff4ad5e2118a5e238a");
    (* the largest elimination in the suite that completes *)
    ("ooo.0", Decide.Hybrid_default, 199676, Some 754357, 198771, 199969,
     Some "e3fea9ab69e0c9c531e53aee27f4b8b2");
  ]

let cnf_shape ~certified name method_ =
  let bench = Option.get (Suite.find name) in
  let run ~certify =
    let ctx = Ast.create_ctx () in
    Decide.decide ~method_ ~certify ctx (bench.Suite.build ctx)
  in
  let r = run ~certify:false in
  let rc =
    if certified then Some (run ~certify:true).Decide.cnf_clauses else None
  in
  let es = Option.get r.Decide.encode_stats in
  ( (r.Decide.cnf_clauses, rc),
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
      Alcotest.(check (pair (pair int (option int)) (pair int int)))
        (Printf.sprintf "%s %s: clauses, certified clauses, trans, bool_size"
           name (method_name m))
        ((clauses, certified), (trans, size))
        (cnf_shape ~certified:(certified <> None) name m))
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
      ( "selector",
        [
          Alcotest.test_case "suite and batch" `Quick test_selector_suite;
          Alcotest.test_case "generated pipelines stay SD" `Quick
            test_selector_pipelines;
          QCheck_alcotest.to_alcotest prop_fill_checked;
          Alcotest.test_case "random formulas reach both outcomes" `Quick
            test_fill_checked_outcomes;
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
