(* Tests for the witness-checking / differential-fuzzing subsystem
   (lib/check): witness extraction and evaluation, per-answer certification,
   cross-method agreement with valid witnesses, the delta debugger, and a
   mutation test proving an injected encoding bug is caught and shrunk to a
   tiny reproducer. *)

module Ast = Sepsat_suf.Ast
module Parse = Sepsat_suf.Parse
module Smtlib = Sepsat_suf.Smtlib
module Interp = Sepsat_suf.Interp
module Verdict = Sepsat_sep.Verdict
module Deadline = Sepsat_util.Deadline
module Decide = Sepsat.Decide
module Witness = Sepsat.Witness
module Certify = Sepsat_check.Certify
module Shrink = Sepsat_check.Shrink
module Differential = Sepsat_check.Differential
module Random_formula = Sepsat_workloads.Random_formula
module Suite = Sepsat_workloads.Suite

(* -- Witness extraction and certification --------------------------------- *)

let decide m ctx f =
  Decide.decide ~method_:m ~deadline:(Deadline.after 30.) ~certify:true ctx f

let test_witness_invalid () =
  let ctx = Ast.create_ctx () in
  let f = Parse.formula ctx "(=> (= (f a) (f b)) (= a b))" in
  let r = decide Decide.Hybrid_default ctx f in
  match Certify.check ~expect_proof:true f r with
  | Ok (Certify.Invalid_witnessed w) ->
    Alcotest.(check bool) "witness falsifies" true (Witness.falsifies w f);
    Alcotest.(check bool) "surfaced in result" true (r.Decide.witness <> None);
    (* the witness must pin f's table at both argument values *)
    Alcotest.(check bool) "has function table" true
      (List.mem_assoc "f" w.Witness.funcs)
  | Ok o -> Alcotest.failf "expected witnessed invalid, got %a" Certify.pp_outcome o
  | Error e -> Alcotest.failf "certification error: %a" Certify.pp_error e

let test_witness_valid_certified () =
  let ctx = Ast.create_ctx () in
  let f = Parse.formula ctx "(=> (= a b) (= (f (g a)) (f (g b))))" in
  let r = decide Decide.Sd ctx f in
  match Certify.check ~expect_proof:true f r with
  | Ok Certify.Valid_certified -> ()
  | Ok o -> Alcotest.failf "expected certified valid, got %a" Certify.pp_outcome o
  | Error e -> Alcotest.failf "certification error: %a" Certify.pp_error e

let test_missing_proof_rejected () =
  let ctx = Ast.create_ctx () in
  let f = Parse.formula ctx "(= x x)" in
  (* no ~certify: the valid verdict has no DRUP trace to replay *)
  let r = Decide.decide ~method_:Decide.Sd ctx f in
  match Certify.check ~expect_proof:true f r with
  | Error (Certify.Proof_error _) -> ()
  | Error e -> Alcotest.failf "expected proof error, got %a" Certify.pp_error e
  | Ok o -> Alcotest.failf "expected proof error, got %a" Certify.pp_outcome o

let test_forged_witness_rejected () =
  let ctx = Ast.create_ctx () in
  let f = Parse.formula ctx "(= x y)" in
  let r = decide Decide.Eij ctx f in
  match r.Decide.verdict with
  | Verdict.Invalid _ ->
    (* forge an assignment that does not falsify x = y *)
    let forged =
      Verdict.Invalid
        { Sepsat_sep.Brute.ints = [ ("x", 0); ("y", 0) ]; bools = [] }
    in
    let r' = { r with Decide.verdict = forged; witness = None } in
    (match Certify.check f r' with
    | Error (Certify.Witness_error _) -> ()
    | Error e -> Alcotest.failf "expected witness error, got %a" Certify.pp_error e
    | Ok o -> Alcotest.failf "forged witness accepted as %a" Certify.pp_outcome o)
  | _ -> Alcotest.fail "x = y should be invalid"

(* The batch family is the one the benchmark's frontend and certified
   workloads draw on: a healthy batch is invalid with a witness Certify
   accepts, and the bug variant is valid with a replayed DRUP proof. *)
let decide_batch ~bug =
  let ctx = Ast.create_ctx () in
  let bench =
    match Suite.find "batch.0" with
    | Some b -> b
    | None -> Alcotest.fail "batch.0 missing"
  in
  let f = bench.Suite.build ~bug ctx in
  (f, decide Decide.Hybrid_default ctx f)

let test_batch_invalid_witnessed () =
  let f, r = decide_batch ~bug:false in
  Alcotest.(check bool) "witness surfaced" true (r.Decide.witness <> None);
  match Certify.check f r with
  | Ok (Certify.Invalid_witnessed w) ->
    Alcotest.(check bool) "witness falsifies" true (Witness.falsifies w f)
  | Ok o -> Alcotest.failf "expected witnessed invalid, got %a" Certify.pp_outcome o
  | Error e -> Alcotest.failf "certification error: %a" Certify.pp_error e

let test_batch_bug_certified () =
  let f, r = decide_batch ~bug:true in
  Alcotest.(check (option bool)) "proof replayed" (Some true) r.Decide.certified;
  match Certify.check ~expect_proof:true f r with
  | Ok Certify.Valid_certified -> ()
  | Ok o -> Alcotest.failf "expected certified valid, got %a" Certify.pp_outcome o
  | Error e -> Alcotest.failf "certification error: %a" Certify.pp_error e

(* -- Satellite: eager methods agree at every threshold, with valid
   witnesses, on seeded Random_formula.small instances ---------------------- *)

let eager_methods =
  [
    Decide.Sd;
    Decide.Eij;
    Decide.Hybrid_at 0;
    Decide.Hybrid_default;
    Decide.Hybrid_at max_int;
  ]

let prop_eager_agreement_with_witnesses =
  QCheck2.Test.make
    ~name:"SD/EIJ/HYBRID{0,default,max}: same verdicts, valid witnesses"
    ~count:60
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let ctx = Ast.create_ctx () in
      let f = Random_formula.generate Random_formula.small ctx ~seed in
      let outcomes =
        List.map
          (fun m ->
            let r = decide m ctx f in
            match Certify.check ~expect_proof:true f r with
            | Ok (Certify.Invalid_witnessed _) -> false
            | Ok (Certify.Valid_certified | Certify.Valid_uncertified) -> true
            | Ok (Certify.Gave_up why) ->
              Alcotest.failf "unknown verdict (%s) on %s" why (Ast.to_string f)
            | Error e ->
              Alcotest.failf "certification error %a on %s" Certify.pp_error e
                (Ast.to_string f))
          eager_methods
      in
      match outcomes with
      | [] -> false
      | v :: rest -> List.for_all (( = ) v) rest)

(* -- Delta debugger -------------------------------------------------------- *)

let test_shrink_to_core () =
  let ctx = Ast.create_ctx () in
  (* Invalidity witnessed only by the (= x y) conjunct; everything else is
     satisfiable padding the shrinker must discard. *)
  let f =
    Parse.formula ctx
      "(and (and (or (< a b) (= (f a) c)) (not (= x y))) (or (P x) (< c (+ a 2))))"
  in
  let invalid g =
    match (decide Decide.Hybrid_default ctx g).Decide.verdict with
    | Verdict.Invalid _ -> true
    | Verdict.Valid | Verdict.Unknown _ -> false
  in
  Alcotest.(check bool) "seed formula invalid" true (invalid f);
  let shrunk = Shrink.shrink ctx ~still_failing:invalid f in
  Alcotest.(check bool) "still invalid" true (invalid shrunk);
  if Ast.size shrunk > 4 then
    Alcotest.failf "shrunk to %d nodes, expected <= 4: %s" (Ast.size shrunk)
      (Ast.to_string shrunk)

(* -- Differential driver --------------------------------------------------- *)

let test_differential_clean () =
  let summary =
    Differential.fuzz
      ~procedures:(Differential.default_procedures ~timeout:30. ())
      ~iters:40 ~seed:7 ()
  in
  Alcotest.(check int) "no failures" 0
    (List.length summary.Differential.failures);
  Alcotest.(check bool) "saw sat answers" true
    (summary.Differential.tally.Differential.sat_answers > 0);
  Alcotest.(check bool) "saw unsat answers" true
    (summary.Differential.tally.Differential.unsat_answers > 0)

(* Injected encoding bug: a procedure that decides the formula with every
   succ/pred collapsed — an offset-dropping translation defect. The
   differential driver must flag the disagreement and shrink it to a tiny
   arithmetic reproducer. *)

let strip_offsets ctx root =
  let fmemo = Hashtbl.create 64 and tmemo = Hashtbl.create 64 in
  let rec go_f (f : Ast.formula) =
    match Hashtbl.find_opt fmemo f.Ast.fid with
    | Some f' -> f'
    | None ->
      let f' =
        match f.Ast.fnode with
        | Ast.Ftrue -> Ast.tru ctx
        | Ast.Ffalse -> Ast.fls ctx
        | Ast.Bconst b -> Ast.bconst ctx b
        | Ast.Not g -> Ast.not_ ctx (go_f g)
        | Ast.And (a, b) -> Ast.and_ ctx (go_f a) (go_f b)
        | Ast.Or (a, b) -> Ast.or_ ctx (go_f a) (go_f b)
        | Ast.Eq (t1, t2) -> Ast.eq ctx (go_t t1) (go_t t2)
        | Ast.Lt (t1, t2) -> Ast.lt ctx (go_t t1) (go_t t2)
        | Ast.Papp (p, args) -> Ast.papp ctx p (List.map go_t args)
      in
      Hashtbl.add fmemo f.Ast.fid f';
      f'
  and go_t (t : Ast.term) =
    match Hashtbl.find_opt tmemo t.Ast.tid with
    | Some t' -> t'
    | None ->
      let t' =
        match t.Ast.tnode with
        | Ast.Const c -> Ast.const ctx c
        | Ast.Succ a | Ast.Pred a -> go_t a (* the bug *)
        | Ast.Tite (c, a, b) -> Ast.tite ctx (go_f c) (go_t a) (go_t b)
        | Ast.App (g, args) -> Ast.app ctx g (List.map go_t args)
      in
      Hashtbl.add tmemo t.Ast.tid t';
      t'
  in
  go_f root

let buggy_procedure =
  {
    Differential.name = "EIJ-buggy";
    expect_proof = false;
    run =
      (fun ctx f ->
        Decide.decide ~method_:Decide.Eij ~deadline:(Deadline.after 30.) ctx
          (strip_offsets ctx f));
  }

let test_mutation_caught_and_shrunk () =
  let procedures =
    [
      Differential.procedure_of_method ~timeout:30. Decide.Hybrid_default;
      buggy_procedure;
    ]
  in
  let summary =
    Differential.fuzz ~procedures ~gen:Random_formula.small ~iters:40 ~seed:1
      ()
  in
  match summary.Differential.failures with
  | [] -> Alcotest.fail "injected encoding bug was not caught in 40 iterations"
  | c :: _ ->
    (* the bug may surface as a cross-method disagreement or be caught even
       earlier, as a witness/proof of the buggy procedure failing its own
       certification — both mean the oracle caught it *)
    (match c.Differential.failure.Differential.kind with
    | Differential.Disagreement
    | Differential.Bad_witness "EIJ-buggy"
    | Differential.Bad_proof "EIJ-buggy" -> ()
    | Differential.Bad_witness p | Differential.Bad_proof p ->
      Alcotest.failf "a sound procedure (%s) failed certification" p
    | Differential.Crash p -> Alcotest.failf "unexpected crash in %s" p);
    let n = Ast.size c.Differential.shrunk in
    if n >= 10 then
      Alcotest.failf "reproducer has %d nodes (expected < 10): %s" n
        (Ast.to_string c.Differential.shrunk);
    (* the printed reproducer re-parses, and its induced validity query is
       exactly the shrunk formula *)
    let ctx2 = Ast.create_ctx () in
    (match Smtlib.script ctx2 c.Differential.script with
    | exception Smtlib.Error msg ->
      Alcotest.failf "reproducer does not re-parse: %s" msg
    | s ->
      Alcotest.(check int) "one assertion" 1 (List.length s.Smtlib.assertions);
      Alcotest.(check bool) "check-sat requested" true s.Smtlib.requested_check)

let () =
  Alcotest.run "check"
    [
      ( "certify",
        [
          Alcotest.test_case "invalid answers are witnessed" `Quick
            test_witness_invalid;
          Alcotest.test_case "valid answers certify" `Quick
            test_witness_valid_certified;
          Alcotest.test_case "missing proof rejected" `Quick
            test_missing_proof_rejected;
          Alcotest.test_case "forged witness rejected" `Quick
            test_forged_witness_rejected;
          Alcotest.test_case "batch invalid is witnessed" `Quick
            test_batch_invalid_witnessed;
          Alcotest.test_case "batch bug certifies valid" `Quick
            test_batch_bug_certified;
        ] );
      ( "agreement",
        [ QCheck_alcotest.to_alcotest prop_eager_agreement_with_witnesses ] );
      ("shrink", [ Alcotest.test_case "padding discarded" `Quick test_shrink_to_core ]);
      ( "differential",
        [
          Alcotest.test_case "clean fuzz run" `Slow test_differential_clean;
          Alcotest.test_case "injected bug caught and shrunk" `Slow
            test_mutation_caught_and_shrunk;
        ] );
    ]
