(* Tests for the SatELite-style simplifier: equisatisfiability of the
   simplified database, totality of reconstructed models, DRUP soundness of
   elimination, and the restore rules clause increments depend on. *)

module Solver = Sepsat_sat.Solver
module Lit = Sepsat_sat.Lit
module Proof = Sepsat_sat.Proof
module Drup_check = Sepsat_sat.Drup_check
module Deadline = Sepsat_util.Deadline
module Ast = Sepsat_suf.Ast
module Verdict = Sepsat_sep.Verdict
module Decide = Sepsat.Decide
module Suite = Sepsat_workloads.Suite
module Random_formula = Sepsat_workloads.Random_formula

let result_t =
  Alcotest.testable
    (fun ppf r ->
      Format.pp_print_string ppf
        (match r with
        | Solver.Sat -> "sat"
        | Solver.Unsat -> "unsat"
        | Solver.Unknown -> "unknown"))
    ( = )

let fresh_vars s n = Array.init n (fun _ -> Solver.new_var s)

(* -- Unit tests: each elimination rule, observable through stats ---------- *)

let test_subsumption () =
  let s = Solver.create () in
  let v = fresh_vars s 4 in
  Solver.add_clause s [ Lit.pos v.(0); Lit.pos v.(1) ];
  (* strictly subsumed by the clause above *)
  Solver.add_clause s [ Lit.pos v.(0); Lit.pos v.(1); Lit.pos v.(2) ];
  Solver.add_clause s [ Lit.pos v.(2); Lit.pos v.(3) ];
  Solver.simplify s;
  let st = Solver.stats s in
  Alcotest.(check bool) "subsumed something" true (st.Solver.simp_subsumed > 0);
  Alcotest.check result_t "still sat" Solver.Sat (Solver.solve s)

let test_self_subsumption () =
  let s = Solver.create () in
  let v = fresh_vars s 3 in
  (* (a or b) and (a or -b or c): resolving on b strengthens the second
     clause to (a or c) which then survives as the strengthened form *)
  Solver.add_clause s [ Lit.pos v.(0); Lit.pos v.(1) ];
  Solver.add_clause s [ Lit.pos v.(0); Lit.neg_of v.(1); Lit.pos v.(2) ];
  Solver.simplify s;
  let st = Solver.stats s in
  Alcotest.(check bool) "strengthened something" true
    (st.Solver.simp_strengthened > 0);
  Alcotest.check result_t "still sat" Solver.Sat (Solver.solve s)

let test_bve_eliminates_and_reconstructs () =
  let s = Solver.create () in
  let v = fresh_vars s 4 in
  let clauses =
    [
      [ Lit.pos v.(0); Lit.pos v.(1) ];
      [ Lit.neg_of v.(0); Lit.pos v.(2) ];
      [ Lit.neg_of v.(0); Lit.pos v.(3) ];
      [ Lit.pos v.(2); Lit.pos v.(3) ];
    ]
  in
  List.iter (Solver.add_clause s) clauses;
  Solver.simplify s;
  let st = Solver.stats s in
  Alcotest.(check bool) "eliminated a variable" true
    (st.Solver.simp_vars_eliminated > 0);
  Alcotest.check result_t "sat" Solver.Sat (Solver.solve s);
  (* the reconstructed model must satisfy every ORIGINAL clause, including
     those parked on the extension stack *)
  List.iter
    (fun c ->
      Alcotest.(check bool) "original clause satisfied" true
        (List.exists (fun l -> Solver.value s l) c))
    clauses

let test_blocked_clause () =
  let s = Solver.create () in
  let v = fresh_vars s 3 in
  (* (a or b) is blocked on a: its only resolution partner on -a is
     (-a or -b), and the resolvent (b or -b) is tautological *)
  let clauses =
    [
      [ Lit.pos v.(0); Lit.pos v.(1) ];
      [ Lit.neg_of v.(0); Lit.neg_of v.(1) ];
      [ Lit.pos v.(1); Lit.pos v.(2) ];
    ]
  in
  List.iter (Solver.add_clause s) clauses;
  Solver.simplify s;
  Alcotest.check result_t "sat" Solver.Sat (Solver.solve s);
  List.iter
    (fun c ->
      Alcotest.(check bool) "original clause satisfied" true
        (List.exists (fun l -> Solver.value s l) c))
    clauses

(* A shrunk counterexample of the increment property below: the database is
   UNSAT and the first solve eliminates x4 on the way. A later clause over
   x4 changes no answer, but still brings x4 back. *)
let test_increment_after_unsat () =
  let s = Solver.create () in
  Solver.set_simplify s true;
  let x = fresh_vars s 8 in
  List.iter (Solver.add_clause s)
    [
      [ Lit.neg_of x.(2) ];
      [ Lit.pos x.(3) ];
      [ Lit.pos x.(0); Lit.pos x.(4) ];
      [ Lit.neg_of x.(0); Lit.neg_of x.(1) ];
      [ Lit.neg_of x.(4); Lit.pos x.(0) ];
      [ Lit.pos x.(1); Lit.neg_of x.(7) ];
      [ Lit.neg_of x.(0); Lit.pos x.(7) ];
    ];
  Alcotest.check result_t "unsat" Solver.Unsat (Solver.solve s);
  Alcotest.(check bool) "x4 eliminated" true (Solver.is_eliminated s x.(4));
  Solver.add_clause s [ Lit.neg_of x.(4) ];
  Alcotest.(check bool) "x4 restored" false (Solver.is_eliminated s x.(4));
  Alcotest.check result_t "still unsat" Solver.Unsat (Solver.solve s)

let test_restore_on_add () =
  let s = Solver.create () in
  let v = fresh_vars s 3 in
  Solver.add_clause s [ Lit.pos v.(0); Lit.pos v.(1) ];
  Solver.add_clause s [ Lit.neg_of v.(0); Lit.pos v.(2) ];
  Solver.simplify s;
  Alcotest.(check bool) "v0 eliminated" true (Solver.is_eliminated s v.(0));
  (* a later increment mentions the eliminated variable: its defining
     clauses must come back before the new clause constrains it *)
  Solver.add_clause s [ Lit.neg_of v.(1) ];
  Solver.add_clause s [ Lit.pos v.(0) ];
  Alcotest.(check bool) "v0 restored" false (Solver.is_eliminated s v.(0));
  Alcotest.(check bool) "restore counted" true
    ((Solver.stats s).Solver.simp_restored > 0);
  Alcotest.check result_t "sat" Solver.Sat (Solver.solve s);
  (* v0 forces v2 through the restored clause (-v0 or v2) *)
  Alcotest.(check bool) "restored clause propagates" true
    (Solver.value s (Lit.pos v.(2)))

let test_model_extends_over_eliminated () =
  let s = Solver.create () in
  let v = fresh_vars s 3 in
  Solver.add_clause s [ Lit.pos v.(0); Lit.pos v.(1) ];
  Solver.add_clause s [ Lit.neg_of v.(0); Lit.pos v.(2) ];
  Solver.simplify s;
  Alcotest.(check bool) "v0 eliminated" true (Solver.is_eliminated s v.(0));
  (* v0 is no decision variable any more; solving must still extend the
     model over it *)
  Alcotest.check result_t "sat" Solver.Sat (Solver.solve s);
  Alcotest.(check bool) "eliminated var has a model value" true
    (let m = Solver.model s in
     Array.length m > v.(0)
     && List.exists (fun l -> Solver.value s l)
          [ Lit.pos v.(0); Lit.pos v.(1) ])

(* -- DRUP soundness of every elimination rule ----------------------------- *)

let pigeonhole ~simplify ~proof holes =
  let s = Solver.create () in
  Solver.set_simplify s simplify;
  let p = if proof then Some (Solver.start_proof s) else None in
  let pigeons = holes + 1 in
  let v =
    Array.init pigeons (fun _ -> Array.init holes (fun _ -> Solver.new_var s))
  in
  for pg = 0 to pigeons - 1 do
    Solver.add_clause s (List.init holes (fun h -> Lit.pos v.(pg).(h)))
  done;
  for h = 0 to holes - 1 do
    for p1 = 0 to pigeons - 1 do
      for p2 = p1 + 1 to pigeons - 1 do
        Solver.add_clause s [ Lit.neg_of v.(p1).(h); Lit.neg_of v.(p2).(h) ]
      done
    done
  done;
  (s, p)

let test_proof_with_simplification () =
  let s, proof = pigeonhole ~simplify:true ~proof:true 5 in
  Alcotest.check result_t "unsat" Solver.Unsat (Solver.solve s);
  Alcotest.(check bool) "simplification actually ran" true
    ((Solver.stats s).Solver.simp_rounds > 0);
  match proof with
  | None -> assert false
  | Some p -> Alcotest.(check bool) "certified" true (Drup_check.certified p)

let test_proof_with_bve_and_subsumption () =
  (* an instance built so that subsumption, strengthening and BVE all fire
     before the UNSAT conclusion; the trace must still replay *)
  let s = Solver.create () in
  Solver.set_simplify s true;
  let proof = Solver.start_proof s in
  let v = fresh_vars s 6 in
  List.iter (Solver.add_clause s)
    [
      [ Lit.pos v.(0); Lit.pos v.(1) ];
      [ Lit.pos v.(0); Lit.pos v.(1); Lit.pos v.(2) ] (* subsumed *);
      [ Lit.pos v.(0); Lit.neg_of v.(1); Lit.pos v.(2) ] (* strengthens *);
      [ Lit.neg_of v.(0); Lit.pos v.(3) ] (* BVE candidate on v0 *);
      [ Lit.neg_of v.(2); Lit.pos v.(4) ];
      [ Lit.neg_of v.(3); Lit.pos v.(5) ];
      [ Lit.neg_of v.(4); Lit.neg_of v.(5) ];
      [ Lit.pos v.(2) ];
      [ Lit.pos v.(3) ];
    ];
  Alcotest.check result_t "unsat" Solver.Unsat (Solver.solve s);
  Alcotest.(check bool) "certified" true (Drup_check.certified proof)

(* -- Fig. 2 benchmarks, certified with simplification (the CI gate) ------- *)

let test_figure2_certified () =
  List.iter
    (fun name ->
      match Suite.find name with
      | None -> Alcotest.fail ("unknown benchmark " ^ name)
      | Some b ->
        let ctx = Ast.create_ctx () in
        let f = b.Suite.build ctx in
        let r =
          Decide.decide ~deadline:(Deadline.after 60.) ~certify:true
            ~simplify:true ctx f
        in
        (match r.Decide.verdict with
        | Verdict.Valid -> ()
        | Verdict.Invalid _ -> Alcotest.fail (name ^ ": expected valid")
        | Verdict.Unknown why -> Alcotest.fail (name ^ ": unknown: " ^ why));
        Alcotest.(check (option bool))
          (name ^ " DRUP-certified")
          (Some true) r.Decide.certified)
    [ "pipe.3"; "cache.5"; "tv.1" ]

(* -- Threshold ablation under inprocessing -------------------------------- *)

let test_sweep_verdicts_simplify_invariant () =
  List.iter
    (fun (name, bug) ->
      match Suite.find name with
      | None -> Alcotest.fail ("unknown benchmark " ^ name)
      | Some b ->
        let verdicts_with simplify =
          List.map
            (fun t ->
              let ctx = Ast.create_ctx () in
              let f = b.Suite.build ?bug ctx in
              let r =
                Decide.decide ~method_:(Decide.Hybrid_at t)
                  ~deadline:(Deadline.after 60.) ~simplify ctx f
              in
              ( t,
                match r.Decide.verdict with
                | Verdict.Valid -> "valid"
                | Verdict.Invalid _ -> "invalid"
                | Verdict.Unknown _ -> "unknown" ))
            (* the ablation's thresholds, pure SD through pure EIJ *)
            [ 0; 50; 200; 400; 700; 2000; max_int ]
        in
        Alcotest.(check (list (pair int string)))
          (name ^ " per-threshold verdicts agree on/off")
          (verdicts_with false) (verdicts_with true))
    [ ("drv.1", None); ("drv.1", Some true); ("cache.3", None) ]

(* -- Properties ----------------------------------------------------------- *)

let brute_force_sat nvars clauses =
  let rec loop assignment v =
    if v = nvars then
      List.for_all
        (List.exists (fun l ->
             if Lit.sign l then assignment.(Lit.var l)
             else not assignment.(Lit.var l)))
        clauses
    else begin
      assignment.(v) <- true;
      loop assignment (v + 1)
      ||
      (assignment.(v) <- false;
       loop assignment (v + 1))
    end
  in
  loop (Array.make nvars false) 0

let gen_cnf ~nvars ~nclauses ~width =
  QCheck2.Gen.(
    list_size (int_bound nclauses)
      (list_size (int_range 1 width)
         (map2 (fun v s -> Lit.make v s) (int_bound (nvars - 1)) bool)))

let solve_with ~simplify nvars clauses =
  let s = Solver.create () in
  Solver.set_simplify s simplify;
  for _ = 1 to nvars do
    ignore (Solver.new_var s)
  done;
  List.iter (Solver.add_clause s) clauses;
  (Solver.solve s, s)

(* Equisatisfiability: simplified and plain search agree, and a simplified
   Sat answer's reconstructed model satisfies every ORIGINAL clause. *)
let prop_equisat_random_cnf =
  QCheck2.Test.make ~name:"simplified solver agrees with plain" ~count:400
    (gen_cnf ~nvars:12 ~nclauses:55 ~width:3)
    (fun clauses ->
      let plain, _ = solve_with ~simplify:false 12 clauses in
      let simplified, s = solve_with ~simplify:true 12 clauses in
      plain = simplified
      &&
      match simplified with
      | Solver.Sat ->
        List.for_all (List.exists (fun l -> Solver.value s l)) clauses
      | Solver.Unsat | Solver.Unknown -> true)

(* A forced preprocessing pass (Solver.simplify) preserves the verdict even
   when [solve] would not have scheduled one. *)
let prop_forced_simplify_equisat =
  QCheck2.Test.make ~name:"forced simplify preserves verdict" ~count:300
    (gen_cnf ~nvars:10 ~nclauses:40 ~width:4)
    (fun clauses ->
      let s = Solver.create () in
      for _ = 1 to 10 do
        ignore (Solver.new_var s)
      done;
      List.iter (Solver.add_clause s) clauses;
      Solver.simplify s;
      match Solver.solve s with
      | Solver.Sat ->
        List.for_all (List.exists (fun l -> Solver.value s l)) clauses
      | Solver.Unsat -> not (brute_force_sat 10 clauses)
      | Solver.Unknown -> false)

(* Every UNSAT answer under simplification carries a certifiable DRUP
   trace — elimination must not punch holes in the proof. *)
let prop_unsat_simplified_certifies =
  QCheck2.Test.make ~name:"simplified unsat proofs certify" ~count:300
    (gen_cnf ~nvars:10 ~nclauses:55 ~width:3)
    (fun clauses ->
      let s = Solver.create () in
      Solver.set_simplify s true;
      let proof = Solver.start_proof s in
      for _ = 1 to 10 do
        ignore (Solver.new_var s)
      done;
      List.iter (Solver.add_clause s) clauses;
      Solver.simplify s;
      match Solver.solve s with
      | Solver.Unsat -> Drup_check.certified proof
      | Solver.Sat | Solver.Unknown -> true)

(* Incremental discipline: two rounds of clause increments on one
   simplifying solver. The second batch (units included) ranges over the
   variables the first solve may have eliminated; each round agrees with the
   brute-force oracle, a Sat model satisfies every clause added so far, and
   no variable of the second batch is left eliminated once it is added. *)
let gen_two_batches ~nvars =
  let lit = QCheck2.Gen.(map2 Lit.make (int_bound (nvars - 1)) bool) in
  QCheck2.Gen.(
    triple
      (gen_cnf ~nvars ~nclauses:40 ~width:3)
      (gen_cnf ~nvars ~nclauses:8 ~width:3)
      (list_size (int_bound 4) lit))

let prop_clause_increments_simplified =
  QCheck2.Test.make
    ~name:"clause increments under inprocessing agree with oracle" ~count:300
    (gen_two_batches ~nvars:10)
    (fun (first, second, units) ->
      let s = Solver.create () in
      Solver.set_simplify s true;
      for _ = 1 to 10 do
        ignore (Solver.new_var s)
      done;
      let agrees clauses =
        match Solver.solve s with
        | Solver.Sat ->
          List.for_all (List.exists (fun l -> Solver.value s l)) clauses
        | Solver.Unsat -> not (brute_force_sat 10 clauses)
        | Solver.Unknown -> false
      in
      List.iter (Solver.add_clause s) first;
      let round1 = agrees first in
      let batch = second @ List.map (fun l -> [ l ]) units in
      List.iter (Solver.add_clause s) batch;
      let restored =
        List.for_all
          (List.for_all (fun l -> not (Solver.is_eliminated s (Lit.var l))))
          batch
      in
      round1 && restored && agrees (first @ batch))

(* The full SUF pipeline: verdicts with and without simplification agree on
   the same random formula (the differential fuzzer's core check, kept here
   as a fast deterministic battery). *)
let prop_suf_verdicts_agree =
  QCheck2.Test.make ~name:"SUF verdicts agree simplify on/off" ~count:200
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let decide simplify =
        let ctx = Ast.create_ctx () in
        let f = Random_formula.generate Random_formula.small ctx ~seed in
        (Decide.decide ~deadline:(Deadline.after 10.) ~simplify ctx f)
          .Decide.verdict
      in
      match (decide false, decide true) with
      | Verdict.Valid, Verdict.Valid -> true
      | Verdict.Invalid _, Verdict.Invalid _ -> true
      | Verdict.Unknown _, _ | _, Verdict.Unknown _ -> true
      | _ -> false)

let () =
  Alcotest.run "simplify"
    [
      ( "rules",
        [
          Alcotest.test_case "subsumption" `Quick test_subsumption;
          Alcotest.test_case "self-subsumption" `Quick test_self_subsumption;
          Alcotest.test_case "bve + reconstruction" `Quick
            test_bve_eliminates_and_reconstructs;
          Alcotest.test_case "blocked clause" `Quick test_blocked_clause;
        ] );
      ( "incremental",
        [
          Alcotest.test_case "increment after unsat" `Quick
            test_increment_after_unsat;
          Alcotest.test_case "restore on add" `Quick test_restore_on_add;
          Alcotest.test_case "model extends over eliminated var" `Quick
            test_model_extends_over_eliminated;
          QCheck_alcotest.to_alcotest prop_clause_increments_simplified;
        ] );
      ( "proof",
        [
          Alcotest.test_case "pigeonhole certifies" `Slow
            test_proof_with_simplification;
          Alcotest.test_case "bve + subsumption certify" `Quick
            test_proof_with_bve_and_subsumption;
          QCheck_alcotest.to_alcotest prop_unsat_simplified_certifies;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "fig2 certified with simplification" `Slow
            test_figure2_certified;
          Alcotest.test_case "sweep verdicts invariant" `Slow
            test_sweep_verdicts_simplify_invariant;
          QCheck_alcotest.to_alcotest prop_suf_verdicts_agree;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_equisat_random_cnf;
          QCheck_alcotest.to_alcotest prop_forced_simplify_equisat;
        ] );
    ]
