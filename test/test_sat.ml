(* Tests for the CDCL SAT solver: unit behaviours, structured UNSAT
   instances, DIMACS I/O, and property tests against a brute-force
   reference. *)

module Solver = Sepsat_sat.Solver
module Lit = Sepsat_sat.Lit
module Dimacs = Sepsat_sat.Dimacs
module Deadline = Sepsat_util.Deadline

let result_t =
  Alcotest.testable
    (fun ppf r ->
      Format.pp_print_string ppf
        (match r with
        | Solver.Sat -> "sat"
        | Solver.Unsat -> "unsat"
        | Solver.Unknown -> "unknown"))
    ( = )

let test_lit () =
  let l = Lit.make 3 true in
  Alcotest.(check int) "var" 3 (Lit.var l);
  Alcotest.(check bool) "sign" true (Lit.sign l);
  Alcotest.(check bool) "neg sign" false (Lit.sign (Lit.neg l));
  Alcotest.(check int) "neg var" 3 (Lit.var (Lit.neg l));
  Alcotest.(check bool) "double neg" true (Lit.equal l (Lit.neg (Lit.neg l)));
  Alcotest.(check int) "dimacs" 4 (Lit.to_dimacs l);
  Alcotest.(check int) "dimacs neg" (-4) (Lit.to_dimacs (Lit.neg l));
  Alcotest.(check bool) "of_dimacs" true
    (Lit.equal l (Lit.of_dimacs (Lit.to_dimacs l)))

let test_empty_problem () =
  let s = Solver.create () in
  Alcotest.check result_t "no clauses" Solver.Sat (Solver.solve s)

let test_unit_propagation () =
  let s = Solver.create () in
  let a = Solver.new_var s and b = Solver.new_var s and c = Solver.new_var s in
  Solver.add_clause s [ Lit.pos a ];
  Solver.add_clause s [ Lit.neg_of a; Lit.pos b ];
  Solver.add_clause s [ Lit.neg_of b; Lit.pos c ];
  Alcotest.check result_t "sat" Solver.Sat (Solver.solve s);
  Alcotest.(check bool) "a" true (Solver.value s (Lit.pos a));
  Alcotest.(check bool) "b" true (Solver.value s (Lit.pos b));
  Alcotest.(check bool) "c" true (Solver.value s (Lit.pos c))

let test_simple_unsat () =
  let s = Solver.create () in
  let a = Solver.new_var s and b = Solver.new_var s in
  List.iter (Solver.add_clause s)
    [
      [ Lit.pos a; Lit.pos b ];
      [ Lit.pos a; Lit.neg_of b ];
      [ Lit.neg_of a; Lit.pos b ];
      [ Lit.neg_of a; Lit.neg_of b ];
    ];
  Alcotest.check result_t "unsat" Solver.Unsat (Solver.solve s)

let test_empty_clause () =
  let s = Solver.create () in
  Solver.add_clause s [];
  Alcotest.check result_t "unsat" Solver.Unsat (Solver.solve s)

let test_tautology_dropped () =
  let s = Solver.create () in
  let a = Solver.new_var s in
  Solver.add_clause s [ Lit.pos a; Lit.neg_of a ];
  Alcotest.check result_t "sat" Solver.Sat (Solver.solve s)

let test_duplicate_literals () =
  let s = Solver.create () in
  let a = Solver.new_var s and b = Solver.new_var s in
  Solver.add_clause s [ Lit.pos a; Lit.pos a; Lit.pos b ];
  Solver.add_clause s [ Lit.neg_of a; Lit.neg_of a ];
  Alcotest.check result_t "sat" Solver.Sat (Solver.solve s);
  Alcotest.(check bool) "b true" true (Solver.value s (Lit.pos b))

let pigeonhole holes =
  (* holes+1 pigeons into [holes] holes: classic hard UNSAT family. *)
  let s = Solver.create () in
  let pigeons = holes + 1 in
  let v = Array.init pigeons (fun _ -> Array.init holes (fun _ -> Solver.new_var s)) in
  for p = 0 to pigeons - 1 do
    Solver.add_clause s (List.init holes (fun h -> Lit.pos v.(p).(h)))
  done;
  for h = 0 to holes - 1 do
    for p1 = 0 to pigeons - 1 do
      for p2 = p1 + 1 to pigeons - 1 do
        Solver.add_clause s [ Lit.neg_of v.(p1).(h); Lit.neg_of v.(p2).(h) ]
      done
    done
  done;
  s

let test_pigeonhole () =
  List.iter
    (fun holes ->
      Alcotest.check result_t
        (Printf.sprintf "php %d" holes)
        Solver.Unsat
        (Solver.solve (pigeonhole holes)))
    [ 2; 3; 4; 5 ]

let test_incremental () =
  let s = Solver.create () in
  let a = Solver.new_var s and b = Solver.new_var s in
  Solver.add_clause s [ Lit.pos a; Lit.pos b ];
  Alcotest.check result_t "sat 1" Solver.Sat (Solver.solve s);
  (* Block the model and re-solve until exhaustion: three models exist. *)
  let count = ref 0 in
  let rec loop () =
    match Solver.solve s with
    | Solver.Sat ->
      incr count;
      let blocking =
        List.map
          (fun v ->
            if Solver.value s (Lit.pos v) then Lit.neg_of v else Lit.pos v)
          [ a; b ]
      in
      Solver.add_clause s blocking;
      loop ()
    | Solver.Unsat -> ()
    | Solver.Unknown -> Alcotest.fail "unexpected unknown"
  in
  loop ();
  Alcotest.(check int) "model count" 3 !count

let test_deadline_expired () =
  let s = pigeonhole 9 in
  match Solver.solve ~deadline:(Deadline.after (-1.)) s with
  | Solver.Unknown -> ()
  | Solver.Sat | Solver.Unsat -> Alcotest.fail "deadline should fire"

let test_stats () =
  let s = pigeonhole 4 in
  ignore (Solver.solve s);
  let st = Solver.stats s in
  Alcotest.(check bool) "conflicts > 0" true (st.Solver.conflicts > 0);
  Alcotest.(check bool) "decisions > 0" true (st.Solver.decisions > 0);
  Alcotest.(check bool) "propagations > 0" true (st.Solver.propagations > 0)

let test_dimacs_roundtrip () =
  let text = "c comment\np cnf 3 3\n1 -2 0\n2 3 0\n-1 0\n" in
  let cnf = Dimacs.parse text in
  Alcotest.(check int) "nvars" 3 cnf.Dimacs.nvars;
  Alcotest.(check int) "clauses" 3 (List.length cnf.Dimacs.clauses);
  let printed = Format.asprintf "%a" Dimacs.print cnf in
  let cnf2 = Dimacs.parse printed in
  Alcotest.(check bool) "roundtrip" true (cnf = cnf2);
  let s = Solver.create () in
  Dimacs.load_into s cnf;
  Alcotest.check result_t "solves" Solver.Sat (Solver.solve s);
  Alcotest.(check bool) "x1 false" false (Solver.value s (Lit.of_dimacs 1))

let test_export_cnf () =
  let s = Solver.create () in
  let a = Solver.new_var s and b = Solver.new_var s in
  Solver.add_clause s [ Lit.pos a ] (* becomes a root-level fact *);
  Solver.add_clause s [ Lit.neg_of a; Lit.pos b ];
  let nvars, clauses = Solver.export_cnf s in
  Alcotest.(check int) "nvars" 2 nvars;
  (* reload into a fresh solver: must be satisfiable with the same forced
     values *)
  let s2 = Solver.create () in
  Dimacs.load_into s2 { Dimacs.nvars; clauses };
  Alcotest.check result_t "reload solves" Solver.Sat (Solver.solve s2);
  Alcotest.(check bool) "a forced" true (Solver.value s2 (Lit.pos a));
  Alcotest.(check bool) "b forced" true (Solver.value s2 (Lit.pos b))

let test_dimacs_errors () =
  Alcotest.(check bool) "bad token"
    true
    (match Dimacs.parse "p cnf 1 1\nfoo 0\n" with
    | exception Failure _ -> true
    | _ -> false);
  Alcotest.(check bool) "unterminated"
    true
    (match Dimacs.parse "p cnf 1 1\n1" with
    | exception Failure _ -> true
    | _ -> false)

(* -- DRUP proofs ---------------------------------------------------------- *)

module Proof = Sepsat_sat.Proof
module Drup_check = Sepsat_sat.Drup_check

let drup_result_t =
  Alcotest.testable
    (fun ppf r ->
      Format.pp_print_string ppf
        (match r with
        | Drup_check.Certified -> "certified"
        | Drup_check.Incomplete -> "incomplete"
        | Drup_check.Bogus m -> "bogus: " ^ m))
    (fun a b ->
      match (a, b) with
      | Drup_check.Certified, Drup_check.Certified -> true
      | Drup_check.Incomplete, Drup_check.Incomplete -> true
      | Drup_check.Bogus _, Drup_check.Bogus _ -> true
      | _ -> false)

let test_proof_unsat_certifies () =
  let s = Solver.create () in
  let proof = Solver.start_proof s in
  let a = Solver.new_var s and b = Solver.new_var s in
  List.iter (Solver.add_clause s)
    [
      [ Lit.pos a; Lit.pos b ];
      [ Lit.pos a; Lit.neg_of b ];
      [ Lit.neg_of a; Lit.pos b ];
      [ Lit.neg_of a; Lit.neg_of b ];
    ];
  Alcotest.check result_t "unsat" Solver.Unsat (Solver.solve s);
  Alcotest.check drup_result_t "certified" Drup_check.Certified
    (Drup_check.check (Proof.steps proof));
  Alcotest.(check bool) "certified fn" true (Drup_check.certified proof)

let test_proof_pigeonhole_certifies () =
  let s = pigeonhole 5 in
  (* recreate with proof enabled *)
  let s2 = Solver.create () in
  let proof = Solver.start_proof s2 in
  ignore s;
  let holes = 5 in
  let pigeons = holes + 1 in
  let v =
    Array.init pigeons (fun _ -> Array.init holes (fun _ -> Solver.new_var s2))
  in
  for p = 0 to pigeons - 1 do
    Solver.add_clause s2 (List.init holes (fun h -> Lit.pos v.(p).(h)))
  done;
  for h = 0 to holes - 1 do
    for p1 = 0 to pigeons - 1 do
      for p2 = p1 + 1 to pigeons - 1 do
        Solver.add_clause s2 [ Lit.neg_of v.(p1).(h); Lit.neg_of v.(p2).(h) ]
      done
    done
  done;
  Alcotest.check result_t "unsat" Solver.Unsat (Solver.solve s2);
  Alcotest.(check bool) "certified" true (Drup_check.certified proof)

let test_proof_sat_incomplete () =
  let s = Solver.create () in
  let proof = Solver.start_proof s in
  let a = Solver.new_var s in
  Solver.add_clause s [ Lit.pos a ];
  Alcotest.check result_t "sat" Solver.Sat (Solver.solve s);
  Alcotest.check drup_result_t "incomplete" Drup_check.Incomplete
    (Drup_check.check (Proof.steps proof))

let test_proof_tampering_detected () =
  (* a fabricated trace claiming an underivable clause must be rejected *)
  let a = Lit.of_dimacs 1 and b = Lit.of_dimacs 2 in
  let bogus =
    [
      Proof.Input [ a; b ];
      Proof.Learned [ Lit.neg a ] (* not RUP from (a or b) *);
      Proof.Learned [];
    ]
  in
  (match Drup_check.check bogus with
  | Drup_check.Bogus _ -> ()
  | Drup_check.Certified | Drup_check.Incomplete ->
    Alcotest.fail "tampered proof accepted");
  (* and a trace without the empty clause proves nothing *)
  let partial = [ Proof.Input [ a ]; Proof.Learned [ a ] ] in
  Alcotest.check drup_result_t "incomplete" Drup_check.Incomplete
    (Drup_check.check partial)

let test_proof_unit_on_first_watch () =
  (* Adding (2 6) after 9 and (-2 -9) have forced -2: the clause's first
     sorted literal is false and its second unassigned, so it is unit and
     must propagate 6 for the empty clause to be RUP. *)
  let c = List.map Lit.of_dimacs in
  let trace =
    [
      Proof.Input (c [ -6; 7 ]);
      Proof.Input (c [ -6; -7 ]);
      Proof.Input (c [ -2; -9 ]);
      Proof.Input (c [ 9 ]);
      Proof.Input (c [ 2; 6 ]);
      Proof.Learned [];
    ]
  in
  Alcotest.check drup_result_t "certified" Drup_check.Certified
    (Drup_check.check trace)

let test_proof_dimacs_output () =
  let p = Proof.create () in
  Proof.input p [ Lit.of_dimacs 1; Lit.of_dimacs (-2) ];
  Proof.learned p [ Lit.of_dimacs 1 ];
  Proof.deleted p [ Lit.of_dimacs 1; Lit.of_dimacs (-2) ];
  let text = Format.asprintf "%a" Proof.pp_dimacs p in
  Alcotest.(check bool) "has comment" true
    (String.length text > 0 && text.[0] = 'c');
  Alcotest.(check bool) "has delete line" true
    (String.split_on_char '\n' text |> List.exists (fun l ->
         String.length l > 0 && l.[0] = 'd'))

(* -- Properties: random CNF vs brute force ------------------------------- *)

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

let test_proof_deletion_honoured () =
  (* After deleting the only clause that could support the inference, the
     learned clause is no longer RUP. *)
  let a = Lit.of_dimacs 1 and b = Lit.of_dimacs 2 in
  let trace_ok =
    [
      Proof.Input [ a; b ];
      Proof.Input [ a; Lit.neg b ];
      Proof.Learned [ a ] (* RUP: assume -1; both inputs propagate 2, -2 *);
      Proof.Input [ Lit.neg a ];
      Proof.Learned [];
    ]
  in
  Alcotest.check drup_result_t "valid trace" Drup_check.Certified
    (Drup_check.check trace_ok);
  let trace_deleted =
    [
      Proof.Input [ a; b ];
      Proof.Input [ a; Lit.neg b ];
      Proof.Deleted [ a; Lit.neg b ];
      Proof.Learned [ a ];
      Proof.Input [ Lit.neg a ];
      Proof.Learned [];
    ]
  in
  (match Drup_check.check trace_deleted with
  | Drup_check.Bogus _ -> ()
  | Drup_check.Certified | Drup_check.Incomplete ->
    Alcotest.fail "deleted support should break the RUP check")

let test_proof_phantom_deletion () =
  (* deleting a clause that was never added is a no-op, not an error; the
     rest of the trace must still replay *)
  let a = Lit.of_dimacs 1 and b = Lit.of_dimacs 2 and c = Lit.of_dimacs 3 in
  let trace =
    [
      Proof.Input [ a ];
      Proof.Deleted [ b; c ] (* never added *);
      Proof.Deleted [ a; b ] (* never added either *);
      Proof.Input [ Lit.neg a ];
      Proof.Learned [];
    ]
  in
  Alcotest.check drup_result_t "phantom deletion ignored" Drup_check.Certified
    (Drup_check.check trace)

let test_proof_reactivation () =
  (* The lemma's support (a -b) is deleted after the lemma: checking the
     lemma must see the database as it was at the lemma's step. *)
  let a = Lit.of_dimacs 1 and b = Lit.of_dimacs 2 in
  Alcotest.check drup_result_t "certified" Drup_check.Certified
    (Drup_check.check
       [
         Proof.Input [ a; b ];
         Proof.Input [ a; Lit.neg b ];
         Proof.Learned [ a ];
         Proof.Deleted [ a; Lit.neg b ];
         Proof.Deleted [ a; b ];
         Proof.Input [ Lit.neg a ];
         Proof.Learned [];
       ])

let test_proof_core_only () =
  (* Only the lemmas the refutation depends on are checked: a bogus lemma
     on the way to the conflict is reported at its step, an unused one is
     not reported at all. *)
  let a = Lit.of_dimacs 1 and b = Lit.of_dimacs 2 and c = Lit.of_dimacs 3 in
  (match
     Drup_check.check
       [
         Proof.Input [ a; b ];
         Proof.Learned [ Lit.neg a ] (* not RUP, and used below *);
         Proof.Input [ a ];
         Proof.Learned [];
       ]
   with
  | Drup_check.Bogus m ->
    Alcotest.(check string)
      "reported at its step" "step 2: clause {-1} is not RUP" m
  | Drup_check.Certified | Drup_check.Incomplete ->
    Alcotest.fail "used bogus lemma accepted");
  Alcotest.check drup_result_t "unused bogus lemma ignored" Drup_check.Certified
    (Drup_check.check
       [
         Proof.Input [ a; b ];
         Proof.Learned [ c ] (* not RUP, and never used *);
         Proof.Input [ Lit.neg a ];
         Proof.Input [ Lit.neg b ];
         Proof.Learned [];
       ])

let test_proof_metrics () =
  (* The lemma count and the checked-core count go to [Metrics]. *)
  let module Metrics = Sepsat_obs.Metrics in
  let a = Lit.of_dimacs 1 and b = Lit.of_dimacs 2 and c = Lit.of_dimacs 3 in
  let lemmas = Metrics.counter "drup.lemmas" in
  let checked = Metrics.counter "drup.core_checked" in
  Sepsat_obs.Obs.enable ();
  Fun.protect ~finally:Sepsat_obs.Obs.disable (fun () ->
      let l0 = Metrics.get lemmas and c0 = Metrics.get checked in
      Alcotest.check drup_result_t "certified" Drup_check.Certified
        (Drup_check.check
           [
             Proof.Input [ a; b ];
             Proof.Input [ a; Lit.neg b ];
             Proof.Learned [ c; Lit.neg c ];
             Proof.Learned [ a ];
             Proof.Input [ Lit.neg a ];
             Proof.Learned [];
           ]);
      Alcotest.(check int) "lemmas" 3 (Metrics.get lemmas - l0);
      Alcotest.(check int) "core lemmas checked" 1 (Metrics.get checked - c0))

let test_proof_empty_learned () =
  let a = Lit.of_dimacs 1 in
  (* the empty clause is RUP exactly when propagation alone conflicts *)
  Alcotest.check drup_result_t "empty clause from contradictory units"
    Drup_check.Certified
    (Drup_check.check [ Proof.Input [ a ]; Proof.Input [ Lit.neg a ];
                        Proof.Learned [] ]);
  (* ... and Bogus when the database is satisfiable *)
  (match Drup_check.check [ Proof.Input [ a ]; Proof.Learned [] ] with
  | Drup_check.Bogus _ -> ()
  | Drup_check.Certified | Drup_check.Incomplete ->
    Alcotest.fail "empty clause learned from a satisfiable database");
  (* unit deletions are ignored (lenient DRUP), so the conclusion stands *)
  Alcotest.check drup_result_t "unit deletion ignored" Drup_check.Certified
    (Drup_check.check
       [ Proof.Input [ a ]; Proof.Deleted [ a ]; Proof.Input [ Lit.neg a ];
         Proof.Learned [] ])

let test_proof_across_restarts () =
  (* restarts inside one search: the pigeonhole trace below forces enough
     conflicts that the Luby scheduler fires; the trace must still replay *)
  let s = Solver.create () in
  let proof = Solver.start_proof s in
  let holes = 5 in
  let v =
    Array.init (holes + 1) (fun _ ->
        Array.init holes (fun _ -> Solver.new_var s))
  in
  for p = 0 to holes do
    Solver.add_clause s (List.init holes (fun h -> Lit.pos v.(p).(h)))
  done;
  for h = 0 to holes - 1 do
    for p1 = 0 to holes do
      for p2 = p1 + 1 to holes do
        Solver.add_clause s [ Lit.neg_of v.(p1).(h); Lit.neg_of v.(p2).(h) ]
      done
    done
  done;
  Alcotest.check result_t "unsat" Solver.Unsat (Solver.solve s);
  Alcotest.(check bool) "search restarted" true
    ((Solver.stats s).Solver.restarts > 0);
  Alcotest.(check bool) "certified across restarts" true
    (Drup_check.certified proof);
  (* restarts across solve calls: a proof spanning a Sat answer, later
     clause additions and a final Unsat must also replay *)
  let s2 = Solver.create () in
  let proof2 = Solver.start_proof s2 in
  let x = Solver.new_var s2 and y = Solver.new_var s2 in
  Solver.add_clause s2 [ Lit.pos x; Lit.pos y ];
  Alcotest.check result_t "first solve sat" Solver.Sat (Solver.solve s2);
  Alcotest.check drup_result_t "sat stage incomplete" Drup_check.Incomplete
    (Drup_check.check (Proof.steps proof2));
  Solver.add_clause s2 [ Lit.neg_of x ];
  Solver.add_clause s2 [ Lit.neg_of y ];
  Alcotest.check result_t "second solve unsat" Solver.Unsat (Solver.solve s2);
  Alcotest.(check bool) "certified across solves" true
    (Drup_check.certified proof2)

(* Property: every UNSAT answer on random CNF comes with a certifiable
   proof, with the simplifier on (its resolvents and deletions are in the
   trace) and off. *)
let prop_random_unsat_certifies =
  QCheck2.Test.make ~name:"random unsat proofs certify" ~count:300
    (gen_cnf ~nvars:10 ~nclauses:55 ~width:3)
    (fun clauses ->
      List.for_all
        (fun simplify ->
          let s = Solver.create () in
          Solver.set_simplify s simplify;
          let proof = Solver.start_proof s in
          for _ = 1 to 10 do
            ignore (Solver.new_var s)
          done;
          List.iter (Solver.add_clause s) clauses;
          match Solver.solve s with
          | Solver.Unsat -> Drup_check.certified proof
          | Solver.Sat | Solver.Unknown -> true)
        [ false; true ])

(* Property: the checker is sound. A satisfiable CNF followed by random
   lemmas (most of them not RUP), random deletions and a final empty clause
   is never certified, whichever lemmas the refutation happens to use. *)
let prop_sat_cnf_never_certified =
  let open QCheck2.Gen in
  let gen =
    let* nvars = int_range 2 12 in
    let lit = map2 Lit.make (int_bound (nvars - 1)) bool in
    let extra =
      triple (int_bound 2) (int_bound 100) (list_size (int_range 1 3) lit)
    in
    let* cnf = gen_cnf ~nvars ~nclauses:(3 * nvars) ~width:3 in
    let* extras = list_size (int_bound 20) extra in
    return (nvars, (cnf, extras))
  in
  let trace (cnf, extras) =
    List.map (fun c -> Proof.Input c) cnf
    @ List.map
        (fun (kind, i, c) ->
          match kind with
          | 0 -> Proof.Learned c
          | 1 -> Proof.Deleted c
          | _ when cnf = [] -> Proof.Deleted c
          | _ -> Proof.Deleted (List.nth cnf (i mod List.length cnf)))
        extras
    @ [ Proof.Learned [] ]
  in
  let print x =
    Format.asprintf "%a"
      (Format.pp_print_list (fun ppf step ->
           let kind, c =
             match step with
             | Proof.Input c -> ("i", c)
             | Proof.Learned c -> ("l", c)
             | Proof.Deleted c -> ("d", c)
           in
           Format.fprintf ppf "%s %a" kind
             (Format.pp_print_list ~pp_sep:Format.pp_print_space Lit.pp)
             c))
      (trace x)
  in
  QCheck2.Test.make ~name:"satisfiable cnf never certified" ~count:500
    ~print:(fun (_, x) -> print x)
    gen (fun (nvars, ((cnf, _) as x)) ->
      (not (brute_force_sat nvars cnf))
      || Drup_check.check (trace x) <> Drup_check.Certified)

let prop_random_cnf ~name ~nvars ~nclauses ~width ~count =
  QCheck2.Test.make ~name ~count (gen_cnf ~nvars ~nclauses ~width)
    (fun clauses ->
      let s = Solver.create () in
      for _ = 1 to nvars do
        ignore (Solver.new_var s)
      done;
      List.iter (Solver.add_clause s) clauses;
      match Solver.solve s with
      | Solver.Sat ->
        (* the model must satisfy every clause *)
        List.for_all (List.exists (fun l -> Solver.value s l)) clauses
      | Solver.Unsat -> not (brute_force_sat nvars clauses)
      | Solver.Unknown -> false)

(* -- Incremental interface: clause hygiene, cancellation ------------------ *)

let test_eliminated_stat () =
  let s = Solver.create () in
  let a = Solver.new_var s and b = Solver.new_var s in
  Solver.add_clause s [ Lit.pos a; Lit.neg_of a; Lit.pos b ] (* tautology *);
  Alcotest.(check int) "tautology eliminated" 1
    (Solver.stats s).Solver.eliminated;
  Solver.add_clause s [ Lit.pos a ];
  Solver.add_clause s [ Lit.pos a; Lit.pos b ] (* satisfied at root *);
  Alcotest.(check int) "root-satisfied eliminated" 2
    (Solver.stats s).Solver.eliminated;
  Alcotest.check result_t "sat" Solver.Sat (Solver.solve s)

let test_add_clause_hygiene () =
  let s = Solver.create () in
  let proof = Solver.start_proof s in
  let a = Solver.new_var s and b = Solver.new_var s in
  let c = Solver.new_var s and d = Solver.new_var s in
  let pa = Lit.pos a and pb = Lit.pos b and pc = Lit.pos c and pd = Lit.pos d in
  Solver.add_clause_array s [| pb; pa; pa; pb; pa |] (* duplicates *);
  Solver.add_clause_array s [| pc; Lit.neg pb; pb |] (* tautology *);
  Alcotest.(check int) "tautology eliminated" 1
    (Solver.stats s).Solver.eliminated;
  Solver.add_clause_array s [| Lit.neg pa |];
  Solver.add_clause_array s [| pd; pa; pc |] (* a is false at the root *);
  Solver.add_clause s [ Lit.neg pc ];
  Solver.add_clause s [ Lit.neg pd ];
  let steps = Proof.steps proof in
  let expected =
    Proof.
      [
        Input [ pa; pb ];
        Input [ pb; Lit.neg pb; pc ];
        Input [ Lit.neg pa ];
        Input [ pa; pc; pd ];
        Learned [ pc; pd ];
        Input [ Lit.neg pc ];
      ]
  in
  Alcotest.(check bool) "input and learned steps" true
    (List.filteri (fun i _ -> i < List.length expected) steps = expected);
  Alcotest.check result_t "unsat" Solver.Unsat (Solver.solve s);
  Alcotest.(check bool) "certified" true (Drup_check.certified proof)

let test_stop_flag () =
  (* A pigeonhole instance that cannot finish before the first restart, where
     [solve] polls the deadline; cancelling goes through the deadline's stop
     flag, the one cancellation channel. *)
  let s = pigeonhole 8 in
  let flag = Atomic.make true in
  let deadline = Deadline.with_stop Deadline.none flag in
  Alcotest.check result_t "cancelled" Solver.Unknown (Solver.solve ~deadline s);
  Alcotest.(check bool) "interrupted" true (Deadline.interrupted deadline);
  Atomic.set flag false;
  Alcotest.check result_t "resumes to unsat" Solver.Unsat
    (Solver.solve ~deadline s)

let () =
  Alcotest.run "sat"
    [
      ("lit", [ Alcotest.test_case "basics" `Quick test_lit ]);
      ( "solver",
        [
          Alcotest.test_case "empty problem" `Quick test_empty_problem;
          Alcotest.test_case "unit propagation" `Quick test_unit_propagation;
          Alcotest.test_case "simple unsat" `Quick test_simple_unsat;
          Alcotest.test_case "empty clause" `Quick test_empty_clause;
          Alcotest.test_case "tautology" `Quick test_tautology_dropped;
          Alcotest.test_case "duplicate literals" `Quick test_duplicate_literals;
          Alcotest.test_case "pigeonhole" `Slow test_pigeonhole;
          Alcotest.test_case "incremental" `Quick test_incremental;
          Alcotest.test_case "deadline" `Quick test_deadline_expired;
          Alcotest.test_case "stats" `Quick test_stats;
        ] );
      ( "dimacs",
        [
          Alcotest.test_case "roundtrip" `Quick test_dimacs_roundtrip;
          Alcotest.test_case "errors" `Quick test_dimacs_errors;
          Alcotest.test_case "export" `Quick test_export_cnf;
        ] );
      ( "proof",
        [
          Alcotest.test_case "unsat certifies" `Quick test_proof_unsat_certifies;
          Alcotest.test_case "pigeonhole certifies" `Slow
            test_proof_pigeonhole_certifies;
          Alcotest.test_case "sat is incomplete" `Quick test_proof_sat_incomplete;
          Alcotest.test_case "tampering detected" `Quick
            test_proof_tampering_detected;
          Alcotest.test_case "dimacs output" `Quick test_proof_dimacs_output;
          Alcotest.test_case "unit on first watch" `Quick
            test_proof_unit_on_first_watch;
          Alcotest.test_case "deletion honoured" `Quick
            test_proof_deletion_honoured;
          Alcotest.test_case "phantom deletion" `Quick
            test_proof_phantom_deletion;
          Alcotest.test_case "reactivated support" `Quick
            test_proof_reactivation;
          Alcotest.test_case "core-only checking" `Quick test_proof_core_only;
          Alcotest.test_case "lemma metrics" `Quick test_proof_metrics;
          Alcotest.test_case "empty learned clause" `Quick
            test_proof_empty_learned;
          Alcotest.test_case "replay across restarts" `Slow
            test_proof_across_restarts;
          QCheck_alcotest.to_alcotest prop_random_unsat_certifies;
          QCheck_alcotest.to_alcotest prop_sat_cnf_never_certified;
        ] );
      ( "incremental",
        [
          Alcotest.test_case "eliminated stat" `Quick test_eliminated_stat;
          Alcotest.test_case "add_clause hygiene with a proof" `Quick
            test_add_clause_hygiene;
          Alcotest.test_case "stop flag" `Quick test_stop_flag;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest
            (prop_random_cnf ~name:"random 3-cnf (12 vars)" ~nvars:12
               ~nclauses:50 ~width:3 ~count:300);
          QCheck_alcotest.to_alcotest
            (prop_random_cnf ~name:"random wide cnf (10 vars)" ~nvars:10
               ~nclauses:30 ~width:6 ~count:200);
          QCheck_alcotest.to_alcotest
            (prop_random_cnf ~name:"random unit-heavy cnf (8 vars)" ~nvars:8
               ~nclauses:25 ~width:2 ~count:300);
        ] );
    ]
