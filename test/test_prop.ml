(* Tests for the propositional formula manager and Tseitin conversion. *)

module F = Sepsat_prop.Formula
module Tseitin = Sepsat_prop.Tseitin
module Solver = Sepsat_sat.Solver
module Lit = Sepsat_sat.Lit

let test_constants () =
  let ctx = F.create_ctx () in
  Alcotest.(check bool) "tru shared" true (F.tru ctx == F.tru ctx);
  Alcotest.(check bool) "not true = false" true
    (F.not_ ctx (F.tru ctx) == F.fls ctx);
  Alcotest.(check bool) "of_bool" true (F.of_bool ctx true == F.tru ctx)

let test_smart_constructors () =
  let ctx = F.create_ctx () in
  let a = F.fresh_var ctx and b = F.fresh_var ctx in
  Alcotest.(check bool) "and true" true (F.and_ ctx a (F.tru ctx) == a);
  Alcotest.(check bool) "and false" true
    (F.and_ ctx a (F.fls ctx) == F.fls ctx);
  Alcotest.(check bool) "or false" true (F.or_ ctx a (F.fls ctx) == a);
  Alcotest.(check bool) "or true" true (F.or_ ctx a (F.tru ctx) == F.tru ctx);
  Alcotest.(check bool) "idempotent and" true (F.and_ ctx a a == a);
  Alcotest.(check bool) "contradiction" true
    (F.and_ ctx a (F.not_ ctx a) == F.fls ctx);
  Alcotest.(check bool) "excluded middle" true
    (F.or_ ctx a (F.not_ ctx a) == F.tru ctx);
  Alcotest.(check bool) "double negation" true (F.not_ ctx (F.not_ ctx a) == a);
  Alcotest.(check bool) "commutative sharing" true
    (F.and_ ctx a b == F.and_ ctx b a)

let test_derived () =
  let ctx = F.create_ctx () in
  let a = F.fresh_var ctx and b = F.fresh_var ctx in
  let assign_of va vb i = if i = F.var_index a then va else vb in
  List.iter
    (fun (va, vb) ->
      let e = assign_of va vb in
      Alcotest.(check bool) "implies" (not va || vb) (F.eval e (F.implies ctx a b));
      Alcotest.(check bool) "iff" (va = vb) (F.eval e (F.iff ctx a b));
      Alcotest.(check bool) "xor" (va <> vb) (F.eval e (F.xor ctx a b));
      (* ite a b (iff a b): selects b when a holds, (a <=> b) otherwise *)
      Alcotest.(check bool) "ite"
        (if va then vb else va = vb)
        (F.eval e (F.ite ctx a b (F.iff ctx a b))))
    [ (true, true); (true, false); (false, true); (false, false) ]

let test_size_sharing () =
  let ctx = F.create_ctx () in
  let a = F.fresh_var ctx and b = F.fresh_var ctx in
  let ab = F.and_ ctx a b in
  let f = F.or_ ctx ab (F.not_ ctx ab) in
  (* or simplifies x ∨ ¬x to true *)
  Alcotest.(check bool) "tautology folded" true (f == F.tru ctx);
  let g = F.or_ ctx ab (F.and_ ctx ab a) in
  (* and_ ctx ab a is a distinct node; sharing keeps the size small *)
  Alcotest.(check bool) "size bounded" true (F.size g <= 5)

let test_var_errors () =
  let ctx = F.create_ctx () in
  Alcotest.(check bool) "unallocated var rejected" true
    (match F.var ctx 0 with exception Invalid_argument _ -> true | _ -> false);
  let v = F.fresh_var ctx in
  Alcotest.(check bool) "allocated ok" true (F.var ctx 0 == v);
  Alcotest.(check bool) "var_index of non-var" true
    (match F.var_index (F.tru ctx) with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* Random formula generator producing (formula, reference-eval closure). *)
let gen_formula nvars depth =
  let open QCheck2.Gen in
  let rec go ctx depth =
    if depth = 0 then
      oneof
        [
          map (fun i -> F.var ctx (i mod nvars)) (int_bound (nvars - 1));
          pure (F.tru ctx);
          pure (F.fls ctx);
        ]
    else
      oneof
        [
          map (fun i -> F.var ctx (i mod nvars)) (int_bound (nvars - 1));
          map (F.not_ ctx) (go ctx (depth - 1));
          map2 (F.and_ ctx) (go ctx (depth - 1)) (go ctx (depth - 1));
          map2 (F.or_ ctx) (go ctx (depth - 1)) (go ctx (depth - 1));
          map2 (F.xor ctx) (go ctx (depth - 1)) (go ctx (depth - 1));
          map3 (F.ite ctx) (go ctx (depth - 1)) (go ctx (depth - 1))
            (go ctx (depth - 1));
        ]
  in
  let ctx = F.create_ctx () in
  for _ = 1 to nvars do
    ignore (F.fresh_var ctx)
  done;
  map (fun f -> (ctx, f)) (go ctx depth)

(* Property: Tseitin encoding is equisatisfiable and model-faithful. The
   brute-force reference enumerates all assignments of the formula's
   variables. *)
let prop_tseitin_equisat =
  QCheck2.Test.make ~name:"tseitin equisatisfiable" ~count:300
    (gen_formula 5 4) (fun (_ctx, f) ->
      let nvars = 5 in
      let sat_brute =
        let rec loop a v =
          if v = nvars then F.eval (fun i -> a.(i)) f
          else begin
            a.(v) <- true;
            loop a (v + 1)
            ||
            (a.(v) <- false;
             loop a (v + 1))
          end
        in
        loop (Array.make nvars false) 0
      in
      let solver = Solver.create () in
      let ts = Tseitin.create solver in
      Tseitin.assert_root ts f;
      match Solver.solve solver with
      | Solver.Sat ->
        (* the decoded model must satisfy the formula *)
        let assign i =
          match Tseitin.find_var ts i with
          | Some lit -> Solver.value solver lit
          | None -> false
        in
        sat_brute && F.eval assign f
      | Solver.Unsat -> not sat_brute
      | Solver.Unknown -> false)

(* Property: evaluation respects the Boolean algebra laws used by the smart
   constructors. *)
let prop_eval_consistent =
  QCheck2.Test.make ~name:"simplification preserves evaluation" ~count:300
    QCheck2.Gen.(pair (gen_formula 4 4) (array_size (pure 4) bool))
    (fun ((ctx, f), assignment) ->
      let e i = assignment.(i) in
      (* rebuilding the formula through the constructors must not change its
         value *)
      let rec rebuild (g : F.t) =
        match g.F.node with
        | F.True -> F.tru ctx
        | F.False -> F.fls ctx
        | F.Var i -> F.var ctx i
        | F.Not h -> F.not_ ctx (rebuild h)
        | F.And (a, b) -> F.and_ ctx (rebuild a) (rebuild b)
        | F.Or (a, b) -> F.or_ ctx (rebuild a) (rebuild b)
        | F.Clauses cs -> F.clauses ctx cs
      in
      F.eval e f = F.eval e (rebuild f))

let test_tseitin_clause_count () =
  let ctx = F.create_ctx () in
  let vars = Array.init 10 (fun _ -> F.fresh_var ctx) in
  let f = Array.fold_left (F.and_ ctx) (F.tru ctx) vars in
  (* Polarity: the conjunctive root splits into 10 unit clauses, no gates. *)
  let solver = Solver.create () in
  let ts = Tseitin.create solver in
  Tseitin.assert_root ts f;
  Alcotest.(check int) "polarity clauses" 10 (Tseitin.clauses_added ts);
  (* Full: 9 And nodes, 3 clauses each, plus the root unit. *)
  let solver2 = Solver.create () in
  let ts2 = Tseitin.create ~mode:Tseitin.Full solver2 in
  Tseitin.assert_root ts2 f;
  Alcotest.(check int) "full clauses" 28 (Tseitin.clauses_added ts2)

(* Property: the Plaisted-Greenbaum conversion reaches the same verdict as
   the full Tseitin conversion and never emits more clauses. *)
let prop_pg_matches_full =
  QCheck2.Test.make ~name:"polarity and full conversions agree" ~count:300
    (gen_formula 5 4) (fun (_ctx, f) ->
      let run mode =
        let solver = Solver.create () in
        let ts = Tseitin.create ~mode solver in
        Tseitin.assert_root ts f;
        (Solver.solve solver, Tseitin.clauses_added ts)
      in
      let vpg, npg = run Tseitin.Polarity in
      let vfull, nfull = run Tseitin.Full in
      vpg = vfull && npg <= nfull)

(* Property: Full mode keeps models projectable too. *)
let prop_full_model_faithful =
  QCheck2.Test.make ~name:"full tseitin model-faithful" ~count:150
    (gen_formula 4 4) (fun (_ctx, f) ->
      let solver = Solver.create () in
      let ts = Tseitin.create ~mode:Tseitin.Full solver in
      Tseitin.assert_root ts f;
      match Solver.solve solver with
      | Solver.Sat ->
        let assign i =
          match Tseitin.find_var ts i with
          | Some lit -> Solver.value solver lit
          | None -> false
        in
        F.eval assign f
      | Solver.Unsat | Solver.Unknown -> true)

(* -- The flat hash-cons table and Tseitin's dense arrays ------------------ *)

(* Builds [n] random nodes over [nvars] variables, each from earlier nodes,
   so the table grows well past its initial capacity. *)
let random_dag ~seed ~nvars n =
  let rs = Random.State.make [| seed |] in
  let ctx = F.create_ctx () in
  let nodes = Array.make (nvars + n) (F.tru ctx) in
  for i = 0 to nvars - 1 do
    nodes.(i) <- F.fresh_var ctx
  done;
  for i = nvars to nvars + n - 1 do
    let pick () = nodes.(Random.State.int rs i) in
    nodes.(i) <-
      (match Random.State.int rs 5 with
      | 0 -> F.not_ ctx (pick ())
      | 1 | 2 -> F.and_ ctx (pick ()) (pick ())
      | _ -> F.or_ ctx (pick ()) (pick ()))
  done;
  (ctx, nodes)

let children (f : F.t) =
  match f.F.node with
  | F.True | F.False | F.Var _ | F.Clauses _ -> []
  | F.Not g -> [ g ]
  | F.And (a, b) | F.Or (a, b) -> [ a; b ]

let test_hashcons_growth () =
  let ctx, nodes = random_dag ~seed:7 ~nvars:40 60_000 in
  let by_shape = Hashtbl.create 4096 in
  let distinct = Hashtbl.create 4096 in
  Array.iter
    (fun (f : F.t) ->
      Hashtbl.replace distinct f.F.id ();
      List.iter
        (fun (g : F.t) ->
          if g.F.id >= f.F.id then
            Alcotest.failf "child id %d not below parent id %d" g.F.id f.F.id)
        (children f);
      (* Rebuilding a node from its children finds the stored node. *)
      let again =
        match f.F.node with
        | F.True -> F.tru ctx
        | F.False -> F.fls ctx
        | F.Var i -> F.var ctx i
        | F.Not g -> F.not_ ctx g
        | F.And (a, b) -> F.and_ ctx b a
        | F.Or (a, b) -> F.or_ ctx b a
        | F.Clauses _ -> f
      in
      if again != f then Alcotest.failf "node %d rebuilt as a copy" f.F.id;
      (* Structurally equal nodes are one physical node. *)
      let shape =
        match f.F.node with
        | F.True -> (0, -1, -1)
        | F.False -> (1, -1, -1)
        | F.Var i -> (2, i, -1)
        | F.Not g -> (3, g.F.id, -1)
        | F.And (a, b) -> (4, a.F.id, b.F.id)
        | F.Or (a, b) -> (5, a.F.id, b.F.id)
        | F.Clauses _ -> (6, f.F.id, -1)
      in
      match Hashtbl.find_opt by_shape shape with
      | Some g when g != f -> Alcotest.failf "node %d duplicated" f.F.id
      | Some _ -> ()
      | None -> Hashtbl.add by_shape shape f)
    nodes;
  (* Far more nodes than the initial 4096 slots hold at half load. *)
  Alcotest.(check bool) "table grew" true (Hashtbl.length distinct > 16 * 2048)

let reference_size root =
  let seen = Hashtbl.create 64 in
  let rec go (f : F.t) =
    if not (Hashtbl.mem seen f.F.id) then begin
      Hashtbl.add seen f.F.id ();
      List.iter go (children f)
    end
  in
  go root;
  Hashtbl.length seen

let test_size_reference () =
  let _ctx, nodes = random_dag ~seed:11 ~nvars:30 20_000 in
  let rs = Random.State.make [| 3 |] in
  for _ = 1 to 200 do
    let f = nodes.(Random.State.int rs (Array.length nodes)) in
    Alcotest.(check int) "size" (reference_size f) (F.size f)
  done;
  let last = nodes.(Array.length nodes - 1) in
  Alcotest.(check int) "last node" (reference_size last) (F.size last)

(* Both conversions on formulas whose node ids and variable indices lie
   past the converter's initial array sizes. Only the last [nvars]
   variables are used, so brute force stays cheap. *)
let test_tseitin_large_ids () =
  let nvars = 8 in
  let rs = Random.State.make [| 5 |] in
  for round = 1 to 40 do
    let ctx = F.create_ctx () in
    let all = Array.init (300 + nvars) (fun _ -> F.fresh_var ctx) in
    (* Unused nodes push the ids of the formula past 1024. *)
    for i = 0 to 299 do
      ignore (F.and_ ctx all.(i) all.((i + 1) mod 300));
      ignore (F.or_ ctx all.(i) all.((i + 7) mod 300));
      ignore (F.not_ ctx (F.and_ ctx all.(i) all.((i + 3) mod 300)))
    done;
    let vars = Array.sub all 300 nvars in
    let rec gen depth =
      if depth = 0 then
        let v = vars.(Random.State.int rs nvars) in
        if Random.State.bool rs then v else F.not_ ctx v
      else
        match Random.State.int rs 3 with
        | 0 -> F.and_ ctx (gen (depth - 1)) (gen (depth - 1))
        | 1 -> F.or_ ctx (gen (depth - 1)) (gen (depth - 1))
        | _ -> F.iff ctx (gen (depth - 1)) (gen (depth - 1))
    in
    let f = gen 5 in
    if round = 1 && f.F.id < 1024 then Alcotest.fail "formula ids too small";
    let sat_brute =
      let rec loop a v =
        if v = nvars then F.eval (fun i -> a.(i - 300)) f
        else begin
          a.(v) <- true;
          loop a (v + 1)
          ||
          (a.(v) <- false;
           loop a (v + 1))
        end
      in
      loop (Array.make nvars false) 0
    in
    List.iter
      (fun mode ->
        let solver = Solver.create () in
        let ts = Tseitin.create ~mode solver in
        Tseitin.assert_root ts f;
        match Solver.solve solver with
        | Solver.Sat ->
          let assign i =
            match Tseitin.find_var ts i with
            | Some lit -> Solver.value solver lit
            | None -> false
          in
          Alcotest.(check bool) "brute force sat" true sat_brute;
          Alcotest.(check bool) "model satisfies" true (F.eval assign f)
        | Solver.Unsat -> Alcotest.(check bool) "brute force unsat" false sat_brute
        | Solver.Unknown -> Alcotest.fail "unknown")
      [ Tseitin.Polarity; Tseitin.Full ]
  done

(* -- Clause-set nodes ----------------------------------------------------- *)

let clause_vars = 6

(* A clause set over [clause_vars] variables: empty, a few clauses, or more
   clauses than Tseitin's group width of 64. Most large sets are planted
   (every clause agrees with one hidden assignment) so that they stay
   satisfiable; one set in ten holds an empty clause. A third of the sets
   start with 61 to 136 tautologies, so that the clauses that can be false
   sit in the last group of the indicator chain. *)
let gen_clause_set =
  let open QCheck2.Gen in
  let lit =
    map2
      (fun v neg -> (2 * v) + if neg then 1 else 0)
      (int_bound (clause_vars - 1))
      bool
  in
  let* n =
    frequency [ (1, pure 0); (4, int_range 1 4); (2, int_range 65 140) ]
  in
  let* cs = array_size (pure n) (array_size (int_range 1 4) lit) in
  let* hidden = array_size (pure clause_vars) bool in
  let* planted = frequency [ (1, pure false); (3, pure true) ] in
  let* empty = frequency [ (9, pure false); (1, pure true) ] in
  let* pad = frequency [ (2, pure 0); (1, int_range 61 136) ] in
  let* taut =
    array_size (pure pad)
      (map (fun v -> [| 2 * v; (2 * v) + 1 |]) (int_bound (clause_vars - 1)))
  in
  let agrees l = hidden.(l lsr 1) = (l land 1 = 0) in
  if planted && n > 4 then
    Array.iter
      (fun c -> if not (Array.exists agrees c) then c.(0) <- c.(0) lxor 1)
      cs;
  if empty && n > 0 then cs.(0) <- [||];
  pure (Array.append taut cs)

let gen_with_clauses depth =
  let open QCheck2.Gen in
  let ctx = F.create_ctx () in
  for _ = 1 to clause_vars do
    ignore (F.fresh_var ctx)
  done;
  let rec go depth =
    let leaves =
      [
        map (fun i -> F.var ctx i) (int_bound (clause_vars - 1));
        map (F.clauses ctx) gen_clause_set;
      ]
    in
    if depth = 0 then oneof leaves
    else
      oneof
        (leaves
        @ [
            map (F.not_ ctx) (go (depth - 1));
            map2 (F.and_ ctx) (go (depth - 1)) (go (depth - 1));
            map2 (F.or_ ctx) (go (depth - 1)) (go (depth - 1));
          ])
  in
  map (fun f -> (ctx, f)) (go depth)

let brute_sat nvars f =
  let a = Array.make nvars false in
  let rec loop v =
    if v = nvars then F.eval (fun i -> a.(i)) f
    else begin
      a.(v) <- true;
      loop (v + 1)
      ||
      (a.(v) <- false;
       loop (v + 1))
    end
  in
  loop 0

(* Property: formulas with clause-set nodes under Not, And and Or convert
   faithfully in both modes: the verdict matches brute force and a model
   satisfies the formula. *)
let prop_clauses_nodes =
  QCheck2.Test.make ~name:"clause-set nodes, both modes" ~count:300
    (gen_with_clauses 3) (fun (_ctx, f) ->
      let sat = brute_sat clause_vars f in
      List.for_all
        (fun mode ->
          let solver = Solver.create () in
          let ts = Tseitin.create ~mode solver in
          Tseitin.assert_root ts f;
          match Solver.solve solver with
          | Solver.Sat ->
            let assign i =
              match Tseitin.find_var ts i with
              | Some lit -> Solver.value solver lit
              | None -> false
            in
            sat && F.eval assign f
          | Solver.Unsat -> not sat
          | Solver.Unknown -> false)
        [ Tseitin.Polarity; Tseitin.Full ])

let test_clauses_constructor () =
  let ctx = F.create_ctx () in
  let a = F.fresh_var ctx and b = F.fresh_var ctx in
  let ia = F.var_index a and ib = F.var_index b in
  Alcotest.(check bool) "empty set is true" true
    (F.clauses ctx [||] == F.tru ctx);
  Alcotest.(check bool) "empty clause is false" true
    (F.clauses ctx [| [| 2 * ia |]; [||] |] == F.fls ctx);
  let cs = [| [| 2 * ia; 2 * ib |]; [| (2 * ia) + 1 |] |] in
  let n1 = F.clauses ctx cs and n2 = F.clauses ctx cs in
  Alcotest.(check bool) "each call is a new node" true (n1 != n2);
  Alcotest.(check int) "size counts the clauses" 3 (F.size n1);
  Alcotest.(check int) "size under a gate" 6
    (F.size (F.and_ ctx a (F.not_ ctx n1)));
  (* (a ∨ b) ∧ ¬a holds exactly when a is false and b true *)
  List.iter
    (fun (va, vb) ->
      let e i = if i = ia then va else vb in
      Alcotest.(check bool) "eval" ((not va) && vb) (F.eval e n1))
    [ (true, true); (true, false); (false, true); (false, false) ];
  Alcotest.(check string) "pp" "(clauses (or b0 b1) (or (not b0)))"
    (Format.asprintf "%a" F.pp n1);
  Alcotest.(check bool) "unallocated variable rejected" true
    (match F.clauses ctx [| [| 2 * 7 |] |] with
    | exception Invalid_argument _ -> true
    | _ -> false);
  (* A root clause set goes in verbatim. Under a root disjunction it is a
     positive gate: one clause per set clause, plus the root clause. *)
  let count f =
    let ts = Tseitin.create (Solver.create ()) in
    Tseitin.assert_root ts f;
    Tseitin.clauses_added ts
  in
  Alcotest.(check int) "root verbatim" 2 (count n1);
  Alcotest.(check int) "positive gate" 3 (count (F.or_ ctx a n1))

let () =
  Alcotest.run "prop"
    [
      ( "formula",
        [
          Alcotest.test_case "constants" `Quick test_constants;
          Alcotest.test_case "smart constructors" `Quick test_smart_constructors;
          Alcotest.test_case "derived connectives" `Quick test_derived;
          Alcotest.test_case "size and sharing" `Quick test_size_sharing;
          Alcotest.test_case "variable errors" `Quick test_var_errors;
          Alcotest.test_case "hash-cons table growth" `Quick
            test_hashcons_growth;
          Alcotest.test_case "size matches reference" `Quick test_size_reference;
          Alcotest.test_case "clause-set nodes" `Quick test_clauses_constructor;
        ] );
      ( "tseitin",
        [
          Alcotest.test_case "clause count" `Quick test_tseitin_clause_count;
          Alcotest.test_case "large ids, both modes" `Quick
            test_tseitin_large_ids;
          QCheck_alcotest.to_alcotest prop_tseitin_equisat;
          QCheck_alcotest.to_alcotest prop_pg_matches_full;
          QCheck_alcotest.to_alcotest prop_full_model_faithful;
          QCheck_alcotest.to_alcotest prop_eval_consistent;
          QCheck_alcotest.to_alcotest prop_clauses_nodes;
        ] );
    ]
