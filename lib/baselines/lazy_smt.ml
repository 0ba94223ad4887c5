module Ast = Sepsat_suf.Ast
module F = Sepsat_prop.Formula
module Tseitin = Sepsat_prop.Tseitin
module Solver = Sepsat_sat.Solver
module Lit = Sepsat_sat.Lit
module Sep = Sepsat_sep
module Normal = Sep.Normal
module Bound = Sep.Bound
module Brute = Sep.Brute
module Verdict = Sep.Verdict
module Eij = Sepsat_encode.Eij
module Diff_solver = Sepsat_theory.Diff_solver
module Deadline = Sepsat_util.Deadline
module Obs = Sepsat_obs.Obs
module Metrics = Sepsat_obs.Metrics

let m_iterations = Metrics.handle Metrics.counter "lazy.iterations"

let m_lemmas = Metrics.handle Metrics.counter "lazy.lemmas"

type stats = {
  iterations : int;
  conflict_clauses : int;
  sat_conflicts : int;
}

let no_p _ = false

let decide ?(simplify = false) ?(deadline = Deadline.none) ctx formula =
  let formula = Normal.normalize ctx formula in
  let pctx = F.create_ctx () in
  (* The per-predicate Boolean abstraction is exactly EIJ's atom encoding —
     without F_trans, which this procedure enforces lazily. *)
  let eij = Eij.create pctx in
  let gmap = Sep.Ground_map.create ctx in
  let bconst_vars : (string, F.t) Hashtbl.t = Hashtbl.create 16 in
  let fmemo = Hashtbl.create 256 in
  let rec abstract (f : Ast.formula) =
    match Hashtbl.find_opt fmemo f.fid with
    | Some p -> p
    | None ->
      let p =
        match f.fnode with
        | Ast.Ftrue -> F.tru pctx
        | Ast.Ffalse -> F.fls pctx
        | Ast.Not g -> F.not_ pctx (abstract g)
        | Ast.And (a, b) -> F.and_ pctx (abstract a) (abstract b)
        | Ast.Or (a, b) -> F.or_ pctx (abstract a) (abstract b)
        | Ast.Bconst name -> (
          match Hashtbl.find_opt bconst_vars name with
          | Some v -> v
          | None ->
            let v = F.fresh_var pctx in
            Hashtbl.add bconst_vars name v;
            v)
        | Ast.Eq (t1, t2) -> atom t1 t2 (Eij.encode_eq eij ~is_p:no_p)
        | Ast.Lt (t1, t2) -> atom t1 t2 (Eij.encode_lt eij ~is_p:no_p)
        | Ast.Papp _ -> invalid_arg "Lazy_smt: application present"
      in
      Hashtbl.add fmemo f.fid p;
      p
  and atom t1 t2 encode_pair =
    let pairs1 = Sep.Ground_map.of_term gmap t1 in
    let pairs2 = Sep.Ground_map.of_term gmap t2 in
    F.or_list pctx
      (List.concat_map
         (fun (g1, c1) ->
           List.map
             (fun (g2, c2) ->
               F.and_ pctx
                 (F.and_ pctx (abstract c1) (abstract c2))
                 (encode_pair g1 g2))
             pairs2)
         pairs1)
  in
  let f_bvar = abstract formula in
  let solver = Solver.create () in
  Solver.set_simplify solver simplify;
  let tseitin = Tseitin.create solver in
  Tseitin.assert_root tseitin (F.not_ pctx f_bvar);
  (* Each theory lemma is added to the same solver between calls, so the
     refinement state rides its retained learnt clauses, activities and
     saved phases instead of re-encoding. *)
  let bounds = Eij.bounds eij in
  let iterations = ref 0 in
  let conflict_clauses = ref 0 in
  let all_consts = List.map fst (Ast.functions formula) in
  (* One span per refinement iteration (SAT query + theory check), so the
     abstraction/refinement ping-pong is visible on the exported timeline. *)
  let step () =
    Deadline.check deadline;
    incr iterations;
    Metrics.incr (m_iterations ());
    match Solver.solve ~deadline solver with
    | Solver.Unsat -> Some Verdict.Valid
    | Solver.Unknown -> Some (Verdict.Unknown "timeout")
    | Solver.Sat -> (
      (* Collect the difference constraints the model asserts; each is
         tagged with the SAT literal that must flip to escape it. *)
      let ds = Diff_solver.create () in
      List.iter (fun name -> ignore (Diff_solver.node ds name)) all_consts;
      List.iter
        (fun ((b : Bound.t), v) ->
          match Tseitin.find_var tseitin (F.var_index v) with
          | None ->
            (* The predicate variable was simplified out of the query; its
               value is unconstrained, so no bound needs asserting. *)
            ()
          | Some lit ->
            let x = Diff_solver.node ds b.Bound.x in
            let y = Diff_solver.node ds b.Bound.y in
            if Solver.value solver lit then
              Diff_solver.assert_le ds ~x ~y ~c:b.Bound.c ~tag:(Lit.neg lit)
            else
              Diff_solver.assert_le ds ~x:y ~y:x ~c:(-b.Bound.c - 1) ~tag:lit)
        bounds;
      match Diff_solver.infeasibility ds with
      | None ->
        let bools =
          Hashtbl.fold
            (fun name v acc ->
              let value =
                match Tseitin.find_var tseitin (F.var_index v) with
                | Some lit -> Solver.value solver lit
                | None -> false
              in
              (name, value) :: acc)
            bconst_vars []
          |> List.sort compare
        in
        Some (Verdict.Invalid { Brute.ints = Diff_solver.model ds; bools })
      | Some cycle_lits ->
        (* The negative cycle's negation, as in CVC's incremental
           translation. *)
        incr conflict_clauses;
        Metrics.incr (m_lemmas ());
        Solver.add_clause solver cycle_lits;
        None)
  in
  let rec refine () =
    match Obs.span ~cat:"lazy" "lazy.iter" step with
    | Some v -> v
    | None -> refine ()
  in
  let verdict = try refine () with Deadline.Timeout -> Verdict.Unknown "timeout" in
  ( verdict,
    {
      iterations = !iterations;
      conflict_clauses = !conflict_clauses;
      sat_conflicts = (Solver.stats solver).Solver.conflicts;
    } )
