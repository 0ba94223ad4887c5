(* Processor verification: prove that committing an instruction bundle
   through a reordering write buffer preserves the architectural state, then
   plant an operand-swap bug and extract a first-order countermodel.

   Run with:  dune exec examples/pipeline_verification.exe *)

module Ast = Sepsat_suf.Ast
module Interp = Sepsat_suf.Interp
module Pipeline = Sepsat_workloads.Pipeline
module Decide = Sepsat.Decide
module Witness = Sepsat.Witness
module Verdict = Sepsat_sep.Verdict

let () =
  (* The correct design. *)
  let ctx = Ast.create_ctx () in
  let correct = Pipeline.formula ctx ~n_instructions:6 ~seed:42 in
  Format.printf "verifying a 6-instruction bundle (%d DAG nodes)...@."
    (Ast.size correct);
  let r = Decide.decide ctx correct in
  Format.printf "  %s in %.3fs (%d conflict clauses)@.@."
    (match r.Decide.verdict with
    | Verdict.Valid -> "correct"
    | Verdict.Invalid _ -> "BUGGY"
    | Verdict.Unknown w -> w)
    r.Decide.total_time
    (match r.Decide.sat_stats with
    | Some st -> st.Sepsat_sat.Solver.conflicts
    | None -> 0);

  (* The buggy design: last instruction's ALU operands swapped. *)
  let ctx = Ast.create_ctx () in
  let buggy = Pipeline.formula ~bug:true ctx ~n_instructions:6 ~seed:42 in
  Format.printf "verifying the operand-swap mutation...@.";
  let r = Decide.decide ctx buggy in
  match r.Decide.verdict with
  | Verdict.Invalid assignment ->
    Format.printf "  bug found; lifting the countermodel to first order:@.";
    let interp =
      Witness.to_interp (Witness.of_assignment r.Decide.elim assignment)
    in
    (* Replay: the interpretation must falsify the original formula. *)
    let value = Interp.eval interp buggy in
    Format.printf "  formula value under the countermodel: %b (expected \
                   false)@."
      value;
    assert (not value);
    (* Peek at the distinguishing register values. *)
    List.iter
      (fun name ->
        Format.printf "    %s = %d@." name (interp.Interp.func name []))
      [ "d5"; "s1_5"; "s2_5"; "probe0" ]
  | Verdict.Valid -> failwith "the planted bug went undetected!"
  | Verdict.Unknown w -> failwith ("inconclusive: " ^ w)
