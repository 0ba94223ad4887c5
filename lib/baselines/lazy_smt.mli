(** CVC-style lazy refinement procedure (baseline of paper §5).

    Like EIJ, every separation predicate is abstracted by one Boolean
    variable — but realizability is enforced *lazily*: the SAT solver
    produces a full propositional model, the induced difference constraints
    are checked with Bellman-Ford, and on inconsistency the negative cycle is
    returned to the solver as a conflict clause. The loop repeats until a
    consistent model is found (invalid) or the abstraction is unsatisfiable
    (valid).

    Operates on application-free formulas; positive equality is not
    exploited, mirroring CVC's treatment of the benchmarks. *)

module Ast = Sepsat_suf.Ast

type stats = {
  iterations : int;  (** lazy refinement rounds *)
  conflict_clauses : int;  (** theory conflict clauses added *)
  sat_conflicts : int;  (** CDCL conflicts across all rounds *)
}

val decide :
  ?simplify:bool ->
  ?deadline:Sepsat_util.Deadline.t ->
  Ast.ctx ->
  Ast.formula ->
  Sepsat_sep.Verdict.t * stats
(** [simplify] (default [false]) turns on the SAT core's pre/inprocessing.
    A theory lemma that names a predicate variable the simplifier eliminated
    restores that variable when it is added. *)
