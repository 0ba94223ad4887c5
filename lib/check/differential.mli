(** Differential fuzzing of the decision procedures.

    Runs one validity query through several independent procedures (SD, EIJ,
    HYBRID at several thresholds, the SVC-style and lazy baselines), demands
    unanimous verdicts where decisive, witness-checks every SAT answer with
    {!Certify} and DRUP-checks every UNSAT answer of a proof-producing
    procedure. Any discrepancy is shrunk with {!Shrink} to a minimal
    reproducer and rendered in the repo's SMT-LIB dialect.

    This is the standing oracle for refactoring and performance work: a
    change to any encoder, the solver, or the elimination passes if a fuzz
    run over random formulas reports zero failures. *)

module Ast = Sepsat_suf.Ast
module Decide = Sepsat.Decide
module Random_formula = Sepsat_workloads.Random_formula

type procedure = {
  name : string;
  expect_proof : bool;
      (** UNSAT answers of this procedure must carry a passing DRUP
          certificate *)
  run : Ast.ctx -> Ast.formula -> Decide.result;
}

val procedure_of_method : ?timeout:float -> Decide.method_ -> procedure
(** Eager methods run with [~certify:true] and
    [expect_proof = true]; the baselines produce no proofs.
    [timeout] (seconds, default 10) bounds each call. *)

val default_procedures : ?timeout:float -> unit -> procedure list
(** SD, EIJ, HYBRID at thresholds 0 / default / max, SVC and LAZY. *)

type failure_kind =
  | Disagreement  (** two decisive verdicts differ *)
  | Bad_witness of string  (** procedure whose SAT answer fails its check *)
  | Bad_proof of string  (** procedure whose UNSAT answer fails its check *)
  | Crash of string  (** procedure that raised *)

type failure = {
  kind : failure_kind;
  detail : string;
  verdicts : (string * string) list;  (** procedure name -> verdict *)
}

type tally = { sat_answers : int; unsat_answers : int; unknowns : int }

val check_formula :
  procedures:procedure list ->
  Ast.ctx ->
  Ast.formula ->
  (tally, failure) result
(** Decide [formula] with every procedure and certify every answer. *)

val shrink_failure :
  procedures:procedure list ->
  Ast.ctx ->
  Ast.formula ->
  failure ->
  Ast.formula
(** Smallest formula (greedy local minimum) still exhibiting the same kind
    of failure. *)

type counterexample = {
  iteration : int;
  gen_seed : int;  (** pass to {!Random_formula.generate} to regenerate *)
  failure : failure;
  original : Ast.formula;
  shrunk : Ast.formula;
  script : string;
      (** SMT-LIB reproducer: asserts the negation of the shrunk formula, so
          [check-sat] answers [sat] iff the formula is invalid *)
}

type summary = {
  iterations : int;
  tally : tally;  (** totals across all iterations and procedures *)
  failures : counterexample list;
}

val fuzz :
  ?procedures:procedure list ->
  ?gen:Random_formula.config ->
  ?shrink_failures:bool ->
  ?vary_simplify:bool ->
  ?log:(string -> unit) ->
  iters:int ->
  seed:int ->
  unit ->
  summary
(** Deterministic: iteration [i] decides the formula generated from seed
    [seed * 1_000_003 + i] in a fresh context. [vary_simplify] (default
    [false]) toggles {!Decide.set_simplify_default} per iteration (by seed
    parity, restored afterwards) so both the simplified and the plain SAT
    core face the same formula stream. [log] receives one-line progress
    messages (default: silent). *)

val pp_counterexample : Format.formatter -> counterexample -> unit

val pp_summary : Format.formatter -> summary -> unit
